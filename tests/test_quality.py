"""The quality table's script (``tests/quality.py``) on its smallest row
whose search draws candidates: quito at full size."""
import re

from quality import HEADER, ROWS, row, table_line


def test_quito_row():
    assert ("quito", 5, 20) in ROWS
    mean_cnots, mean_cost, search_ms = row("quito", 5, 20)
    assert mean_cnots > 0 and mean_cost > 0 and search_ms > 0
    line = table_line("quito", 5, 20)
    assert line.count("|") == HEADER.splitlines()[0].count("|")
    # The CNOT and ESP columns depend only on the code, so a second run reads the same.
    cells = re.fullmatch(r"\| quito \| 5 \| 20 \| ([\d.]+) \| ([\d.]+) \| [\d.]+ \|", line).groups()
    assert cells == (f"{mean_cnots:.2f}", f"{mean_cost:.4f}")
