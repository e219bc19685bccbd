"""Seeded quality table of the default pipeline, one row per device and size.

    PYTHONPATH=src python tests/quality.py

prints a markdown table.  Each row searches the default mapping
(``optimize_mapping`` with ``TabuConfig(seed=s)``) for every search seed s
in ``SEARCH_SEEDS``, and synthesizes under it the parity matrix of every
``random_cnot_circuit(n, cnots, c)`` with c in ``CIRCUIT_SEEDS``.  A row
gives the mean CNOT count and the mean -ln ESP over those syntheses, and the
median wall time of one default search in milliseconds.  The CNOT and ESP
columns depend only on the code; the time depends on the host too.

A change that moves an output on purpose puts the table of its parent and
its own in ``CHANGES.md``.  Rows whose searches draw nothing (a full device
whose own step is a Hamiltonian path) must read the same on both sides.
"""
from __future__ import annotations

import math
import statistics
import time

from cnotsynth.arch import builtin
from cnotsynth.circuit import esp, random_cnot_circuit
from cnotsynth.gf2 import ParityMatrix
from cnotsynth.mapping import TabuConfig, optimize_mapping
from cnotsynth.synth import synthesize, verify_equivalence

#: (device, logical qubits, input CNOTs) of each row.
ROWS = (
    ("quito", 5, 20),
    ("manila", 5, 20),
    ("guadalupe", 16, 200),
    ("guadalupe", 12, 60),
    ("guadalupe", 8, 40),
    ("tokyo", 20, 200),
    ("tokyo", 9, 40),
    ("grid(4,4)", 16, 160),
    ("grid(5,5)", 25, 250),
)
SEARCH_SEEDS = range(10)
CIRCUIT_SEEDS = range(1000, 1005)
HEADER = ("| device | n | input CNOTs | mean CNOTs | mean -ln ESP | median search ms |\n"
          "|---|---|---|---|---|---|")


def row(name: str, n: int, cnots: int) -> tuple[float, float, float]:
    """Mean CNOTs, mean -ln ESP and the median search time (ms) of one row."""
    graph = builtin(name)
    matrices = [ParityMatrix.from_circuit(random_cnot_circuit(n, cnots, c).cnot_pairs(), n) for c in CIRCUIT_SEEDS]
    counts, costs, times = [], [], []
    for seed in SEARCH_SEEDS:
        start = time.perf_counter()
        mapping = optimize_mapping(graph, n, TabuConfig(seed=seed))
        times.append(time.perf_counter() - start)
        for m in matrices:
            res = synthesize(m, graph, mapping=mapping)
            if not verify_equivalence(m, res):
                raise AssertionError(f"{name} n={n} search seed {seed}: the output is not equivalent")
            counts.append(res.cnot_count)
            costs.append(-math.log(esp(res.physical_circuit(), graph)))
    return statistics.fmean(counts), statistics.fmean(costs), 1000 * statistics.median(times)


def table_line(name: str, n: int, cnots: int) -> str:
    mean_cnots, mean_cost, search_ms = row(name, n, cnots)
    return f"| {name} | {n} | {cnots} | {mean_cnots:.2f} | {mean_cost:.4f} | {search_ms:.1f} |"


def main() -> None:
    print(HEADER)
    for spec in ROWS:
        print(table_line(*spec), flush=True)


if __name__ == "__main__":
    main()
