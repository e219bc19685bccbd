"""Every pinned output of the test suite, and the one command that records them.

Each family is a dict of named inputs plus one producer function, stored as
``{name: producer(*inputs)}`` in ``tests/golden_<family>.json``.
``test_goldens.py`` checks every stored value against its producer, so the
recorder and the test share one code path.  A change that moves an output on
purpose rewrites every file with

    PYTHONPATH=src python tests/goldens.py

and explains each moved value in ``CHANGES.md``.  The perfbench output
digests are not among these files: ``tests/digests.py`` records them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from conftest import random_invertible
from cnotsynth.arch import builtin
from cnotsynth.circuit import random_cnot_circuit, write_qasm
from cnotsynth.cli import main as cli_main
from cnotsynth.mapping import Mapping, TabuConfig, optimize_mapping, tabu_search_table
from cnotsynth.synth import synthesize, verify_equivalence

HERE = Path(__file__).parent
SEEDS = range(3)


@dataclass(frozen=True)
class Family:
    """Named inputs and the producer whose value for each is pinned."""

    name: str
    cases: dict[str, tuple]
    producer: Callable

    @property
    def path(self) -> Path:
        return HERE / f"golden_{self.name}.json"

    def value(self, key: str):
        """The producer's value for case ``key``, as the JSON file holds it."""
        return json.loads(json.dumps(self.producer(*self.cases[key])))

    def stored(self) -> dict:
        return json.loads(self.path.read_text(encoding="utf-8"))


def dump(values: dict) -> str:
    """The one layout of every golden file."""
    return json.dumps(values, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Default mapping searches
# ---------------------------------------------------------------------------
# ``optimize_mapping(builtin(name), n, TabuConfig(seed=seed)).assign``; every
# entry but grid(8,8) was recorded before the search moved to vertex bitmasks.

def mapping(name: str, n: int, seed: int) -> list[int]:
    return list(optimize_mapping(builtin(name), n, TabuConfig(seed=seed)).assign)


MAPPING_CASES = {
    # quito: the smallest built-in, a full device with no Hamiltonian path.
    **{f"quito 5 {seed}": ("quito", 5, seed) for seed in SEEDS},
    # guadalupe 12: four spare qubits, so every construction is partial.
    **{f"guadalupe 12 {seed}": ("guadalupe", 12, seed) for seed in SEEDS},
    # guadalupe 16: the full heavy-hex device has no path, so candidates draw.
    **{f"guadalupe 16 {seed}": ("guadalupe", 16, seed) for seed in SEEDS},
    # tokyo 20: the whole device has a path, so every construction follows it.
    **{f"tokyo 20 {seed}": ("tokyo", 20, seed) for seed in SEEDS},
    # grid(5,5): a grid whose whole-device path, the snake, is searched and followed.
    **{f"grid(5,5) 25 {seed}": ("grid(5,5)", 25, seed) for seed in SEEDS},
    # linear(40): a chain past the 32-vertex path-search limit, so no path is searched.
    **{f"linear(40) 40 {seed}": ("linear(40)", 40, seed) for seed in SEEDS},
    # grid(8,8): the largest bipartite built-in whose searches the parity checks cut.
    "grid(8,8) 64 0": ("grid(8,8)", 64, 0),
}


# ---------------------------------------------------------------------------
# Final tabu tables
# ---------------------------------------------------------------------------
# ``tabu_search_table(builtin(name), n, config)``: each entry's assignment and
# ``score.hex()``, in table order; the default-config entries were recorded
# while the table was kept as parallel lists.

def tabu_table(name: str, n: int, config: TabuConfig) -> list[list]:
    return [[list(m.assign), score.hex()] for m, score in tabu_search_table(builtin(name), n, config)]


TABU_CASES = {
    # quito: the final table keeps only the seed mapping.
    **{f"quito 5 {seed}": ("quito", 5, TabuConfig(seed=seed)) for seed in SEEDS},
    # guadalupe 12: partial placements, which scatter (TestPartialPlacementScatters).
    **{f"guadalupe 12 {seed}": ("guadalupe", 12, TabuConfig(seed=seed)) for seed in SEEDS},
    # guadalupe 16: full placements on a device without a path.
    **{f"guadalupe 16 {seed}": ("guadalupe", 16, TabuConfig(seed=seed)) for seed in SEEDS},
    # tokyo 9: eleven spare qubits, so nearly every candidate is disconnected.
    **{f"tokyo 9 {seed}": ("tokyo", 9, TabuConfig(seed=seed)) for seed in SEEDS},
    # linear(40): past the 32-vertex path-search limit.
    **{f"linear(40) 40 {seed}": ("linear(40)", 40, TabuConfig(seed=seed)) for seed in SEEDS},
    # grid(6,6), recorded before the path search gained its endpoint rule:
    # each full-device construction queries residuals of up to 32 vertices.
    "grid(6,6) 36 0 iterations=5": ("grid(6,6)", 36, TabuConfig(seed=0, iterations=5)),
}


# ---------------------------------------------------------------------------
# Elimination under fixed mappings
# ---------------------------------------------------------------------------
# ``synthesize(random_invertible(n, seed), device, mapping=Mapping(assign))``:
# its CNOT count, depth and the sha256 of the JSON ``[[[control, target],
# ...], assign]``; captured while parity matrices were numpy arrays, so the
# int-row elimination must reproduce them exactly.

#: The fixed mapping of each device's synthesis cases.
SYNTHESIS_MAPPINGS = {
    "quito": (0, 2, 1, 3, 4),
    "guadalupe": (2, 3, 5, 0, 15, 9, 8, 6, 11, 14, 13, 12),
    "tokyo": (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 15, 16, 17, 11, 12, 13, 18, 14, 19),
    "grid(5,5)": (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11, 12, 13, 14, 19, 18, 17, 16, 15, 20, 21, 22, 23, 24),
    "linear(16)": tuple(range(16)),
}


def synthesis(name: str, seed: int) -> list:
    assign = SYNTHESIS_MAPPINGS[name]
    m = random_invertible(len(assign), seed)
    res = synthesize(m, builtin(name), mapping=Mapping(assign))
    if not verify_equivalence(m, res):
        raise AssertionError(f"{name} seed {seed}: the synthesized circuit is not equivalent")
    payload = json.dumps([[list(gate) for gate in res.gates], list(res.mapping.assign)])
    return [res.cnot_count, res.depth, hashlib.sha256(payload.encode()).hexdigest()]


SYNTHESIS_CASES = {
    # quito: the smallest built-in, full.
    **{f"quito 5 {seed}": ("quito", seed) for seed in SEEDS},
    # guadalupe 12: four spare qubits serve as ancillas.
    **{f"guadalupe 12 {seed}": ("guadalupe", seed) for seed in SEEDS},
    # tokyo 20: a dense device, full.
    **{f"tokyo 20 {seed}": ("tokyo", seed) for seed in SEEDS},
    # grid(5,5): the largest matrices of the family, 25 x 25, along the snake.
    **{f"grid(5,5) 25 {seed}": ("grid(5,5)", seed) for seed in SEEDS},
    # linear(16): every Steiner tree is a path.
    **{f"linear(16) 16 {seed}": ("linear(16)", seed) for seed in SEEDS},
}


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------
# Every report the CLI prints, byte for byte, in each --format: the exit
# code, stdout, stderr and the OUT file.  Only the wall-clock ``ms`` of bench
# rows is masked.  Placeholders: IN (random CNOT-only circuit), MIXED
# (H/CNOT/measure circuit), PHYS and PHYS_CX (circuits over quito's physical
# qubits), ARCH (a device file), OUT (a report or QASM file).

FAST = ["--tabu-len", "4", "--iterations", "2"]
FORMATS = ("table", "csv", "json")
CLI_FILES = {
    "IN": ("in.qasm", write_qasm(random_cnot_circuit(5, 40, 3))),
    "MIXED": ("mixed.qasm", "qreg q[4]; creg c[4];\nh q[0];\ncx q[0],q[2]; cx q[1],q[2]; cx q[3],q[0];\nh q[1];\n"
                            "x q[3];\ncx q[2],q[3];\nmeasure q[2] -> c[0];\nmeasure q[0] -> c[3];\n"),
    "PHYS": ("phys.qasm", "qreg q[5];\nh q[0];\ncx q[0],q[1];\nz q[3];\ncx q[3],q[4];\ncx q[1],q[2];\n"),
    "PHYS_CX": ("phys_cx.qasm", "qreg q[5];\ncx q[0],q[1];\ncx q[1],q[3];\ncx q[3],q[4];\n"),
    "ARCH": ("dev.arch", "qubits 4\nedge 0 1 0.01\nedge 1 2 0.02\nedge 2 3 0.015\nedge 1 3 0.03\n"),
}
PLACEHOLDERS = {key: file_name for key, (file_name, _) in CLI_FILES.items()} | {"OUT": "report.out"}
MS_PATTERNS = {
    "table": (re.compile(r"\d+\.\d{3} *$", re.M), "MS"),
    "csv": (re.compile(r",\d+\.\d{3}$", re.M), ",MS"),
    "json": (re.compile(r'"ms": [-+.\deE]+'), '"ms": "MS"'),
}


def cli_report(*argv: str) -> dict:
    """Run one CLI invocation in a fresh temporary directory that holds the
    input files, so that no report names a temporary path; return its exit
    code, stdout, stderr and OUT file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for file_name, text in CLI_FILES.values():
                Path(file_name).write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([PLACEHOLDERS.get(arg, arg) for arg in argv])
            out_file = Path(PLACEHOLDERS["OUT"])
            record = {
                "code": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "out": out_file.read_text(encoding="utf-8") if out_file.exists() else None,
            }
        finally:
            os.chdir(cwd)
    if argv[0] == "bench":
        pattern, mask = MS_PATTERNS[argv[argv.index("--format") + 1]]
        for key in ("stdout", "out"):
            if record[key] is not None:
                record[key] = pattern.sub(mask, record[key])
    return record


CLI_CASES = {
    # arch on a built-in: key qubits, cut points, no path.
    **{f"arch-quito-{f}": ("arch", "quito", "--format", f) for f in FORMATS},
    # arch on a device file: its name and edges as the file gives them.
    **{f"arch-file-{f}": ("arch", "ARCH", "--format", f) for f in FORMATS},
    # arch past the 32-vertex path-search limit, written to a file.
    **{f"arch-grid66-{f}": ("arch", "grid(6,6)", "--format", f, "--out", "OUT") for f in FORMATS},
    # synth of a CNOT-only circuit with its circuit on stdout.
    **{f"synth-cnot-{f}": ("synth", "IN", "--arch", "quito", "--seed", "7", *FAST, "--format", f)
       for f in FORMATS},
    # synth with a Monte-Carlo fidelity estimate.
    **{f"synth-shots-{f}": ("synth", "IN", "--arch", "quito", "--seed", "3", *FAST, "--shots", "500",
                            "--format", f, "--out", "OUT") for f in FORMATS},
    # synth of a mixed circuit, run by run, with spare ancillas.
    **{f"synth-mixed-{f}": ("synth", "MIXED", "--arch", "guadalupe", *FAST, "--format", f, "--out", "OUT")
       for f in FORMATS},
    # fidelity of a physical circuit at the default one-qubit error.
    **{f"fidelity-{f}": ("fidelity", "PHYS", "--arch", "quito", "--format", f) for f in FORMATS},
    # fidelity with a one-qubit error given.
    **{f"fidelity-one-q-{f}": ("fidelity", "PHYS", "--arch", "quito", "--one-q-error", "0.01", "--format", f)
       for f in FORMATS},
    # fidelity with a Monte-Carlo estimate.
    **{f"fidelity-shots-{f}": ("fidelity", "PHYS_CX", "--arch", "quito", "--shots", "2000", "--seed", "4",
                               "--format", f) for f in FORMATS},
    # bench over two devices and three sizes, one of them empty.
    **{f"bench-{f}": ("bench", "--arch", "quito,linear(5)", "--sizes", "0,10,25", "--instances", "2",
                      "--seed", "3", *FAST, "--format", f) for f in FORMATS},
    # bench on a device file with a Monte-Carlo estimate, written to a file.
    **{f"bench-shots-{f}": ("bench", "--arch", "ARCH", "--sizes", "12", "--instances", "3", "--seed", "2",
                            *FAST, "--shots", "300", "--format", f, "--out", "OUT") for f in FORMATS},
    # bench with the default tabu flags, captured before the instance seeds
    # moved onto mapping.derive_seed.
    "bench-default-json": ("bench", "--arch", "quito", "--sizes", "10", "--instances", "2", "--seed", "1",
                           "--format", "json", "--out", "OUT"),
}


FAMILIES = {
    family.name: family
    for family in (
        Family("mappings", MAPPING_CASES, mapping),
        Family("tabu_tables", TABU_CASES, tabu_table),
        Family("synthesis", SYNTHESIS_CASES, synthesis),
        Family("cli_reports", CLI_CASES, cli_report),
    )
}


def main() -> None:
    """Rewrite every golden file from the current code."""
    for family in FAMILIES.values():
        family.path.write_text(dump({key: family.value(key) for key in family.cases}), encoding="utf-8")
        print(f"{family.path.name}: {len(family.cases)} cases")


if __name__ == "__main__":
    main()
