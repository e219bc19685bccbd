"""Every pinned output of the test suite, and the one command that records them.

Each family is a dict of named inputs plus one producer function, stored as
``{name: producer(*inputs)}`` in ``tests/golden_<family>.json``.
``test_goldens.py`` checks every stored value against its producer, so the
recorder and the test share one code path.  A change that moves an output on
purpose rewrites every file with

    PYTHONPATH=src python tests/goldens.py

and explains each moved value in ``CHANGES.md``.  The perfbench output
digests are not among these files: ``tests/digests.py`` records them.

The ``random_devices`` family pins, as one digest per case, what the draw,
tie and visit order of the package decide on seeded random and built-in
devices.  Its loops and their input builders live here, and the tests that
check properties of the same outputs import them from this module.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

import cnotsynth.mapping
from conftest import random_connected_graph, random_invertible, tree_path
from cnotsynth.arch import (
    CouplingGraph,
    _flood,
    articulation_points,
    builtin,
    has_hamiltonian_path,
    induced_subgraph,
    mask_vertices,
)
from cnotsynth.circuit import random_cnot_circuit, write_qasm
from cnotsynth.cli import main as cli_main
from cnotsynth.mapping import Mapping, MappingSearch, TabuConfig, initial_mapping, optimize_mapping, tabu_search_table
from cnotsynth.steiner import min_noise_steiner_tree
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


# ---------------------------------------------------------------------------
# Random devices
# ---------------------------------------------------------------------------
# The inputs on which the tests once compared the package with copies of the
# implementations it replaced, copies that replayed its draw, tie and visit
# order: key-qubit constructions, tabu tables, Hamiltonian-path searches,
# Steiner trees and elimination, on seeded random graphs and built-in
# devices.  Each loop yields its inputs and, last, the package's output, and
# a case's value is the sha256 of the JSON of every output its loop yields.
# The property tests run the same loops and check each output against an
# oracle that no choice of order can change, so a change that moves these
# outputs on purpose re-records the digests and ports no test.

#: Built-in devices of the construction cases.
BUILTIN_DEVICES = ["quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo",
                   "linear(7)", "linear(40)", "grid(3,4)", "grid(5,5)"]


def cycle(n):
    return CouplingGraph(range(n), [(i, (i + 1) % n, 0.01) for i in range(n)])


def ladder(rungs):
    """Two paths of ``rungs`` vertices joined rung by rung: 0..k-1 and k..2k-1."""
    edges = [(i, i + 1, 0.01) for i in range(rungs - 1)]
    edges += [(rungs + i, rungs + i + 1, 0.01) for i in range(rungs - 1)]
    edges += [(i, rungs + i, 0.01) for i in range(rungs)]
    return CouplingGraph(range(2 * rungs), edges)


def cycle_with_tails(size, tails):
    """A cycle of ``size`` vertices with one pendant path per (vertex, length) in ``tails``."""
    edges = [(i, (i + 1) % size, 0.01) for i in range(size)]
    n = size
    for at, length in tails:
        for k in range(length):
            edges.append((at if k == 0 else n - 1, n, 0.01))
            n += 1
    return CouplingGraph(range(n), edges)


def residual_masks(graph, seed, count=25):
    """Random vertex subsets of ``graph`` as (induced subgraph, mask) pairs."""
    rng = random.Random(seed)
    verts = sorted(graph.vertices)
    for _ in range(count):
        keep = rng.sample(verts, rng.randint(1, len(verts)))
        yield induced_subgraph(graph, keep), sum(1 << v for v in keep)


def removal_masks(graph, seed, count):
    """Residuals of random non-cut removal sequences, as the mapping search
    makes them: connected, of every size from the whole graph down to one vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        mask = graph.vertex_mask
        for _ in range(rng.randrange(graph.num_vertices)):
            cuts = set(mask_vertices(articulation_points(graph, mask)))
            mask &= ~(1 << rng.choice([v for v in mask_vertices(mask) if v not in cuts]))
        yield mask


def search_masks(graph, seed, count=20):
    """The empty and the whole mask, ``count`` removal residuals and ``count`` random subsets."""
    return [0, graph.vertex_mask, *removal_masks(graph, seed, count), *(m for _, m in residual_masks(graph, seed, count))]


def masked_trees(g, seed, count=10):
    """Random (mask, induced subgraph, root, terminals) draws; the terminals
    lie in the root's component of the subgraph."""
    rng = random.Random(seed)
    verts = sorted(g.vertices)
    for _ in range(count):
        keep = rng.sample(verts, rng.randint(1, len(verts)))
        mask = sum(1 << v for v in keep)
        root = rng.choice(keep)
        comp = list(mask_vertices(_flood(g.neighbor_masks, 1 << root, mask)))
        yield mask, induced_subgraph(g, keep), root, rng.sample(comp, rng.randint(1, len(comp)))


def reweighted(g, errors, seed):
    """``g`` with every edge error drawn from the few values in ``errors``."""
    rng = random.Random(seed)
    return CouplingGraph(g.vertices, [(u, v, rng.choice(errors)) for u, v, _ in g.edges()])


# Ids 1, 3, 4, 6 and 8 are not vertices.
GAPPED_GRAPH = CouplingGraph(
    [0, 2, 5, 7, 9],
    [(0, 2, 0.01), (2, 5, 0.02), (5, 7, 0.01), (7, 9, 0.03), (0, 9, 0.02), (2, 7, 0.015)],
    name="gapped",
)

#: The code object of the path search's recursive step; each call is one node.
_EXTEND = next(c for c in has_hamiltonian_path.__code__.co_consts if getattr(c, "co_name", "") == "extend")


def search_nodes(g, mask):
    """``has_hamiltonian_path(g, mask)`` and the number of its backtracking nodes."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        nodes += event == "call" and frame.f_code is _EXTEND

    sys.setprofile(profile)
    try:
        path = has_hamiltonian_path(g, mask)
    finally:
        sys.setprofile(None)
    return path, nodes


def once(loop):
    """``loop`` run once per process for each argument tuple, its items kept
    as a tuple: the golden digest and the property tests read one run."""

    @functools.cache
    @functools.wraps(loop)
    def items(*args):
        return tuple(loop(*args))

    return items


@once
def constructions(device):
    """Key-qubit constructions from each key qubit in turn, on one search per
    qubit count: (graph, n, k, seed vertex, assignment).  An int ``device``
    stands for three random graphs of that many vertices."""
    if isinstance(device, int):
        graphs = [(random_connected_graph(device, 7000 + 31 * device + seed), 3) for seed in range(3)]
    else:
        graphs = [(builtin(device), 2)]
    for g, count in graphs:
        v = g.num_vertices
        keys = sorted(MappingSearch(g, 1).keys)
        for n in sorted({1, max(1, v // 2), v - 1, v}):
            search = MappingSearch(g, n)
            for k in range(count):
                first = keys[k % len(keys)]
                yield g, n, k, first, initial_mapping(search, random.Random(k), first)


@once
def tables(device, n=None):
    """Tabu tables at seeds 0-4 and three iterations: (graph, n, config,
    [(assignment, score hex), ...]).  An int ``device`` stands for two random
    graphs of that many vertices, each at three qubit counts."""
    if isinstance(device, int):
        runs = [(random_connected_graph(device, 8000 + 31 * device + seed), n)
                for seed in range(2) for n in sorted({device, device - 1, device // 2})]
    else:
        runs = [(builtin(device), n)]
    for g, n in runs:
        for seed in range(5):
            config = TabuConfig(seed=seed, iterations=3)
            yield g, n, config, [(m.assign, score.hex()) for m, score in tabu_search_table(g, n, config)]


@once
def modes(device):
    """Both construction modes, full-device and partial, on the one search of
    each qubit count, from a given seed vertex and from a drawn one: (graph, n,
    seed vertex, (from it, drawn))."""
    g = random_connected_graph(device, 9000 + device) if isinstance(device, int) else builtin(device)
    big = g.num_vertices
    for n in (big, big - 1, max(1, big // 2)):
        search = MappingSearch(g, n)
        keys = sorted(search.keys)
        for k in range(12):
            first = keys[k % len(keys)]
            yield g, n, first, (initial_mapping(search, random.Random(k), first), initial_mapping(search, random.Random(k)))


TAILED_CYCLES = [(4, [(0, 1)]), (5, [(0, 2)]), (6, [(0, 1), (3, 1)]), (6, [(0, 3), (2, 1)]),
                 (8, [(0, 2), (4, 2)]), (9, [(1, 1), (2, 1), (5, 3)]), (12, [(0, 4), (6, 4)])]


@once
def floods(family, size=None):
    """The graphs of a Hamiltonian-path search family, each with the masks
    searched on it: (graph, masks)."""
    if family == "cycle":
        g = cycle(size)
        yield g, search_masks(g, size)
    elif family == "ladders":
        for rungs in range(2, 10):
            g = ladder(rungs)
            yield g, search_masks(g, rungs)
    elif family == "tails":
        for n, tails in TAILED_CYCLES:
            g = cycle_with_tails(n, tails)
            yield g, search_masks(g, n)
    elif family == "sparse":
        for seed in range(3):
            g = random_connected_graph(size, 1200 + 10 * size + seed, extra_edges=size // 2)
            yield g, search_masks(g, seed, count=15)
    else:
        g = builtin(family)
        yield g, [g.vertex_mask, *removal_masks(g, 3, 40)]


#: Edge errors that few distinct weights make tie: equal float sums along different paths.
TIED_ERRORS = (0.007, 0.01, 0.013, 0.02, 0.03, 0.1)


@once
def trees(family, device):
    """Steiner trees of ``masked_trees`` draws: (graph, mask, root,
    terminals, [(child, parent), ...] ascending)."""
    if family == "random":
        graphs = [(random_connected_graph(device, 7000 + 37 * device + seed), seed) for seed in range(4)]
    elif family == "tied":
        graphs = [(reweighted(random_connected_graph(device, 8000 + 41 * device + seed, extra_edges=2 * device),
                              TIED_ERRORS, seed), seed) for seed in range(4)]
    elif family == "uniform":
        graphs = [(builtin(device), seed) for seed in range(4)]
    else:
        # Weight-0 edges tie labels on weight, so hops and paths decide.
        g = builtin(device)
        graphs = [(CouplingGraph(g.vertices, [(u, v, 0.0) for u, v, _ in g.edges()]), 1),
                  (reweighted(g, (0.0, 0.0, 0.01), 2), 2)]
    for g, seed in graphs:
        for mask, _, root, terms in masked_trees(g, seed, 12):
            yield g, mask, root, terms, sorted(min_noise_steiner_tree(g, root, terms, mask).parent.items())


@once
def best_paths(name):
    """The maximum-fidelity path between every ordered vertex pair: (graph, s, t, path)."""
    g = builtin(name)
    for s, t in itertools.permutations(sorted(g.vertices), 2):
        yield g, s, t, tree_path(g, s, t)


@once
def eliminations(family, device, n=None):
    """Synthesis of seeded random invertible matrices under the device's
    seed-0 mapping: (graph, mapping, matrix seed, matrix, gates)."""
    if family == "full":
        g = builtin(device)
        runs = [(g, g.num_vertices, range(9100, 9103), 1)]
    elif family == "partial":
        runs = [(builtin(device), n, range(9200, 9203), 0)]
    elif family == "random":
        runs = [(random_connected_graph(device, 9300 + device + seed), n, [9400 + seed], 0)
                for seed in range(2) for n in sorted({device, max(2, device // 2)})]
    else:
        runs = [(GAPPED_GRAPH, device, range(9500, 9506), 1)]
    for g, n, seeds, iterations in runs:
        placed = optimize_mapping(g, n, TabuConfig(iterations=iterations, seed=0))
        for seed in seeds:
            m = random_invertible(n, seed)
            yield g, placed, seed, m, synthesize(m, g, mapping=placed).gates


def search_counts(name, n, seed):
    """One default search's block decompositions, the vertices they visit,
    and its Hamiltonian-path searches."""
    module = cnotsynth.mapping
    with mock.patch.object(module, "biconnected_blocks", wraps=module.biconnected_blocks) as blocks, \
            mock.patch.object(module, "has_hamiltonian_path", wraps=module.has_hamiltonian_path) as paths:
        optimize_mapping(builtin(name), n, TabuConfig(seed=seed))
    masks = [call.args[1] if len(call.args) > 1 else call.args[0].vertex_mask for call in blocks.call_args_list]
    return {"decompositions": len(masks), "decomposed vertices": sum(mask.bit_count() for mask in masks),
            "path searches": paths.call_count}


LOOPS = {"constructions": constructions, "tables": tables, "modes": modes,
         "trees": trees, "paths": best_paths, "eliminations": eliminations}


def random_devices(kind: str, *args):
    """The sha256 of every output of one case's loop; a default search's counts as they are."""
    if kind == "search counts":
        return search_counts(*args)
    if kind == "floods":
        outputs = [search_nodes(g, mask) for g, masks in floods(*args) for mask in masks]
    else:
        outputs = [item[-1] for item in LOOPS[kind](*args)]
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


RANDOM_DEVICE_CASES = {
    # Constructions on random graphs of 2-20 vertices and on built-ins.
    **{f"constructions random {size}": ("constructions", size) for size in range(2, 21)},
    **{f"constructions {name}": ("constructions", name) for name in BUILTIN_DEVICES},
    # Tabu tables on built-ins, full and partial, and on random graphs.
    **{f"tables {name} {n}": ("tables", name, n) for name, n in [
        ("guadalupe", 16), ("guadalupe", 12), ("tokyo", 20), ("tokyo", 9), ("grid(4,4)", 16), ("grid(4,4)", 7),
        ("linear(7)", 7), ("linear(7)", 3), ("scq10", 10), ("scq10", 6)]},
    **{f"tables random {size}": ("tables", size) for size in range(4, 17, 2)},
    **{f"modes {device}": ("modes", device)
       for device in ["guadalupe", "tokyo", "grid(4,4)", "linear(7)", "scq10", *range(5, 13)]},
    # Path searches where the flood certificate often fails and the flood decides.
    **{f"floods cycle {size}": ("floods", "cycle", size) for size in range(5, 14)},
    "floods ladders": ("floods", "ladders"),
    "floods tails": ("floods", "tails"),
    **{f"floods sparse {n}": ("floods", "sparse", n) for n in range(5, 21)},
    "floods grid(4,5)": ("floods", "grid(4,5)"),
    # Steiner trees in random masks; uniform and zero errors exercise the tie-break.
    **{f"trees random {size}": ("trees", "random", size) for size in range(2, 31)},
    **{f"trees tied {size}": ("trees", "tied", size) for size in [4, 8, 12, 16, 20, 24, 30]},
    **{f"trees uniform {name}": ("trees", "uniform", name) for name in ["tokyo", "grid(4,4)", "grid(6,6)", "grid(8,8)"]},
    **{f"trees zero {name}": ("trees", "zero", name) for name in ["guadalupe", "grid(5,5)"]},
    **{f"paths {name}": ("paths", name) for name in ["quito", "guadalupe", "tokyo", "grid(4,4)"]},
    # Elimination on full and partial mappings, random graphs and ids with gaps.
    **{f"eliminations full {name}": ("eliminations", "full", name)
       for name in ["quito", "guadalupe", "tokyo", "grid(4,4)", "linear(7)"]},
    **{f"eliminations partial {name} {n}": ("eliminations", "partial", name, n) for name, n in [
        ("quito", 3), ("guadalupe", 12), ("guadalupe", 7), ("tokyo", 9), ("grid(4,4)", 10), ("linear(7)", 4),
        ("grid(8,8)", 20)]},
    **{f"eliminations random {size}": ("eliminations", "random", size) for size in range(2, 15)},
    **{f"eliminations gapped {n}": ("eliminations", "gapped", n) for n in [2, 3, 5]},
    # The default guadalupe search at seed 0: each count depends on its draws.
    "search counts guadalupe 16 0": ("search counts", "guadalupe", 16, 0),
}


FAMILIES = {
    family.name: family
    for family in (
        Family("mappings", MAPPING_CASES, mapping),
        Family("tabu_tables", TABU_CASES, tabu_table),
        Family("synthesis", SYNTHESIS_CASES, synthesis),
        Family("cli_reports", CLI_CASES, cli_report),
        Family("random_devices", RANDOM_DEVICE_CASES, random_devices),
    )
}


def main() -> None:
    """Rewrite every golden file from the current code."""
    for family in FAMILIES.values():
        family.path.write_text(dump({key: family.value(key) for key in family.cases}), encoding="utf-8")
        print(f"{family.path.name}: {len(family.cases)} cases")


if __name__ == "__main__":
    main()
