"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The soundness corpus (criteria 1 and 2) is built once and shared.
"""
import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import (
    all_simple_paths,
    inverse_aided_rows,
    matrix_bits,
    path_esp,
    physical_matrix,
    random_connected_graph,
    random_invertible,
    reference_target_aided_rows,
    target_aided_rows_bruteforce,
    tree_path,
    work_inverse,
    xor_rows,
)
from cnotsynth.arch import CouplingGraph, builtin, has_hamiltonian_path
from cnotsynth.circuit import CNOT, Circuit, monte_carlo_fidelity, random_cnot_circuit, write_qasm
from cnotsynth.cli import main
from cnotsynth.gf2 import ParityMatrix
from cnotsynth.mapping import (
    Mapping,
    MappingSearch,
    TabuConfig,
    derive_seed,
    initial_mapping,
    mapping_objective,
    optimize_mapping,
    replay_is_valid,
)
from cnotsynth.steiner import min_noise_steiner_tree
from cnotsynth.synth import (
    eliminate_column,
    eliminate_row,
    synthesize,
    verify_equivalence,
)

SOUNDNESS_ARCHS = ("quito", "guadalupe", "linear(5)", "linear(16)", "tokyo")
SOUNDNESS_SIZES = (10, 50, 100, 1000)
INSTANCES = 100


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def soundness_corpus():
    """Synthesize the full criterion-1 corpus once; criteria 1 and 2 share it.

    The mapping is computed once per architecture (it does not depend on the
    circuit), with a small tabu budget: the criteria constrain soundness and
    the gate bound, not mapping quality.
    """
    config = TabuConfig(tabu_len=6, iterations=4, seed=2024)
    t0 = time.perf_counter()
    records = []
    for name in SOUNDNESS_ARCHS:
        graph = builtin(name)
        n = graph.num_vertices
        mapping = optimize_mapping(graph, n, config)
        for size in SOUNDNESS_SIZES:
            for j in range(INSTANCES):
                seed = random.Random(derive_seed(2024, name, size, j)).randrange(2**32)
                circ = random_cnot_circuit(n, size, seed)
                m = ParityMatrix.from_circuit(circ.cnot_pairs(), n)
                res = synthesize(m, graph, config, mapping=mapping)
                records.append((name, n, size, m, res))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_soundness(soundness_corpus):
    records, elapsed = soundness_corpus
    assert len(records) == len(SOUNDNESS_ARCHS) * len(SOUNDNESS_SIZES) * INSTANCES
    failures = 0
    for name, _, _, m, res in records:
        graph = res.graph
        if not verify_equivalence(m, res):
            failures += 1
        if any(not graph.has_edge(g.control, g.target) for g in res.gates):
            failures += 1
    assert failures == 0
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s, budget is 60s"
    _report(1, f"{len(records)} syntheses verified, all gates on coupling edges, {elapsed:.1f}s")


def test_criterion_2_gate_count_bound(soundness_corpus):
    records, _ = soundness_corpus
    worst: dict[str, int] = {}
    for name, n, _, _, res in records:
        assert res.cnot_count <= 2 * n * n, f"{name}: {res.cnot_count} > {2 * n * n}"
        worst[name] = max(worst.get(name, 0), res.cnot_count)
    detail = ", ".join(f"{k} max {v} <= {2 * builtin(k).num_vertices ** 2}" for k, v in worst.items())
    _report(2, detail)


def test_criterion_3_key_qubit_facts():
    assert MappingSearch(builtin("quito"), 1).keys == {0, 2, 4}
    assert has_hamiltonian_path(builtin("quito")) is None
    assert has_hamiltonian_path(builtin("guadalupe")) is None
    _report(3, "key qubits of quito = {0,2,4}; no Hamiltonian path on quito or guadalupe")


def test_criterion_4_path_fidelity_ordering():
    g = builtin("guadalupe")
    low = [7, 4, 1, 2, 3, 5, 8, 9]
    high = [7, 10, 12, 13, 14, 11, 8, 9]
    f_low, f_high = path_esp(g, low), path_esp(g, high)
    assert f_high > f_low
    assert min_noise_steiner_tree(g, 7, (9,)).parent == dict(zip(high[1:], high))
    _report(4, f"F(high path)={f_high:.6f} > F(low path)={f_low:.6f}; the 7-9 Steiner tree is the high path")


def test_criterion_5_column_step_worked_example():
    graph = builtin("quito")
    mapping = Mapping((0, 4, 3, 1, 2))
    bits = np.eye(5, dtype=np.uint8)
    bits[2, 0] = 1
    bits[4, 0] = 1
    m = physical_matrix(ParityMatrix(bits), graph, mapping)
    ops = eliminate_column(m.rows, work_inverse(m.rows), graph, 0, graph.vertex_mask)
    assert ops == [(2, 1), (1, 2), (1, 3), (0, 1)]
    col = matrix_bits(m)[:, 0]
    assert col[0] == 1 and col.sum() == 1
    _report(5, "column pass emits CNOT(2,1), CNOT(1,2), CNOT(1,3), CNOT(0,1) and leaves a unit column")


def test_criterion_6_target_aided_rows_oracle():
    def complete(n):
        return CouplingGraph(range(n), [(u, v, 0.0) for u, v in itertools.combinations(range(n), 2)])

    t0 = time.perf_counter()
    checked = 0
    matrices = 0
    for n in range(4, 9):
        graph = complete(n)
        for k in range(40):
            matrices += 1
            m = random_invertible(n, 90_000 + 100 * n + k)
            inv = work_inverse(m.rows)
            residual = graph
            for i in range(n):
                eliminate_column(m.rows, inv, residual, i, residual.vertex_mask)
                assert inv == work_inverse(m.rows)
                bits = matrix_bits(m)
                want = bits[i].copy()
                want[i] ^= 1
                got = inverse_aided_rows(inv, i, residual.vertex_mask)
                brute = target_aided_rows_bruteforce(m, i, residual.vertex_mask)
                assert got == brute == reference_target_aided_rows(m.rows, i, residual.vertex_mask)
                assert np.array_equal(xor_rows(bits, sorted(got)), want)
                checked += 1
                eliminate_row(m.rows, inv, residual, i, residual.vertex_mask)
                from cnotsynth.arch import remove_vertex

                residual = remove_vertex(residual, i)
    elapsed = time.perf_counter() - t0
    assert matrices == 200
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s, budget is 10s"
    _report(6, f"{matrices} matrices, {checked} layers: tracked inverse and solver match subset enumeration, {elapsed:.1f}s")


def test_criterion_7_mapping_invariants():
    catalog = ("quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo")
    runs = 0
    for name in catalog:
        graph = builtin(name)
        n = graph.num_vertices
        search = MappingSearch(graph, n)
        keys = sorted(search.keys)
        for s in range(75):
            m = initial_mapping(search, random.Random(s), keys[s % len(keys)] if s % 3 else None)
            assert replay_is_valid(graph, Mapping(m))
            runs += 1
        for s in range(9):
            cfg = TabuConfig(tabu_len=4, iterations=2, seed=s)
            seed_map = initial_mapping(search, random.Random(derive_seed(s, "seed")), keys[0])
            best = optimize_mapping(graph, n, cfg)
            assert replay_is_valid(graph, best)
            assert mapping_objective(search, best.assign) >= mapping_objective(search, seed_map)
            runs += 1
    assert runs >= 500
    _report(7, f"{runs} mapping runs: removal replay stays connected, tabu never worse than its seed")


def test_criterion_8_best_path_optimality():
    pairs = 0
    for seed in range(50):
        n = 4 + seed % 5  # 4..8 vertices
        g = random_connected_graph(n, 123_000 + seed)
        for s, t in itertools.combinations(sorted(g.vertices), 2):
            got = path_esp(g, tree_path(g, s, t))
            want = max(path_esp(g, p) for p in all_simple_paths(g, s, t))
            assert abs(got - want) <= 1e-12
            pairs += 1
    _report(8, f"50 graphs, {pairs} vertex pairs: Dijkstra path matches exhaustive enumeration")


def test_criterion_9_fidelity_estimators():
    zero = CouplingGraph(range(3), [(0, 1, 0.0), (1, 2, 0.0)])
    circ = Circuit(3, (CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)))
    assert monte_carlo_fidelity(circ, zero, shots=5000, seed=0) == 1.0

    e = 0.05
    g = CouplingGraph(range(2), [(0, 1, e)])
    est = monte_carlo_fidelity(Circuit(2, (CNOT(0, 1),)), g, shots=100_000, seed=7)
    assert abs(est - 0.95) <= 0.004

    from cnotsynth.circuit import esp

    single = esp(Circuit(5, (CNOT(0, 1),)), builtin("quito"))
    assert abs(single - 0.98369) <= 1e-6
    _report(9, f"zero-noise MC = 1.0 exactly; single-gate MC = {est:.4f} in 0.95 +/- 0.004; quito ESP = {single:.5f}")


def test_criterion_10_cli_determinism(tmp_path):
    inp = tmp_path / "in.qasm"
    inp.write_text(write_qasm(random_cnot_circuit(5, 60, seed=99)), encoding="utf-8")
    fast = ["--tabu-len", "5", "--iterations", "3"]

    synth_outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.qasm"
        mp = tmp_path / f"{tag}.map.json"
        assert main(["synth", str(inp), "--arch", "quito", "--seed", "21", *fast,
                     "--out", str(out), "--map-out", str(mp)]) == 0
        synth_outputs.append(out.read_bytes() + mp.read_bytes())
    assert synth_outputs[0] == synth_outputs[1]

    arch_outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"arch-{tag}.txt"
        assert main(["arch", "guadalupe", "--out", str(out)]) == 0
        arch_outputs.append(out.read_bytes())
    assert arch_outputs[0] == arch_outputs[1]

    bench_rows = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench-{tag}.csv"
        assert main(["bench", "--arch", "quito", "--sizes", "10,50", "--instances", "2",
                     "--seed", "4", *fast, "--out", str(out)]) == 0
        # every field except the wall-clock ms column must match exactly
        bench_rows.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert bench_rows[0] == bench_rows[1]
    _report(10, "synth and arch outputs byte-identical; bench identical up to the wall-clock column")
