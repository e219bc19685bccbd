import itertools
import random
from collections import Counter

import pytest

from conftest import (
    enumerate_shortest_paths,
    random_connected_graph,
    reference_articulation_points,
    reference_initial_mapping,
    reference_replay_is_valid,
)
from cnotsynth.arch import CouplingGraph, builtin, induced_subgraph, key_qubits
from cnotsynth.mapping import (
    Mapping,
    MappingSearch,
    TabuConfig,
    connectivity_factor,
    initial_mapping,
    mapping_objective,
    optimize_mapping,
    replay_is_valid,
    substream,
    tabu_search_table,
)


def brute_force_connectivity_factor(graph, i, j):
    """Factor recomputed from an explicit enumeration of shortest paths."""
    if graph.has_edge(i, j):
        return 1.0
    paths = enumerate_shortest_paths(graph, i, j)
    if not paths:
        return 0.0
    through = {v: 0 for v in graph.vertices}
    for s, t in itertools.combinations(sorted(graph.vertices), 2):
        for p in enumerate_shortest_paths(graph, s, t):
            for v in p[1:-1]:
                through[v] += 1
    per_vertex = Counter(v for p in paths for v in p[1:-1])
    total = sum(c / through[v] for v, c in per_vertex.items())
    return min(1.0, max(0.0, total / len(paths)))


def independent_objective(graph, assign):
    """Second evaluator of the mapping score, via explicit path enumeration."""
    sub = induced_subgraph(graph, assign)
    verts = sorted(sub.vertices)
    shortest = {}
    through = {v: 0 for v in verts}
    for s, t in itertools.combinations(verts, 2):
        paths = enumerate_shortest_paths(sub, s, t)
        shortest[(s, t)] = paths
        for p in paths:
            for v in p[1:-1]:
                through[v] += 1
    prod = 1.0
    for s, t in itertools.combinations(verts, 2):
        if sub.has_edge(s, t):
            continue  # factor 1
        paths = shortest[(s, t)]
        if not paths:
            prod = 0.0
            break
        per_vertex = Counter(v for p in paths for v in p[1:-1])
        total = sum(c / through[v] for v, c in per_vertex.items())
        prod *= min(1.0, max(0.0, total / len(paths)))
    cost = 0.0
    for m, v in enumerate(assign):
        nbrs = graph.neighbors(v)
        if nbrs:
            cost += (m + 1) * sum(graph.error(v, w) for w in nbrs) / len(nbrs)
    return prod - cost


class TestInitialMapping:
    def test_linear3_follows_hamiltonian_path(self):
        m = initial_mapping(builtin("linear(3)"), 3, [0], rng=0)
        assert m.assign == (0, 1, 2)

    def test_quito_replay_valid(self):
        g = builtin("quito")
        m = initial_mapping(g, 5, [0], rng=123)
        assert replay_is_valid(g, m)

    def test_cut_point_seed_rejected(self):
        with pytest.raises(ValueError, match="cut points"):
            initial_mapping(builtin("quito"), 5, [1], rng=0)

    def test_deterministic_per_seed(self):
        g = builtin("guadalupe")
        a = initial_mapping(g, 16, [0], rng=9)
        b = initial_mapping(g, 16, [0], rng=9)
        assert a == b

    def test_truncates_when_fewer_logical_qubits(self):
        g = builtin("linear(5)")
        m = initial_mapping(g, 2, [0], rng=4)
        assert m.n == 2 and len(set(m.assign)) == 2

    def test_requires_connected_graph(self):
        g = CouplingGraph(range(3), [(0, 1, 0.01)])
        with pytest.raises(ValueError, match="connected"):
            initial_mapping(g, 2, [0], rng=0)

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError, match="outside"):
            initial_mapping(builtin("quito"), 6, [0], rng=0)

    def test_rejects_empty_key_order(self):
        with pytest.raises(ValueError, match="non-empty"):
            initial_mapping(builtin("quito"), 5, [], rng=0)

    @pytest.mark.parametrize("name,seed", [("quito", 3), ("guadalupe", 5), ("tokyo", 1), ("grid(3,3)", 2)])
    def test_replay_valid_across_devices(self, name, seed):
        g = builtin(name)
        m = initial_mapping(g, g.num_vertices, sorted(key_qubits(g)), rng=seed)
        assert replay_is_valid(g, m)
        assert sorted(m.assign) == sorted(g.vertices)


class TestMappingType:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="injective"):
            Mapping((0, 0, 1))

    def test_inverse(self):
        m = Mapping((4, 2, 0))
        assert m.inverse() == {4: 0, 2: 1, 0: 2}


class TestConnectivityFactor:
    def test_adjacent_pair_is_one(self):
        assert connectivity_factor(builtin("quito"), 0, 1) == 1.0

    def test_disconnected_pair_is_zero(self):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        assert connectivity_factor(g, 0, 3) == 0.0

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            connectivity_factor(builtin("quito"), 2, 2)

    def test_path_of_three(self):
        # Single shortest path 0-1-2; vertex 1 carries every shortest path.
        g = builtin("linear(3)")
        assert connectivity_factor(g, 0, 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry(self, seed):
        g = random_connected_graph(7, 60 + seed)
        for i, j in itertools.combinations(sorted(g.vertices), 2):
            assert connectivity_factor(g, i, j) == connectivity_factor(g, j, i)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_path_enumeration(self, seed):
        g = random_connected_graph(6, 260 + seed)
        for i, j in itertools.combinations(sorted(g.vertices), 2):
            got = connectivity_factor(g, i, j)
            want = brute_force_connectivity_factor(g, i, j)
            assert got == pytest.approx(want, abs=1e-12)


class TestObjective:
    def test_single_edge_hand_value(self):
        g = CouplingGraph(range(2), [(0, 1, 0.01)])
        assert mapping_objective(g, Mapping((0, 1))) == pytest.approx(0.97)

    def test_zero_error_complete_graph(self):
        g = CouplingGraph(range(4), [(u, v, 0.0) for u, v in itertools.combinations(range(4), 2)])
        assert mapping_objective(g, Mapping((0, 1, 2, 3))) == pytest.approx(1.0)

    def test_quito_identity_against_independent_evaluator(self):
        g = builtin("quito")
        assign = (0, 1, 2, 3, 4)
        assert mapping_objective(g, Mapping(assign)) == pytest.approx(independent_objective(g, assign))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mappings_against_independent_evaluator(self, seed):
        g = builtin("guadalupe")
        rng = random.Random(seed)
        assign = tuple(rng.sample(sorted(g.vertices), 8))
        assert mapping_objective(g, Mapping(assign)) == pytest.approx(independent_objective(g, assign))

    def test_deterministic(self):
        g = builtin("quito")
        m = Mapping((0, 2, 1, 3, 4))
        assert mapping_objective(g, m) == mapping_objective(g, m)


class TestOptimizeMapping:
    def test_zero_iterations_returns_seed(self):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=4, iterations=0, seed=11)
        got = optimize_mapping(g, 5, cfg)
        seed_map = initial_mapping(g, 5, sorted(key_qubits(g)), substream(11, "seed"))
        assert got == seed_map

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_seed(self, seed):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=6, iterations=8, seed=seed)
        seed_map = initial_mapping(g, 5, sorted(key_qubits(g)), substream(seed, "seed"))
        best = optimize_mapping(g, 5, cfg)
        assert mapping_objective(g, best) >= mapping_objective(g, seed_map)
        assert replay_is_valid(g, best)

    def test_deterministic(self):
        g = builtin("guadalupe")
        cfg = TabuConfig(tabu_len=5, iterations=4, seed=3)
        assert optimize_mapping(g, 16, cfg) == optimize_mapping(g, 16, cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_result_is_table_maximum(self, seed):
        g = builtin("guadalupe")
        cfg = TabuConfig(tabu_len=5, iterations=3, seed=seed)
        table = tabu_search_table(g, 16, cfg)
        best = optimize_mapping(g, 16, cfg)
        assert len(table) <= cfg.tabu_len
        assert any(best == m for m, _ in table)
        assert mapping_objective(g, best) == max(score for _, score in table)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TabuConfig(tabu_len=0)
        with pytest.raises(ValueError):
            TabuConfig(iterations=-1)


BUILTIN_DEVICES = ["quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo",
                   "linear(7)", "linear(40)", "grid(3,4)", "grid(5,5)"]


def _check_against_reference(g, sizes, constructions):
    keys = sorted(key_qubits(g))
    assert keys == sorted(g.vertices - reference_articulation_points(g))
    search = MappingSearch(g)
    for n in sizes:
        for k in range(constructions):
            order = keys[k % len(keys):] + keys[:k % len(keys)]
            shared = initial_mapping(g, n, order, random.Random(k), search)
            fresh = initial_mapping(g, n, order, random.Random(k))
            want = reference_initial_mapping(g, n, order, random.Random(k))
            assert shared == fresh == want
            assert replay_is_valid(g, shared) and reference_replay_is_valid(g, shared)
    # Arbitrary vertex orders fail the replay check often; verdicts must agree.
    rng = random.Random(g.num_vertices)
    for _ in range(20):
        assign = tuple(rng.sample(sorted(g.vertices), rng.randint(1, g.num_vertices)))
        assert replay_is_valid(g, Mapping(assign)) == reference_replay_is_valid(g, Mapping(assign))


class TestAgainstRebuiltResidualReference:
    """The mask-based construction equals the one that rebuilds residual graphs."""

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        for seed in range(3):
            g = random_connected_graph(size, 7000 + 31 * size + seed)
            _check_against_reference(g, sorted({1, max(1, size // 2), size - 1, size}), 3)

    @pytest.mark.parametrize("name", BUILTIN_DEVICES)
    def test_builtin_devices(self, name):
        g = builtin(name)
        v = g.num_vertices
        _check_against_reference(g, sorted({1, v // 2, v - 1, v}), 2)

    def test_search_state_is_bound_to_its_graph(self):
        search = MappingSearch(builtin("quito"))
        with pytest.raises(ValueError, match="different graph"):
            initial_mapping(builtin("quito"), 5, [0], 0, search)


#: ``optimize_mapping(builtin(name), n, TabuConfig(seed=seed)).assign``,
#: recorded before the search moved to vertex bitmasks.
GOLDEN_ASSIGN = {
    ('quito', 5, 0): (0, 2, 1, 3, 4),
    ('quito', 5, 1): (0, 2, 1, 3, 4),
    ('quito', 5, 2): (0, 2, 1, 3, 4),
    ('guadalupe', 12, 0): (2, 3, 5, 0, 15, 9, 8, 6, 11, 14, 13, 12),
    ('guadalupe', 12, 1): (2, 3, 5, 0, 1, 9, 8, 11, 14, 6, 15, 13),
    ('guadalupe', 12, 2): (3, 0, 5, 9, 2, 8, 15, 6, 11, 14, 13, 12),
    ('guadalupe', 16, 0): (4, 6, 7, 10, 9, 0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 15),
    ('guadalupe', 16, 1): (4, 6, 7, 10, 0, 1, 9, 2, 3, 5, 8, 11, 14, 13, 12, 15),
    ('guadalupe', 16, 2): (4, 6, 7, 9, 10, 0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 15),
    ('tokyo', 20, 0): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 15, 16, 17, 11, 12, 13, 18, 14, 19),
    ('tokyo', 20, 1): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 15, 16, 17, 11, 12, 13, 18, 14, 19),
    ('tokyo', 20, 2): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 15, 16, 17, 11, 12, 13, 18, 14, 19),
    ('grid(5,5)', 25, 0): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11, 12, 13, 14, 19, 18, 17, 16, 15, 20, 21, 22, 23, 24),
    ('grid(5,5)', 25, 1): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11, 12, 13, 14, 19, 18, 17, 16, 15, 20, 21, 22, 23, 24),
    ('grid(5,5)', 25, 2): (0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 10, 11, 12, 13, 14, 19, 18, 17, 16, 15, 20, 21, 22, 23, 24),
    ('linear(40)', 40, 0): (39, 0, 1, 38, 37, 2, 36, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
    ('linear(40)', 40, 1): (39, 0, 38, 37, 36, 1, 2, 35, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34),
    ('linear(40)', 40, 2): (0, 1, 39, 38, 2, 37, 3, 36, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
}


class TestGoldenMappings:
    @pytest.mark.parametrize("name,n", sorted({(name, n) for name, n, _ in GOLDEN_ASSIGN}))
    def test_default_config(self, name, n):
        g = builtin(name)
        for seed in range(3):
            assert optimize_mapping(g, n, TabuConfig(seed=seed)).assign == GOLDEN_ASSIGN[(name, n, seed)]
