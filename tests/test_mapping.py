import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    BLOCK_GRAPHS,
    ReferenceMappingSearch,
    enumerate_shortest_paths,
    random_connected_graph,
    reference_articulation_points,
    reference_initial_mapping,
    reference_replay_is_valid,
    reference_search_initial_mapping,
    reference_shortest_path_data,
    reference_tabu_search_table,
)
from cnotsynth import mapping
from cnotsynth.arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    articulation_points,
    biconnected_blocks,
    builtin,
    has_hamiltonian_path,
    induced_subgraph,
    key_qubits,
    mask_vertices,
    remove_vertex,
)
from cnotsynth.mapping import (
    Mapping,
    MappingSearch,
    TabuConfig,
    derive_seed,
    initial_mapping,
    mapping_objective,
    optimize_mapping,
    replay_is_valid,
    tabu_search_table,
)
from cnotsynth.mapping import _connectivity_product, _pair_factor, _shortest_path_data


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
        m = initial_mapping(MappingSearch(builtin("linear(3)"), 3), random.Random(0), 0)
        assert m.assign == (0, 1, 2)

    def test_quito_replay_valid(self):
        g = builtin("quito")
        m = initial_mapping(MappingSearch(g, 5), random.Random(123), 0)
        assert replay_is_valid(g, m)

    def test_cut_point_seed_rejected(self):
        with pytest.raises(ValueError, match="cut point"):
            initial_mapping(MappingSearch(builtin("quito"), 5), random.Random(0), 1)

    def test_deterministic_per_seed(self):
        g = builtin("guadalupe")
        for first in (0, None):
            a = initial_mapping(MappingSearch(g, 16), random.Random(9), first)
            b = initial_mapping(MappingSearch(g, 16), random.Random(9), first)
            assert a == b

    def test_truncates_when_fewer_logical_qubits(self):
        g = builtin("linear(5)")
        m = initial_mapping(MappingSearch(g, 2), random.Random(4), 0)
        assert m.n == 2 and len(set(m.assign)) == 2

    def test_requires_connected_graph(self):
        g = CouplingGraph(range(3), [(0, 1, 0.01)])
        with pytest.raises(ValueError, match="connected"):
            MappingSearch(g, 3)

    @pytest.mark.parametrize("assign", [(0,), (0, 1)])
    def test_replay_refuses_disconnected_device(self, assign):
        # The whole device is the first residual checked, also for one qubit.
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        assert not replay_is_valid(g, Mapping(assign))

    def test_rejects_bad_qubit_count(self):
        for n in (0, 6):
            with pytest.raises(ValueError, match=rf"^{n} logical qubits but device has 5 qubits$"):
                MappingSearch(builtin("quito"), n)

    @pytest.mark.parametrize("name,seed", [("quito", 3), ("guadalupe", 5), ("tokyo", 1), ("grid(3,3)", 2)])
    def test_replay_valid_across_devices(self, name, seed):
        g = builtin(name)
        search = MappingSearch(g, g.num_vertices)
        for first in (min(key_qubits(g)), None):
            m = initial_mapping(search, random.Random(seed), first)
            assert replay_is_valid(g, m)
            assert sorted(m.assign) == sorted(g.vertices)


class TestMappingType:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="injective"):
            Mapping((0, 0, 1))


class TestConnectivityFactor:
    """The connectivity product over a whole graph, against path enumeration."""

    def test_adjacent_pair_is_one(self):
        assert _connectivity_product(builtin("quito"), 0b11) == 1.0

    def test_disconnected_pair_is_zero(self):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        assert _connectivity_product(g, g.vertex_mask) == 0.0

    def test_path_of_three(self):
        # Single shortest path 0-1-2; vertex 1 carries every shortest path.
        g = builtin("linear(3)")
        assert _connectivity_product(g, g.vertex_mask) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetry(self, seed):
        # The product takes each unordered pair once, in ascending order.
        g = random_connected_graph(7, 60 + seed)
        data = _shortest_path_data(g, g.vertex_mask)
        for i, j in itertools.combinations(sorted(g.vertices), 2):
            assert _pair_factor(data, g, i, j) == _pair_factor(data, g, j, i)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_path_enumeration(self, seed):
        g = random_connected_graph(6, 260 + seed)
        want = 1.0
        for i, j in itertools.combinations(sorted(g.vertices), 2):
            want *= brute_force_connectivity_factor(g, i, j)
        assert _connectivity_product(g, g.vertex_mask) == pytest.approx(want, rel=1e-9)


class TestObjective:
    def test_single_edge_hand_value(self):
        g = CouplingGraph(range(2), [(0, 1, 0.01)])
        assert mapping_objective(MappingSearch(g, 2), Mapping((0, 1))) == pytest.approx(0.97)

    def test_zero_error_complete_graph(self):
        g = CouplingGraph(range(4), [(u, v, 0.0) for u, v in itertools.combinations(range(4), 2)])
        assert mapping_objective(MappingSearch(g, 4), Mapping((0, 1, 2, 3))) == pytest.approx(1.0)

    def test_quito_identity_against_independent_evaluator(self):
        g = builtin("quito")
        assign = (0, 1, 2, 3, 4)
        assert mapping_objective(MappingSearch(g, 5), Mapping(assign)) == pytest.approx(independent_objective(g, assign))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mappings_against_independent_evaluator(self, seed):
        g = builtin("guadalupe")
        rng = random.Random(seed)
        assign = tuple(rng.sample(sorted(g.vertices), 8))
        assert mapping_objective(MappingSearch(g, 8), Mapping(assign)) == pytest.approx(independent_objective(g, assign))

    def test_deterministic(self):
        g = builtin("quito")
        m = Mapping((0, 2, 1, 3, 4))
        assert mapping_objective(MappingSearch(g, 5), m) == mapping_objective(MappingSearch(g, 5), m)

    @pytest.mark.parametrize("assign,unknown", [
        ((0, 9), [9]), ((5, 0), [5]), ((-1, 0), [-1]), ((0, -3, 7, 1), [-3, 7]), ((2, 1), [2]),
    ])
    def test_unknown_vertices_named(self, assign, unknown):
        # Vertex 2 is removed, so its id lies inside the device's id range.
        g = remove_vertex(builtin("quito"), 2)
        with pytest.raises(ValueError, match=rf"^mapping uses unknown vertices {re.escape(str(unknown))}$"):
            mapping_objective(MappingSearch(g, len(assign)), Mapping(assign))


class TestOptimizeMapping:
    def test_zero_iterations_returns_seed(self):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=4, iterations=0, seed=11)
        got = optimize_mapping(g, 5, cfg)
        seed_map = initial_mapping(MappingSearch(g, 5), random.Random(derive_seed(11, "seed")), min(key_qubits(g)))
        assert got == seed_map

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_seed(self, seed):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=6, iterations=8, seed=seed)
        search = MappingSearch(g, 5)
        seed_map = initial_mapping(search, random.Random(derive_seed(seed, "seed")), min(key_qubits(g)))
        best = optimize_mapping(g, 5, cfg)
        assert mapping_objective(search, best) >= mapping_objective(search, seed_map)
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
        assert mapping_objective(MappingSearch(g, 16), best) == max(score for _, score in table)

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
    for n in sizes:
        search = MappingSearch(g, n)
        for k in range(constructions):
            order = keys[k % len(keys):] + keys[:k % len(keys)]
            shared = initial_mapping(search, random.Random(k), order[0])
            fresh = initial_mapping(MappingSearch(g, n), random.Random(k), order[0])
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


class TestAgainstTwoMemoReference:
    """The one step memo per search and the one re-seeded generator give the
    tables of the search with two memos and one new generator per candidate
    (``conftest.reference_tabu_search_table``)."""

    @staticmethod
    def check(g, n):
        for seed in range(5):
            config = TabuConfig(seed=seed, iterations=3)
            got = [(m.assign, s.hex()) for m, s in tabu_search_table(g, n, config)]
            assert got == [(m.assign, s.hex()) for m, s in reference_tabu_search_table(g, n, config)], seed

    @pytest.mark.parametrize("name,n", [
        ("guadalupe", 16), ("guadalupe", 12), ("tokyo", 20), ("tokyo", 9), ("grid(4,4)", 16), ("grid(4,4)", 7),
        ("linear(7)", 7), ("linear(7)", 3), ("scq10", 10), ("scq10", 6),
    ])
    def test_builtin_tables(self, name, n):
        self.check(builtin(name), n)

    @pytest.mark.parametrize("size", range(4, 17, 2))
    def test_random_graph_tables(self, size):
        for seed in range(2):
            g = random_connected_graph(size, 8000 + 31 * size + seed)
            for n in sorted({size, size - 1, size // 2}):
                self.check(g, n)

    @pytest.mark.parametrize("g", [
        builtin("guadalupe"), builtin("tokyo"), builtin("grid(4,4)"), builtin("linear(7)"), builtin("scq10"),
        *(random_connected_graph(size, 9000 + size) for size in range(5, 13)),
    ], ids=lambda g: g.name)
    def test_one_search_for_both_modes(self, g):
        # Each mode, full-device and partial, on the one search of its qubit
        # count.  Given seed vertices alternate with drawn ones; a drawn one
        # must be the randrange draw among the sorted key qubits that
        # conftest.reference_tabu_search_table makes.
        reference = ReferenceMappingSearch(g)
        big = g.num_vertices
        for n in (big, big - 1, max(1, big // 2)):
            search = MappingSearch(g, n)
            keys = sorted(search.keys)
            for k in range(12):
                first = keys[k % len(keys)]
                got = initial_mapping(search, random.Random(k), first)
                assert got == reference_search_initial_mapping(reference, n, first, random.Random(k)), (k, n)
                rng = random.Random(k)
                want = reference_search_initial_mapping(reference, n, keys[rng.randrange(len(keys))], rng)
                assert initial_mapping(search, random.Random(k)) == want, (k, n)

    def test_calls_per_candidate(self, monkeypatch):
        # The layer tracer counts these calls by name in mapping's namespace.
        calls = Counter()
        for name in ("initial_mapping", "mapping_objective"):
            fn = getattr(mapping, name)
            monkeypatch.setattr(mapping, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        config = TabuConfig(tabu_len=6, iterations=4, seed=2)
        table = tabu_search_table(builtin("guadalupe"), 16, config)
        assert calls["initial_mapping"] == 1 + config.iterations * config.tabu_len
        assert len(table) <= calls["mapping_objective"] <= calls["initial_mapping"]


class TestBlockCarriedSteps:
    """A step reached by removing a non-cut vertex carries its parent's
    blocks but the one that held the vertex, and decomposes only that one
    again.  Its blocks and choices must equal those of a whole lowpoint DFS
    of the residual."""

    @staticmethod
    def exact(g, residual, entry):
        path, choices, count, bits, blocks = entry
        assert path is None
        assert choices == tuple(mask_vertices(residual & ~articulation_points(g, residual))), hex(residual)
        assert sorted(blocks) == sorted(biconnected_blocks(g, residual)), hex(residual)
        assert (count, bits) == (len(choices), len(choices).bit_length())

    def check(self, g, seed, chains=4):
        rng = random.Random(seed)
        for n in (g.num_vertices, g.num_vertices - 1):
            search = MappingSearch(g, n)
            for _ in range(chains):
                # A random non-cut removal chain down to the last vertex, or
                # to a full-device residual with a Hamiltonian path.
                residual, blocks = g.vertex_mask, None
                while residual:
                    entry = search.step(residual, blocks)
                    if entry[0] is not None:
                        assert search.full
                        break
                    self.exact(g, residual, entry)
                    blocks = entry[4]
                    residual ^= 1 << rng.choice(entry[1])

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        for seed in range(3):
            self.check(random_connected_graph(size, 9500 + 31 * size + seed), seed)

    @pytest.mark.parametrize("name", BUILTIN_DEVICES)
    def test_builtin_devices(self, name):
        self.check(builtin(name), 1)

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_hand_made_graphs(self, name):
        self.check(BLOCK_GRAPHS[name][0], 2, chains=8)

    @pytest.mark.parametrize("name,n", [("guadalupe", 16), ("guadalupe", 12), ("tokyo", 9), ("grid(5,5)", 25)])
    def test_memo_after_search(self, name, n):
        # The entries that constructions reached through the memo, read back.
        g = builtin(name)
        search = MappingSearch(g, n)
        for k in range(40):
            initial_mapping(search, random.Random(k), sorted(search.keys)[k % len(search.keys)] if k % 2 else None)
        entries = search._steps
        assert entries
        for residual, entry in entries.items():
            if entry[0] is None:
                self.exact(g, residual, entry)


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_getrandbits_rejection_is_randrange(self, seed):
        # initial_mapping draws every vertex this way, the seed vertex of a
        # tabu candidate included, in place of rng.randrange(count); the
        # values and the generator state must agree.
        for count in range(1, 71):
            ours, theirs = random.Random(seed), random.Random(seed)
            bits = count.bit_length()
            for _ in range(25):
                r = ours.getrandbits(bits)
                while r >= count:
                    r = ours.getrandbits(bits)
                assert r == theirs.randrange(count), count
            assert ours.getstate() == theirs.getstate(), count


class TestWholeDeviceStep:
    """A tabu candidate's seed vertex is the first draw of its construction,
    among the non-cut vertices of the whole device.  For it to be the draw
    that ``randrange`` makes among the sorted key qubits, the whole device's
    drawing step must list exactly those, with their count and bit length."""

    @staticmethod
    def check(g):
        keys = tuple(sorted(key_qubits(g)))
        for n in (g.num_vertices, g.num_vertices - 1):
            search = MappingSearch(g, n)
            path, choices, count, bits, _ = search.step(g.vertex_mask)
            if path is None:
                assert (choices, count, bits) == (keys, len(keys), len(keys).bit_length()), n
            else:
                assert search.full and g.num_vertices <= HAMILTONIAN_VERTEX_LIMIT

    @pytest.mark.parametrize("name", BUILTIN_DEVICES)
    def test_builtin_devices(self, name):
        self.check(builtin(name))

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        for seed in range(3):
            self.check(random_connected_graph(size, 9700 + 31 * size + seed))


class TestFullDevicePathIgnoresSeedVertex:
    """When the whole device has a Hamiltonian path, a full-device
    construction follows it from the path's own start, vertex 0 on these
    devices, whatever its seed vertex ``first``: every tabu candidate is
    that one mapping."""

    def test_linear_from_the_far_end(self):
        g = builtin("linear(7)")
        assert initial_mapping(MappingSearch(g, 7), random.Random(0), 6).assign == tuple(range(7))

    @pytest.mark.parametrize("name", ["linear(7)", "grid(4,4)", "tokyo"])
    def test_every_candidate_is_the_path(self, name):
        g = builtin(name)
        path = has_hamiltonian_path(g)
        assert path[0] == 0
        search = MappingSearch(g, g.num_vertices)
        for k, first in enumerate([*sorted(search.keys), None]):
            assert initial_mapping(search, random.Random(k), first).assign == path
        table = tabu_search_table(g, g.num_vertices, TabuConfig(iterations=5))
        assert [m.assign for m, _ in table] == [path]


class TestShortestPathData:
    """The per-source accumulation equals the triple loop it replaced."""

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs_and_masks(self, size):
        disconnected = 0
        for seed in range(3):
            g = random_connected_graph(size, 5000 + 31 * size + seed)
            rng = random.Random(seed)
            masks = [g.vertex_mask]
            for _ in range(12):
                masks.append(sum(1 << v for v in rng.sample(sorted(g.vertices), rng.randint(1, size))))
            for mask in masks:
                sub = induced_subgraph(g, mask_vertices(mask))
                disconnected += not sub.is_connected()
                verts, pos, want_dist, want_sigma, want_through = reference_shortest_path_data(sub)
                _, dist, sigma, through = _shortest_path_data(g, mask)
                for s in verts:
                    assert [dist[s][t] for t in verts] == [want_dist[pos[s]][pos[t]] for t in verts]
                    assert [sigma[s][t] for t in verts] == [want_sigma[pos[s]][pos[t]] for t in verts]
                assert [through[v] for v in verts] == want_through
                assert not any(through[v] for v in range(len(through)) if not mask >> v & 1)
                assert _connectivity_product(g, mask) == _connectivity_product(sub, sub.vertex_mask)
        assert size < 4 or disconnected

    def test_search_product_uses_the_mapped_subgraph(self):
        g = builtin("guadalupe")
        search = MappingSearch(g, 16)
        for assign in [(0, 1, 2), (0, 2), (4, 7, 10, 12, 6), tuple(range(16))]:
            sub = induced_subgraph(g, assign)
            assert search.connectivity_product(assign) == _connectivity_product(sub, sub.vertex_mask)


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


#: ``optimize_mapping(builtin("grid(8,8)"), 64, TabuConfig(seed=0)).assign``,
#: recorded before the Hamiltonian-path search gained its parity checks: the
#: largest bipartite built-in device whose searches they cut.
GOLDEN_GRID8 = (
    0, 11, 2, 41, 21, 55, 30, 32, 52, 19, 59, 63, 51, 33, 27, 10, 18, 8, 46, 28, 57, 1,
    56, 60, 40, 35, 14, 29, 16, 54, 36, 3, 20, 47, 4, 62, 9, 48, 49, 24, 12, 13, 17, 61,
    53, 5, 58, 22, 6, 50, 7, 15, 23, 31, 39, 38, 37, 45, 44, 43, 42, 34, 26, 25,
)


class TestGoldenMappings:
    @pytest.mark.parametrize("name,n", sorted({(name, n) for name, n, _ in GOLDEN_ASSIGN}))
    def test_default_config(self, name, n):
        g = builtin(name)
        for seed in range(3):
            assert optimize_mapping(g, n, TabuConfig(seed=seed)).assign == GOLDEN_ASSIGN[(name, n, seed)]

    def test_grid8_default_config(self):
        assert optimize_mapping(builtin("grid(8,8)"), 64, TabuConfig(seed=0)).assign == GOLDEN_GRID8


#: ``tabu_search_table(builtin(name), n, TabuConfig(seed=seed))`` keyed by
#: ``"name n seed"``: each entry's assignment and ``score.hex()``, in table
#: order, recorded while the table was kept as parallel lists.
GOLDEN_TABLES = json.loads((Path(__file__).parent / "golden_tabu_tables.json").read_text(encoding="utf-8"))


#: ``tabu_search_table(builtin("grid(6,6)"), 36, TabuConfig(seed=0, iterations=5))``,
#: recorded before the Hamiltonian-path search gained its endpoint rule: each
#: construction on the full device queries residuals with up to 32 vertices.
GOLDEN_GRID6_TABLE = [
    ([0, 11, 2, 23, 13, 32, 19, 20, 31, 12, 28, 30, 9, 3, 29, 5, 1, 18, 6, 35, 4, 34, 33, 22, 24, 10, 17, 7, 25, 26, 16, 8, 14, 15, 21, 27],
     '-0x1.aa3d70a3d70a3p+2'),
    ([23, 24, 4, 7, 2, 13, 3, 26, 30, 15, 20, 14, 1, 34, 17, 0, 21, 8, 35, 6, 9, 29, 5, 11, 10, 16, 22, 28, 27, 33, 32, 31, 25, 19, 18, 12],
     '-0x1.aa3d70a3d70a3p+2'),
    ([25, 8, 4, 2, 20, 13, 21, 1, 23, 3, 29, 0, 14, 33, 15, 7, 9, 19, 10, 6, 35, 12, 18, 34, 5, 11, 17, 16, 22, 28, 27, 26, 32, 31, 30, 24],
     '-0x1.aa3d70a3d70a3p+2'),
    ([12, 9, 5, 13, 0, 1, 2, 3, 4, 10, 11, 17, 16, 15, 21, 22, 23, 29, 35, 34, 28, 27, 33, 32, 26, 25, 31, 30, 24, 18, 19, 20, 14, 8, 7, 6],
     '-0x1.aa3d70a3d70a3p+2'),
    ([35, 7, 1, 9, 22, 19, 28, 25, 11, 3, 29, 13, 27, 2, 21, 5, 8, 0, 4, 23, 34, 10, 33, 6, 12, 18, 24, 30, 31, 32, 26, 20, 14, 15, 16, 17],
     '-0x1.aa3d70a3d70a3p+2'),
    ([14, 16, 34, 8, 3, 2, 1, 0, 6, 7, 13, 12, 18, 19, 20, 26, 25, 24, 30, 31, 32, 33, 27, 21, 15, 9, 10, 4, 5, 11, 17, 23, 22, 28, 29, 35],
     '-0x1.aa3d70a3d70a3p+2'),
    ([0, 18, 3, 30, 13, 9, 28, 19, 4, 35, 29, 26, 22, 34, 20, 2, 5, 23, 12, 1, 17, 6, 24, 25, 11, 7, 8, 31, 10, 14, 16, 15, 21, 27, 33, 32],
     '-0x1.aa3d70a3d70a3p+2'),
]


class TestGoldenTabuTables:
    @pytest.mark.parametrize("key", sorted(GOLDEN_TABLES))
    def test_default_config(self, key):
        name, n, seed = key.split()
        table = tabu_search_table(builtin(name), int(n), TabuConfig(seed=int(seed)))
        assert [[list(m.assign), s.hex()] for m, s in table] == GOLDEN_TABLES[key]

    def test_grid6_five_iterations(self):
        table = tabu_search_table(builtin("grid(6,6)"), 36, TabuConfig(seed=0, iterations=5))
        assert [(list(m.assign), s.hex()) for m, s in table] == GOLDEN_GRID6_TABLE


class TestPartialPlacementScatters:
    """ROADMAP item 1 (compact placement when the circuit is smaller than the
    device), as the code stands: a partial construction draws among the
    non-cut vertices of the whole residual device, so the mapped qubits
    scatter and every default table entry has connectivity product 0.  On
    uniform-error tokyo every candidate then scores the same.  A placement
    fix changes these figures and must update this test on purpose."""

    @pytest.mark.parametrize("name,n,distinct", [("guadalupe", 12, 20), ("tokyo", 9, 1)])
    def test_seed0_default_table(self, name, n, distinct):
        g = builtin(name)
        table = tabu_search_table(g, n, TabuConfig(seed=0))
        search = MappingSearch(g, n)
        assert len(table) == 20
        assert [search.connectivity_product(m.assign) for m, _ in table] == [0.0] * 20
        assert len({s for _, s in table}) == distinct
