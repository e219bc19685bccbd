import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from conftest import (
    BLOCK_GRAPHS,
    brute_force_articulation,
    enumerate_shortest_paths,
    random_connected_graph,
    reference_replay_is_valid,
    reference_shortest_path_data,
)
from goldens import BUILTIN_DEVICES, constructions, modes, tables
from cnotsynth import arch, mapping
from cnotsynth.arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    articulation_points,
    biconnected_blocks,
    builtin,
    has_hamiltonian_path,
    induced_subgraph,
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
from cnotsynth.mapping import _connectivity_product, _shortest_path_data


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
        assert m == (0, 1, 2)

    def test_quito_replay_valid(self):
        g = builtin("quito")
        m = initial_mapping(MappingSearch(g, 5), random.Random(123), 0)
        assert replay_is_valid(g, Mapping(m))

    def test_cut_point_seed_rejected(self):
        with pytest.raises(ValueError, match="cut point"):
            initial_mapping(MappingSearch(builtin("quito"), 5), random.Random(0), 1)

    @pytest.mark.parametrize("name,n,first", [("guadalupe", 16, 0), ("guadalupe", 12, 0), ("grid(8,8)", 64, 63)])
    def test_numpy_seed_vertex_gives_the_int_mapping(self, name, n, first):
        # The seed vertex is read as an int: a numpy id would otherwise reach
        # the residual mask's bit operations.
        search = MappingSearch(builtin(name), n)
        got = initial_mapping(search, random.Random(1), np.int64(first))
        assert got == initial_mapping(search, random.Random(1), first)
        assert all(type(v) is int for v in got)

    def test_float_seed_vertex_refused(self):
        for seed, name in [(1.5, r"1\.5"), (True, "True")]:
            with pytest.raises(ValueError, match=rf"^seed vertex {name} is not an integer$"):
                initial_mapping(MappingSearch(builtin("guadalupe"), 16), random.Random(1), seed)

    def test_deterministic_per_seed(self):
        g = builtin("guadalupe")
        for first in (0, None):
            a = initial_mapping(MappingSearch(g, 16), random.Random(9), first)
            b = initial_mapping(MappingSearch(g, 16), random.Random(9), first)
            assert a == b

    def test_truncates_when_fewer_logical_qubits(self):
        g = builtin("linear(5)")
        m = initial_mapping(MappingSearch(g, 2), random.Random(4), 0)
        assert len(m) == 2 and len(set(m)) == 2

    def test_requires_connected_graph(self):
        g = CouplingGraph(range(3), [(0, 1, 0.01)])
        with pytest.raises(ValueError, match="connected"):
            MappingSearch(g, 3)

    @pytest.mark.parametrize("assign", [(5,), (0, 9), (-1, 0)])
    def test_replay_refuses_vertices_off_the_device(self, assign):
        assert not replay_is_valid(builtin("quito"), Mapping(assign))

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
        for first in (min(search.keys), None):
            m = initial_mapping(search, random.Random(seed), first)
            assert replay_is_valid(g, Mapping(m))
            assert sorted(m) == sorted(g.vertices)


class TestMappingType:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="injective"):
            Mapping((0, 0, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^mapping must be non-empty$"):
            Mapping(())


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
        # The product takes each unordered pair once, from its smaller id;
        # reversing the ids reads every pair from its other end.
        g = random_connected_graph(7, 60 + seed)
        top = max(g.vertices)
        rev = CouplingGraph([top - v for v in g.vertices], [(top - u, top - v, e) for u, v, e in g.edges()])
        want = _connectivity_product(g, g.vertex_mask)
        assert _connectivity_product(rev, rev.vertex_mask) == pytest.approx(want, rel=1e-12)

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
        assert mapping_objective(MappingSearch(g, 2), (0, 1)) == pytest.approx(0.97)

    def test_zero_error_complete_graph(self):
        g = CouplingGraph(range(4), [(u, v, 0.0) for u, v in itertools.combinations(range(4), 2)])
        assert mapping_objective(MappingSearch(g, 4), (0, 1, 2, 3)) == pytest.approx(1.0)

    def test_quito_identity_against_independent_evaluator(self):
        g = builtin("quito")
        assign = (0, 1, 2, 3, 4)
        assert mapping_objective(MappingSearch(g, 5), assign) == pytest.approx(independent_objective(g, assign))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mappings_against_independent_evaluator(self, seed):
        g = builtin("guadalupe")
        rng = random.Random(seed)
        assign = tuple(rng.sample(sorted(g.vertices), 8))
        assert mapping_objective(MappingSearch(g, 8), assign) == pytest.approx(independent_objective(g, assign))

    def test_deterministic(self):
        g = builtin("quito")
        m = (0, 2, 1, 3, 4)
        assert mapping_objective(MappingSearch(g, 5), m) == mapping_objective(MappingSearch(g, 5), m)

    @pytest.mark.parametrize("assign,unknown", [
        ((0, 9), [9]), ((5, 0), [5]), ((-1, 0), [-1]), ((0, -3, 7, 1), [-3, 7]), ((2, 1), [2]),
        ((0, 1, 2, 4), [2]), ((3, 4, 1, -1), [-1]), ((0, 0, 9), [9]), ((0, 0, 9, 1), [9]),
    ])
    def test_unknown_vertices_named(self, assign, unknown):
        # Vertex 2 is removed, so its id lies inside the device's id range.
        g = remove_vertex(builtin("quito"), 2)
        message = rf"^mapping uses unknown vertices {re.escape(str(unknown))}$"
        with pytest.raises(ValueError, match=message):
            mapping_objective(MappingSearch(g, len(assign)), assign)
        # With the whole-device product memoized too, each is refused: a
        # repeat before the lookup, an unknown id on the miss, since no key
        # holding one is ever stored.
        search = MappingSearch(g, g.num_vertices)
        mapping_objective(search, (0, 1, 3, 4))
        assert g.vertices in search._product
        with pytest.raises(ValueError, match=message):
            mapping_objective(search, assign)

    @pytest.mark.parametrize("assign,message", [
        ((0.0, 2), "mapping id 0.0 is not an integer"),
        ((True, 3), "mapping id True is not an integer"),
    ], ids=["float", "bool"])
    def test_non_integral_id_refused(self, assign, message):
        # Each id equals a vertex, so only the id-type test on the miss refuses it.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mapping_objective(MappingSearch(builtin("quito"), 2), assign)

    @pytest.mark.parametrize("n", [1, 5])
    def test_empty_assignment_refused(self, n):
        search = MappingSearch(builtin("quito"), n)
        with pytest.raises(ValueError, match="^mapping must be non-empty$"):
            mapping_objective(search, ())

    @pytest.mark.parametrize("name,assign", [
        ("quito", (0, 0, 1, 2, 3)),
        ("quito", (4, 1, 2, 3, 4)),
        ("quito", (1, 1)),
        ("quito", (0, 2, 3, 2)),
        ("guadalupe", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10)),
        ("guadalupe", (15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
    ])
    def test_repeated_id_refused(self, name, assign):
        g = builtin(name)
        search = MappingSearch(g, len(assign))
        with pytest.raises(ValueError, match="^mapping must be injective$"):
            mapping_objective(search, assign)
        if len(assign) == g.num_vertices:
            # Refused as well with the whole-device product memoized.
            mapping_objective(search, tuple(sorted(g.vertices)))
            with pytest.raises(ValueError, match="^mapping must be injective$"):
                mapping_objective(search, assign)


class TestOptimizeMapping:
    def test_zero_iterations_returns_seed(self):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=4, iterations=0, seed=11)
        got = optimize_mapping(g, 5, cfg)
        search = MappingSearch(g, 5)
        seed_map = initial_mapping(search, random.Random(derive_seed(11, "seed")), min(search.keys))
        assert got.assign == seed_map

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_seed(self, seed):
        g = builtin("quito")
        cfg = TabuConfig(tabu_len=6, iterations=8, seed=seed)
        search = MappingSearch(g, 5)
        seed_map = initial_mapping(search, random.Random(derive_seed(seed, "seed")), min(search.keys))
        best = optimize_mapping(g, 5, cfg)
        assert mapping_objective(search, best.assign) >= mapping_objective(search, seed_map)
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
        assert mapping_objective(MappingSearch(g, 16), best.assign) == max(score for _, score in table)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TabuConfig(tabu_len=0)
        with pytest.raises(ValueError):
            TabuConfig(iterations=-1)

    def test_numpy_seed_gives_the_int_seed_table(self):
        # derive_seed hashes repr((seed, key)), and numpy writes np.int64(1) there.
        g = builtin("guadalupe")
        config = TabuConfig(tabu_len=np.int32(20), iterations=np.int64(50), seed=np.int64(1))
        assert all(type(getattr(config, f)) is int for f in ("tabu_len", "iterations", "seed"))
        assert config == TabuConfig(seed=1)
        assert tabu_search_table(g, 12, config) == tabu_search_table(g, 12, TabuConfig(seed=1))

    def test_qubit_count_is_an_integer(self):
        with pytest.raises(ValueError) as exc:
            optimize_mapping(builtin("quito"), 2.5)
        assert str(exc.value) == "qubit count 2.5 is not an integer"
        config = TabuConfig(iterations=2)
        assert optimize_mapping(builtin("quito"), np.int64(3), config) == optimize_mapping(builtin("quito"), 3, config)

    @pytest.mark.parametrize("field", ["tabu_len", "iterations", "seed"])
    def test_non_integral_field_is_refused(self, field):
        for value in (1.5, True):
            with pytest.raises(ValueError) as exc:
                TabuConfig(**{field: value})
            assert str(exc.value) == f"{field} {value} is not an integer"


class TestAgainstRebuiltResidualReference:
    """The ``constructions`` golden cases pin these key-qubit constructions,
    which the draws decide.  Whatever the draws, each is injective, passes
    the removal replay over rebuilt residual graphs, and places every vertex
    while it is a non-cut vertex of its rebuilt residual; a fresh search
    gives the construction that the search shared by a qubit count gave.
    The key qubits are the non-cut vertices, and the replay agrees with the
    rebuilt one on arbitrary vertex orders."""

    @staticmethod
    def check(device):
        graphs, cuts = {}, {}
        for g, n, k, first, assign in constructions(device):
            graphs[g.name] = g
            assert len(set(assign)) == len(assign) == n
            assert reference_replay_is_valid(g, Mapping(assign))
            residual = g
            for v in assign:
                # Constructions from one seed vertex share their first residuals.
                if (g.name, residual.vertices) not in cuts:
                    cuts[g.name, residual.vertices] = brute_force_articulation(residual)
                assert v not in cuts[g.name, residual.vertices], (assign, v)
                residual = remove_vertex(residual, v)
            assert initial_mapping(MappingSearch(g, n), random.Random(k), first) == assign
        for g in graphs.values():
            assert sorted(MappingSearch(g, 1).keys) == sorted(g.vertices - brute_force_articulation(g))
            # Arbitrary vertex orders fail the replay check often; verdicts must agree.
            rng = random.Random(g.num_vertices)
            for _ in range(20):
                assign = Mapping(tuple(rng.sample(sorted(g.vertices), rng.randint(1, g.num_vertices))))
                assert replay_is_valid(g, assign) == reference_replay_is_valid(g, assign)

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        self.check(size)

    @pytest.mark.parametrize("name", BUILTIN_DEVICES)
    def test_builtin_devices(self, name):
        self.check(name)

    def test_replay_verdicts_on_disconnected_graphs(self):
        # MappingSearch refuses a disconnected graph, so only replay verdicts compare.
        graphs = [
            CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)]),
            CouplingGraph(range(3), [(0, 1, 0.01)]),
            induced_subgraph(builtin("quito"), {0, 2, 3, 4}),
            induced_subgraph(builtin("guadalupe"), builtin("guadalupe").vertices - {1, 12}),
        ]
        for size in (6, 9, 14):
            g = random_connected_graph(size, 7500 + size, extra_edges=0)
            graphs.append(remove_vertex(g, min(mask_vertices(articulation_points(g)))))
        assert not any(g.is_connected() for g in graphs)
        assert not reference_replay_is_valid(graphs[0], Mapping((0,)))
        for k, g in enumerate(graphs):
            rng = random.Random(k)
            for _ in range(20):
                assign = Mapping(tuple(rng.sample(sorted(g.vertices), rng.randint(1, g.num_vertices))))
                assert replay_is_valid(g, assign) == reference_replay_is_valid(g, assign)


class TestAgainstTwoMemoReference:
    """Tables and constructions once compared with those of the two-memo
    search that the step memo replaced.  The ``tables`` and ``modes`` golden
    cases now pin them, since the draws decide them.  Whatever the draws,
    each table holds at most ``tabu_len`` distinct entries, each scored as a
    fresh search scores it, and each construction, from a given seed vertex
    or a drawn one, passes the replay and starts at its seed vertex unless
    it follows the whole device's Hamiltonian path."""

    @staticmethod
    def check(*device):
        for g, n, config, table in tables(*device):
            search = MappingSearch(g, n)
            assert 0 < len(table) <= config.tabu_len
            assert len({assign for assign, _ in table}) == len(table)
            assert all(mapping_objective(search, assign).hex() == score for assign, score in table)

    @pytest.mark.parametrize("name,n", [
        ("guadalupe", 16), ("guadalupe", 12), ("tokyo", 20), ("tokyo", 9), ("grid(4,4)", 16), ("grid(4,4)", 7),
        ("linear(7)", 7), ("linear(7)", 3), ("scq10", 10), ("scq10", 6),
    ])
    def test_builtin_tables(self, name, n):
        self.check(name, n)

    @pytest.mark.parametrize("size", range(4, 17, 2))
    def test_random_graph_tables(self, size):
        self.check(size)

    @pytest.mark.parametrize("device", ["guadalupe", "tokyo", "grid(4,4)", "linear(7)", "scq10", *range(5, 13)],
                             ids=lambda d: f"rand{d}-{9000 + d}" if isinstance(d, int) else d)
    def test_one_search_for_both_modes(self, device):
        for g, n, first, (given, drawn) in modes(device):
            for assign in (given, drawn):
                assert len(set(assign)) == len(assign) == n and replay_is_valid(g, Mapping(assign))
            assert given[0] == first or n == g.num_vertices and has_hamiltonian_path(g) == given

    def test_calls_per_candidate(self, monkeypatch):
        # One construction per candidate and at most one score, through the
        # public functions, which have no private twins beside them.
        calls = Counter()
        for name in ("initial_mapping", "mapping_objective"):
            fn = getattr(mapping, name)
            monkeypatch.setattr(mapping, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        config = TabuConfig(tabu_len=6, iterations=4, seed=2)
        table = tabu_search_table(builtin("guadalupe"), 16, config)
        assert calls["initial_mapping"] == 1 + config.iterations * config.tabu_len
        assert len(table) <= calls["mapping_objective"] <= calls["initial_mapping"]
        assert not hasattr(mapping, "_assignment") and not hasattr(mapping, "_score")


class TestBlockCarriedSteps:
    """A step reached by removing a non-cut vertex carries its parent's
    blocks but the one that held the vertex, and decomposes only that one
    again.  Its blocks and choices, and those of the root step that a new
    search holds, must equal those of a whole lowpoint DFS of the
    residual."""

    @staticmethod
    def exact(g, residual, entry):
        path, choices, blocks = entry
        assert path is None
        assert choices == tuple(mask_vertices(residual & ~articulation_points(g, residual))), hex(residual)
        assert sorted(blocks) == sorted(biconnected_blocks(g, residual)), hex(residual)

    def check(self, g, seed, chains=4):
        rng = random.Random(seed)
        for n in (g.num_vertices, g.num_vertices - 1):
            search = MappingSearch(g, n)
            for _ in range(chains):
                # A random non-cut removal chain from the root step down to
                # the last vertex, or to a full-device residual with a
                # Hamiltonian path.
                residual, entry = g.vertex_mask, search._steps[g.vertex_mask]
                while True:
                    if entry[0] is not None:
                        assert search.full
                        break
                    self.exact(g, residual, entry)
                    residual ^= 1 << rng.choice(entry[1])
                    if not residual:
                        break
                    entry = search.step(residual, entry[2])

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

    def test_one_seeding_per_search(self, monkeypatch):
        # A search seeds its one generator as it makes it, and every
        # construction draws on from that stream: no candidate re-seeds it.
        seeds = []
        seed = random.Random.seed
        monkeypatch.setattr(random.Random, "seed", lambda self, *args: seeds.append(args) or seed(self, *args))
        tabu_search_table(builtin("guadalupe"), 16, TabuConfig(seed=0))
        assert seeds == [(derive_seed(0, "seed"),)]


class TestWholeDeviceStep:
    """A tabu candidate's seed vertex is the first draw of its construction,
    among the non-cut vertices of the whole device.  For it to be the draw
    that ``randrange`` makes among the sorted key qubits, the whole device's
    drawing step, which a new search already holds, must list exactly
    those."""

    @staticmethod
    def check(g):
        keys = tuple(sorted(g.vertices - brute_force_articulation(g)))
        for n in (g.num_vertices, g.num_vertices - 1):
            search = MappingSearch(g, n)
            assert tuple(sorted(search.keys)) == keys
            assert list(search._steps) == [g.vertex_mask]
            path, choices, _ = search._steps[g.vertex_mask]
            if path is None:
                assert choices == keys, n
            else:
                assert search.full and g.num_vertices <= HAMILTONIAN_VERTEX_LIMIT

    @pytest.mark.parametrize("name", BUILTIN_DEVICES)
    def test_builtin_devices(self, name):
        self.check(builtin(name))

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        for seed in range(3):
            self.check(random_connected_graph(size, 9700 + 31 * size + seed))


class TestOneWholeDecomposition:
    """One search decomposes its whole device into biconnected blocks once,
    when it is made: the key qubits and the root step both come from that
    decomposition.  Calls are counted in the ``arch`` and ``mapping``
    namespaces alike, so a decomposition through ``articulation_points``
    counts too."""

    @pytest.mark.parametrize("name,n,iterations", [
        ("guadalupe", 16, 50), ("guadalupe", 12, 50), ("grid(8,8)", 64, 0), ("tokyo", 20, 50),
    ])
    def test_default_search(self, name, n, iterations, monkeypatch):
        g = builtin(name)
        masks = []
        for module in (arch, mapping):
            monkeypatch.setattr(module, "biconnected_blocks", lambda graph, mask=None, blocks=module.biconnected_blocks:
                                masks.append(graph.vertex_mask if mask is None else mask) or blocks(graph, mask))
        tabu_search_table(g, n, TabuConfig(iterations=iterations))
        assert masks.count(g.vertex_mask) == 1


class TestFullDevicePathIgnoresSeedVertex:
    """When the whole device has a Hamiltonian path, a full-device
    construction follows it from the path's own start, vertex 0 on these
    devices, whatever its seed vertex ``first``: every tabu candidate is
    that one mapping."""

    def test_linear_from_the_far_end(self):
        g = builtin("linear(7)")
        assert initial_mapping(MappingSearch(g, 7), random.Random(0), 6) == tuple(range(7))

    @pytest.mark.parametrize("name", ["linear(7)", "grid(4,4)", "tokyo"])
    def test_every_candidate_is_the_path(self, name):
        g = builtin(name)
        path = has_hamiltonian_path(g)
        assert path[0] == 0
        search = MappingSearch(g, g.num_vertices)
        for k, first in enumerate([*sorted(search.keys), None]):
            assert initial_mapping(search, random.Random(k), first) == path
        table = tabu_search_table(g, g.num_vertices, TabuConfig(iterations=5))
        assert [m.assign for m, _ in table] == [path]


class TestPathRootShortcut:
    """When a full search's root step is a path, every construction follows
    it and gives the seed mapping, so the search returns that one-entry
    table after the seed mapping's construction: no candidate is drawn and
    the generator is seeded once, when it is made."""

    @pytest.mark.parametrize("name,n", [("tokyo", 20), ("manila", 5), ("grid(4,4)", 16)])
    def test_one_construction(self, name, n, monkeypatch):
        calls = Counter()
        construct, seed = mapping.initial_mapping, random.Random.seed
        monkeypatch.setattr(mapping, "initial_mapping", lambda *args: calls.update(["construct"]) or construct(*args))
        monkeypatch.setattr(random.Random, "seed", lambda self, *args: calls.update(["seed"]) or seed(self, *args))
        g = builtin(name)
        table = tabu_search_table(g, n, TabuConfig())
        assert calls == {"construct": 1, "seed": 1}
        path = has_hamiltonian_path(g)
        assert [(m.assign, s) for m, s in table] == [(path, mapping_objective(MappingSearch(g, n), path))]


class TestTreeRule:
    """A full search settles a residual whose blocks are all bridges (a
    tree) without a path search: a path graph is walked from its smaller
    end, and a tree with a vertex in three blocks has no path.  Either way
    the step's path must be the one ``has_hamiltonian_path`` returns."""

    @staticmethod
    def connected_masks(g, rng, count):
        """``count`` connected vertex masks, each grown from a random vertex
        by random neighbours up to a random size."""
        nbr, verts = g.neighbor_masks, sorted(g.vertices)
        for _ in range(count):
            mask = 1 << rng.choice(verts)
            for _ in range(rng.randrange(len(verts))):
                frontier = 0
                for v in mask_vertices(mask):
                    frontier |= nbr[v]
                frontier &= ~mask
                if not frontier:
                    break
                mask |= 1 << rng.choice(list(mask_vertices(frontier)))
            yield mask

    @pytest.mark.parametrize("size", range(2, 22))
    def test_bridge_only_residuals(self, size, monkeypatch):
        searched = []
        search_path = mapping.has_hamiltonian_path
        monkeypatch.setattr(mapping, "has_hamiltonian_path", lambda g, mask: searched.append(mask) or search_path(g, mask))
        found = Counter()
        for seed in range(6):
            # Random trees, and random graphs with cycles whose sampled
            # residuals are trees only now and then.
            g = random_connected_graph(size, 9900 + 31 * size + seed, extra_edges=0 if seed % 2 else None)
            search = MappingSearch(g, size)
            searched.clear()
            for mask in self.connected_masks(g, random.Random(seed), 40):
                blocks = biconnected_blocks(g, mask)
                if any(block.bit_count() > 2 for block in blocks):
                    continue
                path = search.step(mask, blocks)[0]
                assert not searched and path == has_hamiltonian_path(g, mask), hex(mask)
                found[path is not None] += 1
        assert found[True] and (size < 5 or found[False])

    @pytest.mark.parametrize("name", ["guadalupe", "quito"])
    def test_default_search_memo(self, name, monkeypatch):
        searches = []

        class Recorded(MappingSearch):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        monkeypatch.setattr(mapping, "MappingSearch", Recorded)
        g = builtin(name)
        tabu_search_table(g, g.num_vertices, TabuConfig())
        [search] = searches
        trees = 0
        for residual, (path, _, _) in search._steps.items():
            assert path == has_hamiltonian_path(g, residual), hex(residual)
            trees += all(block.bit_count() == 2 for block in biconnected_blocks(g, residual))
        assert trees

    def test_default_guadalupe_path_searches(self, monkeypatch):
        # Without the rule every stepped residual would be path-searched, 641
        # of them at seed 0, 626 of them trees; the golden case "search
        # counts guadalupe 16 0" pins how many are (15 when recorded).
        searched = []
        search = mapping.has_hamiltonian_path
        monkeypatch.setattr(mapping, "has_hamiltonian_path", lambda g, mask: searched.append(mask) or search(g, mask))
        g = builtin("guadalupe")
        tabu_search_table(g, 16, TabuConfig())
        assert searched and all(any(block.bit_count() > 2 for block in biconnected_blocks(g, mask)) for mask in searched)


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
                dist, sigma, through = _shortest_path_data(g, mask)
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
            mapping_objective(search, assign)
            assert search._product[frozenset(assign)] == _connectivity_product(sub, sub.vertex_mask)


class TestAllPairsPassOnlyWhenConnected:
    """The objective floods a placement before its all-pairs pass, so a
    disconnected placement scores 0 without one.  While the pass came first,
    these default searches ran 966, 999 and 24 passes, 952, 985 and 16 of
    them on disconnected placements."""

    @pytest.mark.parametrize("name,n,most", [("tokyo", 9, 14), ("grid(5,5)", 10, 14), ("guadalupe", 12, 8)])
    def test_default_search(self, monkeypatch, name, n, most):
        g = builtin(name)
        masks = []
        data = mapping._shortest_path_data
        monkeypatch.setattr(mapping, "_shortest_path_data", lambda graph, mask: masks.append(mask) or data(graph, mask))
        tabu_search_table(g, n, TabuConfig())
        assert 0 < len(masks) <= most
        assert all(g.is_connected(mask) for mask in masks)


class TestPartialPlacementScatters:
    """The ROADMAP item "Compact placement when the circuit is smaller than
    the device", as the code stands: a partial construction draws among the
    non-cut vertices of the whole residual device, so the mapped qubits
    scatter and nearly every default table entry has connectivity product 0.
    At seed 0 one guadalupe entry of twenty, the third, is connected, with a
    product of 1.05e-49; every tokyo entry is 0, so on uniform-error tokyo
    every candidate scores the same.  A placement fix changes these figures
    and must update this test on purpose."""

    @pytest.mark.parametrize("name,n,connected,distinct", [
        ("guadalupe", 12, {2: 1.0467038856770478e-49}, 20), ("tokyo", 9, {}, 1),
    ], ids=["guadalupe-12-20", "tokyo-9-1"])
    def test_seed0_default_table(self, name, n, connected, distinct):
        g = builtin(name)
        table = tabu_search_table(g, n, TabuConfig(seed=0))
        search = MappingSearch(g, n)
        assert len(table) == 20
        for m, _ in table:
            mapping_objective(search, m.assign)
        products = [search._product[frozenset(m.assign)] for m, _ in table]
        assert products == [connected.get(k, 0.0) for k in range(20)]
        assert len({s for _, s in table}) == distinct
