import random

import pytest

from conftest import (
    bfs_connected,
    brute_force_articulation,
    brute_force_hamiltonian,
    random_connected_graph,
    reference_hamiltonian_path,
)
from cnotsynth.arch import (
    ArchError,
    CouplingGraph,
    articulation_points,
    builtin,
    has_hamiltonian_path,
    induced_subgraph,
    key_qubits,
    edge_weight,
    mask_vertices,
    parse_arch,
    remove_vertex,
)


def arch_text(g):
    """``g`` in the architecture file format, error rates at full precision."""
    return f"qubits {g.num_vertices}\n" + "".join(f"edge {u} {v} {e!r}\n" for u, v, e in g.edges())


def cycle(n):
    return CouplingGraph(range(n), [(i, (i + 1) % n, 0.01) for i in range(n)])


def star(leaves):
    return CouplingGraph(range(leaves + 1), [(0, i, 0.01) for i in range(1, leaves + 1)])


class TestCouplingGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ArchError, match="self-loop"):
            CouplingGraph(range(2), [(0, 0, 0.1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ArchError, match="duplicate"):
            CouplingGraph(range(2), [(0, 1, 0.1), (1, 0, 0.2)])

    def test_rejects_bad_error_rate(self):
        with pytest.raises(ArchError, match="outside"):
            CouplingGraph(range(2), [(0, 1, 1.0)])

    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    def test_rejects_one_qubit_error_outside_unit_interval(self, value):
        with pytest.raises(ArchError, match=f"one-qubit error rate {value} outside"):
            CouplingGraph(range(2), [(0, 1, 0.01)], one_qubit_error=value)

    @pytest.mark.parametrize("value", [0.0, 0.0017, 1.0])
    def test_accepts_one_qubit_error_in_unit_interval(self, value):
        assert CouplingGraph(range(2), [(0, 1, 0.01)], one_qubit_error=value).one_qubit_error == value

    def test_equality_ignores_name(self):
        a = CouplingGraph(range(2), [(0, 1, 0.1)], name="a")
        b = CouplingGraph(range(2), [(0, 1, 0.1)], name="b")
        assert a == b and hash(a) == hash(b)


class TestParseWrite:
    def test_minimal(self):
        g = parse_arch("qubits 2\nedge 0 1 0.01\n")
        assert g.num_vertices == 2 and g.error(0, 1) == 0.01

    def test_quito_file_matches_builtin(self):
        text = (
            "# five qubits, T topology\n"
            "qubits 5\n"
            "edge 0 1 1.631e-2\n"
            "edge 1 2 7.768e-3\n"
            "edge 1 3 7.440e-3\n"
            "edge 3 4 8.791e-3\n"
        )
        assert parse_arch(text) == builtin("quito")

    def test_missing_error_field(self):
        with pytest.raises(ArchError, match="line 2"):
            parse_arch("qubits 2\nedge 0 1\n")

    def test_error_rate_out_of_range(self):
        with pytest.raises(ArchError, match="outside"):
            parse_arch("qubits 2\nedge 0 1 1.5\n")

    def test_duplicate_edge(self):
        with pytest.raises(ArchError, match=r"^duplicate edge \(0,1\)$"):
            parse_arch("qubits 2\nedge 0 1 0.01\nedge 1 0 0.02\n")

    def test_missing_header(self):
        with pytest.raises(ArchError, match="qubits"):
            parse_arch("edge 0 1 0.1\n")

    def test_disconnected_warns_but_parses(self):
        with pytest.warns(UserWarning, match="disconnected"):
            g = parse_arch("qubits 3\nedge 0 1 0.01\n")
        assert not g.is_connected()

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo"])
    def test_round_trip_builtins(self, name):
        g = builtin(name)
        assert parse_arch(arch_text(g)) == g

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random(self, seed):
        g = random_connected_graph(7, seed)
        assert parse_arch(arch_text(g)) == g

    def test_endpoint_outside_range(self):
        with pytest.raises(ArchError, match="outside"):
            parse_arch("qubits 2\nedge 0 5 0.1\n")

    def test_bad_qubit_count(self):
        with pytest.raises(ArchError, match="qubit count"):
            parse_arch("qubits zero\n")


class TestBuiltins:
    def test_quito_edges(self):
        g = builtin("quito")
        assert g.error(0, 1) == pytest.approx(1.631e-2)
        assert g.num_vertices == 5 and g.num_edges == 4

    def test_guadalupe_edges(self):
        g = builtin("guadalupe")
        assert g.error(12, 15) == pytest.approx(5.464e-3)
        assert g.num_vertices == 16 and g.num_edges == 16

    def test_linear(self):
        g = builtin("linear(3)")
        assert g.edges() == [(0, 1, 0.01), (1, 2, 0.01)]

    def test_grid(self):
        g = builtin("grid(2,3)")
        assert g.num_vertices == 6 and g.has_edge(0, 3) and g.has_edge(1, 2)

    def test_tokyo(self):
        g = builtin("tokyo")
        assert g.num_vertices == 20 and g.num_edges == 37
        assert g.error(0, 1) == pytest.approx(0.0313)

    def test_unknown_name(self):
        with pytest.raises(ArchError, match="unknown architecture"):
            builtin("nope")

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo"])
    def test_all_builtins_connected(self, name):
        assert builtin(name).is_connected()


class TestArticulation:
    def test_quito(self):
        assert articulation_points(builtin("quito")) == {1, 3}

    def test_linear4(self):
        assert articulation_points(builtin("linear(4)")) == {1, 2}

    def test_cycle_has_none(self):
        assert articulation_points(cycle(4)) == frozenset()

    def test_disconnected_rejected(self):
        g = CouplingGraph(range(3), [(0, 1, 0.01)])
        with pytest.raises(ArchError):
            articulation_points(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_against_brute_force(self, seed):
        g = random_connected_graph(4 + seed % 9, seed)  # up to 12 vertices
        assert articulation_points(g) == brute_force_articulation(g)


class TestKeyQubits:
    def test_quito(self):
        assert key_qubits(builtin("quito")) == {0, 2, 4}

    def test_linear2(self):
        assert key_qubits(builtin("linear(2)")) == {0, 1}

    def test_star(self):
        assert key_qubits(star(5)) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("seed", range(8))
    def test_partition(self, seed):
        g = random_connected_graph(9, seed)
        cuts = articulation_points(g)
        keys = key_qubits(g)
        assert cuts | keys == g.vertices and not (cuts & keys)


class TestHamiltonianPath:
    def test_linear5(self):
        assert has_hamiltonian_path(builtin("linear(5)")) == (0, 1, 2, 3, 4)

    def test_quito_none(self):
        assert has_hamiltonian_path(builtin("quito")) is None

    def test_guadalupe_none(self):
        assert has_hamiltonian_path(builtin("guadalupe")) is None

    def test_guardrail(self):
        with pytest.raises(ArchError, match="limited"):
            has_hamiltonian_path(builtin("linear(33)"))

    def test_single_vertex(self):
        assert has_hamiltonian_path(CouplingGraph([0], [])) == (0,)

    @pytest.mark.parametrize("seed", range(15))
    def test_against_permutation_check(self, seed):
        g = random_connected_graph(4 + seed % 5, seed + 100)  # up to 8 vertices
        found = has_hamiltonian_path(g)
        expected = brute_force_hamiltonian(g)
        if found is None:
            assert expected is None
        else:
            assert sorted(found) == sorted(g.vertices)
            assert all(g.has_edge(a, b) for a, b in zip(found, found[1:]))


class TestRemoveVertex:
    def test_linear3(self):
        g = remove_vertex(builtin("linear(3)"), 0)
        assert g.vertices == {1, 2} and g.has_edge(1, 2)

    def test_quito_remove_cut_point(self):
        g = remove_vertex(builtin("quito"), 1)
        assert g.vertices == {0, 2, 3, 4} and [(u, v) for u, v, _ in g.edges()] == [(3, 4)]

    def test_quito_remove_leaf(self):
        g = remove_vertex(builtin("quito"), 4)
        assert g.is_connected() and g.num_vertices == 4

    def test_input_unchanged(self):
        g = builtin("quito")
        remove_vertex(g, 1)
        assert g.num_vertices == 5 and g.has_edge(0, 1)

    def test_absent_vertex(self):
        with pytest.raises(ArchError, match="not in graph"):
            remove_vertex(builtin("quito"), 9)


class TestInducedSubgraph:
    def test_basic(self):
        g = induced_subgraph(builtin("quito"), [0, 1, 2])
        assert g.vertices == {0, 1, 2} and g.num_edges == 2

    def test_unknown_vertex(self):
        with pytest.raises(ArchError):
            induced_subgraph(builtin("quito"), [0, 9])


def residual_masks(graph, seed, count=25):
    """Random vertex subsets of ``graph`` as (induced subgraph, mask) pairs."""
    rng = random.Random(seed)
    verts = sorted(graph.vertices)
    for _ in range(count):
        keep = rng.sample(verts, rng.randint(1, len(verts)))
        yield induced_subgraph(graph, keep), sum(1 << v for v in keep)


class TestResidualMasks:
    def test_mask_view(self):
        g = remove_vertex(builtin("quito"), 1)
        assert g.vertex_mask == 0b11101
        assert g.neighbor_masks[3] == 0b10000 and g.neighbor_masks[1] == 0
        assert list(mask_vertices(g.vertex_mask)) == [0, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(20))
    def test_connectivity_against_bfs(self, seed):
        g = random_connected_graph(4 + seed % 9, seed)
        for sub, mask in residual_masks(g, seed):
            assert g.is_connected(mask) == bfs_connected(sub)

    @pytest.mark.parametrize("seed", range(20))
    def test_articulation_against_brute_force(self, seed):
        g = random_connected_graph(4 + seed % 9, seed)  # up to 12 vertices
        for sub, mask in residual_masks(g, seed):
            if bfs_connected(sub):
                assert articulation_points(g, mask) == brute_force_articulation(sub)
            else:
                with pytest.raises(ArchError, match="connected"):
                    articulation_points(g, mask)

    @pytest.mark.parametrize("seed", range(15))
    def test_hamiltonian_against_permutation_check(self, seed):
        g = random_connected_graph(4 + seed % 5, seed + 100)  # up to 8 vertices
        for sub, mask in residual_masks(g, seed):
            found = has_hamiltonian_path(g, mask)
            assert found == reference_hamiltonian_path(sub)
            if found is None:
                assert brute_force_hamiltonian(sub) is None
            else:
                assert sorted(found) == sorted(sub.vertices)
                assert all(g.has_edge(a, b) for a, b in zip(found, found[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_adjacency_after_removals(self, seed):
        # Edges arrive in random order; removals leave gaps in the ids and
        # may drop the highest one.
        rng = random.Random(seed)
        edges = random_connected_graph(4 + seed, seed + 300).edges()
        g = CouplingGraph(range(4 + seed), rng.sample(edges, len(edges)))
        for v in rng.sample(sorted(g.vertices), 1 + seed // 3) + [max(g.vertices)]:
            if v in g.vertices:
                g = remove_vertex(g, v)
        for v in range(-1, 4 + seed + 1):
            if v not in g.vertices:
                with pytest.raises(KeyError):
                    g.neighbors(v)
                with pytest.raises(KeyError):
                    g.degree(v)
                continue
            want = sorted({b for a, b, _ in g.edges() if a == v} | {a for a, b, _ in g.edges() if b == v})
            assert g.neighbors(v) == tuple(want)
            assert g.degree(v) == len(want)
            assert g.weight_rows[v] == tuple((w, edge_weight(g.error(v, w))) for w in want)
        assert all(not g.weight_rows[v] and not g.neighbor_masks[v]
                   for v in range(len(g.neighbor_masks)) if v not in g.vertices)

    def test_empty_mask(self):
        g = builtin("quito")
        assert articulation_points(g, 0) == frozenset()
        assert has_hamiltonian_path(g, 0) is None
        assert g.is_connected(0)

    def test_foreign_vertices_rejected(self):
        g = builtin("quito")
        with pytest.raises(ArchError, match="not in graph"):
            articulation_points(g, 1 << 7)
        with pytest.raises(ArchError, match="not in graph"):
            has_hamiltonian_path(g, 0b11 | 1 << 9)
        with pytest.raises(ArchError, match="not in graph"):
            remove_vertex(g, 2).is_connected(0b111)

    def test_guardrail_counts_mask_vertices(self):
        g = builtin("linear(40)")
        assert has_hamiltonian_path(g, (1 << 32) - 1) == tuple(range(32))
        with pytest.raises(ArchError, match="limited"):
            has_hamiltonian_path(g, (1 << 33) - 1)
