import functools
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    BLOCK_GRAPHS,
    bfs_component,
    bfs_connected,
    brute_force_articulation,
    brute_force_hamiltonian,
    random_connected_graph,
    reference_hamiltonian_path,
)
from goldens import cycle, floods, removal_masks, residual_masks, search_masks
from cnotsynth import arch, mapping
from cnotsynth.arch import (
    ArchError,
    CouplingGraph,
    articulation_points,
    biconnected_blocks,
    builtin,
    cut_vertices,
    has_hamiltonian_path,
    induced_subgraph,
    edge_weight,
    mask_vertices,
    parse_arch,
    remove_vertex,
)


def arch_text(g):
    """``g`` in the architecture file format, error rates at full precision."""
    return f"qubits {g.num_vertices}\n" + "".join(f"edge {u} {v} {e!r}\n" for u, v, e in g.edges())


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

    def test_rejects_negative_vertex_id(self):
        with pytest.raises(ArchError, match="^vertex ids must be non-negative$"):
            CouplingGraph([0, -1], [(0, -1, 0.01)])

    def test_rejects_edge_to_unknown_vertex(self):
        with pytest.raises(ArchError, match=r"^edge \(0,2\) references unknown vertex$"):
            CouplingGraph(range(2), [(0, 2, 0.01)])

    def test_error_of_a_non_edge_raises(self):
        with pytest.raises(ArchError, match=r"^\(0,2\) is not a coupling edge$"):
            builtin("quito").error(0, 2)

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
        # Named by its line, as every other bad line is.
        with pytest.raises(ArchError, match=r"^line 3: duplicate edge \(0,1\)$"):
            parse_arch("qubits 2\nedge 0 1 0.01\nedge 1 0 0.02\n")

    def test_self_loop(self):
        with pytest.raises(ArchError, match=r"^line 3: self-loop on vertex 1$"):
            parse_arch("qubits 2\nedge 0 1 0.01\nedge 1 1 0.02\n")

    def test_missing_header(self):
        with pytest.raises(ArchError, match="qubits"):
            parse_arch("edge 0 1 0.1\n")

    @pytest.mark.parametrize("text", ["", "# comments only\n\n"], ids=["empty", "comments-only"])
    def test_no_qubits_line(self, text):
        with pytest.raises(ArchError, match="^empty architecture description: missing 'qubits N' line$"):
            parse_arch(text)

    def test_disconnected_parses_without_warning(self):
        # Admission is decided by ``mapping`` alone; parsing neither rejects nor warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        with pytest.raises(ArchError, match="unknown vertex"):
            parse_arch("qubits 2\nedge 0 5 0.1\n")

    def test_bad_qubit_count(self):
        with pytest.raises(ArchError, match="qubit count"):
            parse_arch("qubits zero\n")

    def test_zero_qubits(self):
        with pytest.raises(ArchError, match="^line 1: qubit count must be >= 1$"):
            parse_arch("qubits 0\n")

    def test_non_numeric_edge_fields(self):
        with pytest.raises(ArchError, match="^" + re.escape("line 3: malformed edge fields ['1', 'two', '0.01']") + "$"):
            parse_arch("qubits 3\nedge 0 1 0.01\nedge 1 two 0.01\n")


class TestOneDeviceValidator:
    """``CouplingGraph`` is the one check of a device's vertices and edges: a
    device file's fault is the constructor's message for the same edge,
    prefixed with the line that holds it."""

    @pytest.mark.parametrize(
        "edge",
        [(1, 1, 0.01), (1, 7, 0.01), (0, 2, 1.5), (2, 1, 0.02), (1, 1, 1.5)],
        ids=["self-loop", "unknown-vertex", "error-rate", "duplicate", "self-loop-and-error-rate"],
    )
    def test_file_and_constructor_agree(self, edge):
        edges = [(0, 1, 0.01), (1, 2, 0.01), edge, (2, 3, 0.01), (3, 4, 0.01)]
        with pytest.raises(ArchError) as built:
            CouplingGraph(range(5), edges)
        text = "qubits 5\n" + "".join(f"edge {u} {v} {e}\n" for u, v, e in edges)
        with pytest.raises(ArchError) as parsed:
            parse_arch(text)
        assert str(parsed.value) == f"line 4: {built.value}"

    @pytest.mark.parametrize(
        "vertices,edges,bad",
        [
            ([0, 1, 2.0], [(0, 1, 0.01)], "2.0"),
            (range(3), [(0, 1.7, 0.01)], "1.7"),
            (range(3), [("0", 1, 0.01)], "'0'"),
            (range(3), [(0, True, 0.01)], "True"),
        ],
        ids=["float-vertex", "float-edge-end", "str-edge-end", "bool-edge-end"],
    )
    def test_non_integral_ids_are_refused(self, vertices, edges, bad):
        with pytest.raises(ArchError, match=f"^vertex id {re.escape(bad)} is not an integer$"):
            CouplingGraph(vertices, edges)

    def test_numpy_ids_build_the_same_graph(self):
        quito = builtin("quito")
        g = CouplingGraph(np.arange(5), [(np.int64(u), np.int32(v), e) for u, v, e in quito.edges()])
        assert g == quito and g.neighbor_masks == quito.neighbor_masks
        assert all(type(v) is int for v in g.vertices)
        assert all(type(u) is int and type(v) is int for u, v in g.edge_error)

    @pytest.mark.parametrize(
        "fault,message",
        [("edge 1 7 0.01", "edge (1,7) references unknown vertex"), ("edge 1 0 0.01", "duplicate edge (0,1)")],
        ids=["unknown-vertex", "duplicate"],
    )
    def test_first_bad_line_wins(self, fault, message):
        # The graph meets the edges in file order, so a fault on line 3 is
        # reported before the malformed line 5 is read.
        text = f"qubits 5\nedge 0 1 0.01\n{fault}\nedge 2 3 0.01\nedge 3 four 0.01\n"
        with pytest.raises(ArchError) as exc:
            parse_arch(text)
        assert str(exc.value) == f"line 3: {message}"


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
        assert set(mask_vertices(articulation_points(builtin("quito")))) == {1, 3}

    def test_linear4(self):
        assert set(mask_vertices(articulation_points(builtin("linear(4)")))) == {1, 2}

    def test_cycle_has_none(self):
        assert set(mask_vertices(articulation_points(cycle(4)))) == set()

    def test_disconnected_rejected(self):
        g = CouplingGraph(range(3), [(0, 1, 0.01)])
        with pytest.raises(ArchError):
            articulation_points(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_against_brute_force(self, seed):
        g = random_connected_graph(4 + seed % 9, seed)  # up to 12 vertices
        assert set(mask_vertices(articulation_points(g))) == brute_force_articulation(g)


def check_blocks(g, mask, blocks):
    """Assert that ``blocks`` are the biconnected blocks of the subgraph of
    ``g`` induced by ``mask``: each edge lies in exactly one, two share at
    most one vertex, each is an edge or has no cut point of its own, and the
    vertices in two or more are the brute-force cut points."""
    sub = induced_subgraph(g, mask_vertices(mask))
    for u, v, _ in sub.edges():
        assert sum(block >> u & block >> v & 1 for block in blocks) == 1, (u, v)
    for a, b in itertools.combinations(blocks, 2):
        assert (a & b).bit_count() <= 1
    for block in blocks:
        assert block & ~mask == 0 and block.bit_count() >= 2
        inner = induced_subgraph(g, mask_vertices(block))
        assert bfs_connected(inner) and not brute_force_articulation(inner)
    assert set(mask_vertices(cut_vertices(blocks))) == brute_force_articulation(sub)
    if mask.bit_count() > 1:
        assert functools.reduce(operator.or_, blocks) == mask


class TestBiconnectedBlocks:
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_hand_made_graphs(self, name):
        g, want = BLOCK_GRAPHS[name]
        assert sorted(biconnected_blocks(g)) == sorted(want)
        check_blocks(g, g.vertex_mask, want)

    def test_one_vertex_has_no_block(self):
        assert biconnected_blocks(CouplingGraph([3], [])) == []
        assert biconnected_blocks(builtin("quito"), 1 << 2) == [] == biconnected_blocks(builtin("quito"), 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_masks(self, seed):
        g = random_connected_graph(4 + seed % 9, seed + 500)  # up to 12 vertices
        check_blocks(g, g.vertex_mask, biconnected_blocks(g))
        for sub, mask in residual_masks(g, seed):
            if bfs_connected(sub):
                blocks = biconnected_blocks(g, mask)
                check_blocks(g, mask, blocks)
                assert articulation_points(g, mask) == cut_vertices(blocks)
            else:
                with pytest.raises(ArchError, match="connected"):
                    biconnected_blocks(g, mask)

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(3,4)", "linear(6)"])
    def test_builtin_devices(self, name):
        g = builtin(name)
        check_blocks(g, g.vertex_mask, biconnected_blocks(g))

    def test_cut_vertices(self):
        assert cut_vertices([]) == 0
        assert cut_vertices([0b011, 0b110, 0b1100]) == 0b110


class TestKeyQubits:
    """A mapping search's key qubits are the whole device's non-cut vertices."""

    def test_quito(self):
        assert mapping.MappingSearch(builtin("quito"), 1).keys == {0, 2, 4}

    def test_linear2(self):
        assert mapping.MappingSearch(builtin("linear(2)"), 1).keys == {0, 1}

    def test_star(self):
        assert mapping.MappingSearch(star(5), 1).keys == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("seed", range(8))
    def test_partition(self, seed):
        g = random_connected_graph(9, seed)
        cuts = set(mask_vertices(articulation_points(g)))
        keys = mapping.MappingSearch(g, 1).keys
        assert cuts | keys == g.vertices and not (cuts & keys)


class TestHamiltonianPath:
    def test_linear5(self):
        assert has_hamiltonian_path(builtin("linear(5)")) == (0, 1, 2, 3, 4)

    def test_quito_none(self):
        assert has_hamiltonian_path(builtin("quito")) is None

    def test_guadalupe_none(self):
        assert has_hamiltonian_path(builtin("guadalupe")) is None

    def test_guardrail(self):
        # A whole graph or a mask of 33 vertices is refused; 32 are searched.
        for graph, mask in [(builtin("linear(33)"), None), (builtin("grid(6,6)"), (1 << 33) - 1)]:
            with pytest.raises(ArchError, match=r"^Hamiltonian-path search limited to 32 vertices, got 33$"):
                has_hamiltonian_path(graph, mask)
        assert has_hamiltonian_path(builtin("linear(32)")) == tuple(range(32))

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
                assert set(mask_vertices(articulation_points(g, mask))) == brute_force_articulation(sub)
            else:
                with pytest.raises(ArchError, match="connected"):
                    articulation_points(g, mask)

    @pytest.mark.parametrize("seed", range(15))
    def test_hamiltonian_against_permutation_check(self, seed):
        g = random_connected_graph(4 + seed % 5, seed + 100)  # up to 8 vertices
        for sub, mask in residual_masks(g, seed):
            found = has_hamiltonian_path(g, mask)
            assert found == reference_hamiltonian_path(sub) == brute_force_hamiltonian(sub)
            if found is not None:
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
        assert set(mask_vertices(articulation_points(g, 0))) == set()
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

    #: Every mask query, called with ``g`` and ``mask`` in scope.
    NEGATIVE_MASK_QUERIES = {
        "is_connected": "g.is_connected(mask)",
        "biconnected_blocks": "arch.biconnected_blocks(g, mask)",
        "articulation_points": "arch.articulation_points(g, mask)",
        "has_hamiltonian_path": "arch.has_hamiltonian_path(g, mask)",
        "min_noise_steiner_tree": "steiner.min_noise_steiner_tree(g, 0, [1], mask)",
    }

    @pytest.mark.parametrize("query", sorted(NEGATIVE_MASK_QUERIES))
    def test_negative_mask_is_refused_promptly(self, query):
        # Listing a negative mask's bits for the error message never ended,
        # so each query runs in its own interpreter under a timeout.
        code = (
            "import json\n"
            "from cnotsynth import arch, steiner\n"
            "g, mask = arch.builtin('quito'), ~(1 << 3)\n"
            "try:\n"
            f"    {self.NEGATIVE_MASK_QUERIES[query]}\n"
            "except arch.ArchError as exc:\n"
            "    print(json.dumps(str(exc)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail(f"{query} given a negative mask ran past 20 s")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == "vertex mask -9 is negative"


def random_bipartite_graph(left, right, seed, extra_edges):
    """Seeded connected bipartite graph with classes of ``left`` and ``right``
    vertices, their ids shuffled together: a random spanning tree whose edges
    all cross, plus ``extra_edges`` more crossing edges."""
    rng = random.Random(seed)
    ids = list(range(left + right))
    rng.shuffle(ids)
    a, b = ids[:left], ids[left:]
    order = [a[0], b[0]] + rng.sample(a[1:] + b[1:], left + right - 2)
    side = set(a)
    edges = set()
    for k, v in enumerate(order[1:], start=1):
        u = rng.choice([w for w in order[:k] if (w in side) != (v in side)])
        edges.add((min(u, v), max(u, v)))
    crossing = [(min(u, v), max(u, v)) for u in a for v in b if (min(u, v), max(u, v)) not in edges]
    edges.update(rng.sample(crossing, min(extra_edges, len(crossing))))
    return CouplingGraph(ids, [(u, v, 0.01) for u, v in sorted(edges)])


def is_proper_colouring(g, side):
    """Whether ``side`` is a set of vertices that every edge has exactly one end in."""
    return side & ~g.vertex_mask == 0 and all((side >> u & 1) != (side >> v & 1) for u, v, _ in g.edges())


class TestBfsLayers:
    """``bfs_layers`` against a breadth-first search over vertex sets, on
    random devices and random masks, single- and multi-vertex starts."""

    @pytest.mark.parametrize("seed", range(30))
    def test_layers_are_the_distance_classes(self, seed):
        g = random_connected_graph(2 + seed % 12, 900 + seed)
        rng = random.Random(seed)
        for _ in range(10):
            inside = rng.sample(sorted(g.vertices), rng.randint(1, g.num_vertices))
            mask = sum(1 << v for v in inside)
            starts = rng.sample(inside, rng.randint(1, min(3, len(inside))))
            layers = list(arch.bfs_layers(g.neighbor_masks, sum(1 << v for v in starts), mask))
            # Distances from the starts, by a search that never leaves the mask.
            dist = dict.fromkeys(starts, 0)
            queue = deque(starts)
            while queue:
                u = queue.popleft()
                for w in g.neighbors(u):
                    if mask >> w & 1 and w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            outside = frozenset(g.vertices) - set(inside)
            reach = set().union(*(bfs_component(g, v, outside) for v in starts))
            union = functools.reduce(operator.or_, layers)
            assert all(layers) and sum(layer.bit_count() for layer in layers) == union.bit_count()
            assert set(mask_vertices(union)) == reach == set(dist)
            assert [set(mask_vertices(layer)) for layer in layers] == [
                {v for v, d in dist.items() if d == k} for k in range(len(layers))]


class TestColourClass:
    @pytest.mark.parametrize("g", [builtin("tokyo"), cycle(5), cycle(3)], ids=["tokyo", "cycle5", "cycle3"])
    def test_not_bipartite(self, g):
        assert g.colour_mask is None

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "manila", "linear(1)", "grid(4,4)", "grid(5,6)", "grid(8,8)"])
    def test_builtin_devices(self, name):
        g = builtin(name)
        assert is_proper_colouring(g, g.colour_mask)

    def test_guadalupe_classes(self):
        g = builtin("guadalupe")
        assert sorted([g.colour_mask.bit_count(), (g.vertex_mask & ~g.colour_mask).bit_count()]) == [6, 10]

    def test_disconnected(self):
        # Two paths, an even cycle and an isolated vertex.
        edges = [(0, 1, 0.01), (1, 2, 0.01), (3, 5, 0.01), (6, 7, 0.01), (7, 8, 0.01), (8, 9, 0.01), (9, 6, 0.01)]
        g = CouplingGraph(range(11), edges)
        assert is_proper_colouring(g, g.colour_mask)
        # An odd cycle in any one component makes the graph non-bipartite.
        assert CouplingGraph(range(11), edges + [(8, 10, 0.01), (9, 10, 0.01)]).colour_mask is None

    def test_ids_with_gaps(self):
        g = remove_vertex(remove_vertex(builtin("grid(4,4)"), 5), 15)
        assert is_proper_colouring(g, g.colour_mask)
        # Removing a vertex of an odd cycle leaves a path.
        h = remove_vertex(cycle(5), 2)
        assert h.vertices == {0, 1, 3, 4} and is_proper_colouring(h, h.colour_mask)

    @pytest.mark.parametrize("seed", range(20))
    def test_against_subset_enumeration(self, seed):
        g = random_connected_graph(3 + seed % 8, seed + 500, extra_edges=seed % 3)
        ends = [(1 << u, 1 << v) for u, v, _ in g.edges()]
        bipartite = any(all(bool(side & a) != bool(side & b) for a, b in ends)
                        for side in range(1 << g.num_vertices))
        assert (g.colour_mask is not None) == bipartite
        if bipartite:
            assert is_proper_colouring(g, g.colour_mask)


@pytest.fixture
def flood_calls(monkeypatch):
    """The (start, allowed) masks of every ``arch._flood`` call, in order."""
    flood, calls = arch._flood, []
    monkeypatch.setattr(arch, "_flood", lambda nbr, start, allowed: calls.append((start, allowed)) or flood(nbr, start, allowed))
    return calls


class TestParityPruning:
    """``has_hamiltonian_path`` against the reference search without the
    parity checks, on bipartite graphs, for balanced and unbalanced residuals."""

    @staticmethod
    def check(g, masks):
        surpluses = set()
        for mask in masks:
            sub = induced_subgraph(g, mask_vertices(mask))
            found = has_hamiltonian_path(g, mask)
            assert found == reference_hamiltonian_path(sub), sorted(sub.vertices)
            surpluses.add(2 * (mask & g.colour_mask).bit_count() - mask.bit_count())
        return surpluses

    @pytest.mark.parametrize("name,count", [("guadalupe", 40), ("grid(4,4)", 40), ("grid(5,6)", 12), ("linear(12)", 20)])
    @pytest.mark.parametrize("seed", range(2))
    def test_builtin_residuals(self, name, count, seed):
        g = builtin(name)
        subsets = [mask for _, mask in residual_masks(g, seed)]
        surpluses = self.check(g, [*removal_masks(g, seed, count), *subsets])
        assert {-1, 0, 1} <= surpluses  # the start filter's three cases
        assert name == "linear(12)" or any(abs(s) > 1 for s in surpluses)

    @pytest.mark.parametrize("left,right", [(6, 6), (7, 6), (6, 8), (4, 9)], ids=["equal", "one-more", "two-more", "unbalanced"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_bipartite(self, left, right, seed):
        g = random_bipartite_graph(left, right, seed, extra_edges=4 + 2 * seed)
        assert is_proper_colouring(g, g.colour_mask)
        self.check(g, [g.vertex_mask, *removal_masks(g, seed, 15), *(m for _, m in residual_masks(g, seed))])

    @pytest.mark.parametrize("g", [
        builtin("guadalupe"),  # colour classes of 10 and 6 vertices
        star(3),
        CouplingGraph(range(4), [(1, 0, 0.01), (1, 2, 0.01), (1, 3, 0.01)]),  # a star centred on vertex 1
    ], ids=["guadalupe", "star-centre-0", "star-centre-1"])
    def test_unbalanced_residual_runs_no_search(self, flood_calls, g):
        assert has_hamiltonian_path(g) is None and flood_calls == []

    def test_smaller_class_never_starts(self, flood_calls):
        # Classes {0, 2} and {1, 3, 4}; the one path is 1-0-3-2-4.
        g = CouplingGraph(range(5), [(0, 1, 0.01), (0, 3, 0.01), (2, 3, 0.01), (2, 4, 0.01)])
        assert has_hamiltonian_path(g) == (1, 0, 3, 2, 4)
        # The first start's connectivity check: vertex 1, not 0.
        assert [start for start, allowed in flood_calls if allowed == g.vertex_mask] == [1 << 1]


def caterpillar(spine, legs, seed, extra_edges=0):
    """Seeded caterpillar: a path of ``spine`` vertices with ``legs`` leaves
    hung on random spine vertices, plus ``extra_edges`` random edges."""
    rng = random.Random(seed)
    n = spine + legs
    edges = {(i, i + 1) for i in range(spine - 1)} | {(rng.randrange(spine), v) for v in range(spine, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(others, extra_edges))
    return CouplingGraph(range(n), [(u, v, 0.01) for u, v in sorted(edges)])


class TestEndpointRule:
    """``has_hamiltonian_path`` cuts a branch once two unvisited vertices have
    one neighbour left; it must still find the reference search's path."""

    @staticmethod
    def check(g, masks):
        """Assert agreement with the reference on every mask; the number of
        masks with a path, and of masks with more than two degree-1 vertices."""
        found = crowded = 0
        for mask in masks:
            path = has_hamiltonian_path(g, mask)
            assert path == reference_hamiltonian_path(induced_subgraph(g, mask_vertices(mask))), hex(mask)
            found += path is not None
            crowded += sum((g.neighbor_masks[v] & mask).bit_count() == 1 for v in mask_vertices(mask)) > 2
        return found, crowded

    @pytest.mark.parametrize("seed", range(10))
    def test_trees(self, seed):
        g = random_connected_graph(8 + seed, seed + 700, extra_edges=0)
        found, crowded = self.check(g, search_masks(g, seed))
        assert found and crowded

    @pytest.mark.parametrize("spine,legs,extra", [(6, 6, 0), (8, 8, 3), (10, 6, 5), (5, 12, 8), (12, 8, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_caterpillars(self, spine, legs, extra, seed):
        g = caterpillar(spine, legs, seed, extra)
        found, crowded = self.check(g, search_masks(g, seed))
        assert found and crowded

    @pytest.mark.parametrize("seed", range(3))
    def test_grid_removal_residuals(self, seed):
        g = builtin("grid(5,6)")
        masks = [m for m in removal_masks(g, seed + 10, 60) if m.bit_count() <= 20]
        found, _ = self.check(g, masks)
        assert len(masks) >= 20 and 0 < found < len(masks)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_random_graphs(self, n):
        for seed in range(3):
            g = random_connected_graph(n, 900 + 10 * n + seed, extra_edges=[0, 2, None][seed])
            self.check(g, search_masks(g, seed, count=10))

    def test_path_starts_at_a_degree_one_vertex(self, flood_calls):
        # The path 3-0-1-2: its degree-1 vertices 2 and 3 are the only
        # starts that leave one end, so starts 0 and 1 are cut before any flood.
        g = CouplingGraph(range(4), [(0, 3, 0.01), (0, 1, 0.01), (1, 2, 0.01)])
        assert has_hamiltonian_path(g) == (2, 1, 0, 3)
        assert [start for start, allowed in flood_calls if allowed == g.vertex_mask] == [1 << 2]

    def test_hard_grid_residual(self, flood_calls):
        # The slowest residual that the seed-0 default grid(6,6) mapping search
        # queries: 32 vertices and no path.  Without the endpoint rule the
        # search makes 291,151 floods.
        mask = 0xFD37FFFFF
        assert mask.bit_count() == 32
        assert has_hamiltonian_path(builtin("grid(6,6)"), mask) is None
        # 18,687 floods before the local connectivity certificate, 5,296 with
        # it; the bound leaves a 13% margin.
        assert len(flood_calls) <= 6_000


class TestFloodCertificate:
    """A step into head ``v`` off head ``u`` skips its flood when every other
    unvisited neighbour of ``u`` lies within two steps of ``v``.  On these
    graphs the check often fails and the flood must decide; the search must
    still find the reference paths.  The ``floods`` cases of the
    ``random_devices`` golden family pin each path and its number of
    backtracking nodes."""

    @staticmethod
    def check(flood_calls, *case):
        """Assert agreement on every mask of a ``goldens.floods`` case; the
        number of floods of a branch (not a start) that the certificate left
        to the flood."""
        fallbacks = 0
        for g, masks in floods(*case):
            for mask in masks:
                before = len(flood_calls)
                path = has_hamiltonian_path(g, mask)
                assert path == reference_hamiltonian_path(induced_subgraph(g, mask_vertices(mask))), hex(mask)
                fallbacks += sum(allowed != mask for _, allowed in flood_calls[before:])
        return fallbacks

    @pytest.mark.parametrize("size", range(5, 14))
    def test_cycles(self, flood_calls, size):
        assert self.check(flood_calls, "cycle", size)

    def test_ladders(self, flood_calls):
        assert self.check(flood_calls, "ladders")

    def test_cycles_with_tails(self, flood_calls):
        assert self.check(flood_calls, "tails")

    @pytest.mark.parametrize("n", range(5, 21))
    def test_random_sparse_graphs(self, flood_calls, n):
        assert self.check(flood_calls, "sparse", n)

    def test_grid_removal_residuals(self, flood_calls):
        assert self.check(flood_calls, "grid(4,5)")

    def test_default_guadalupe_search(self, flood_calls, monkeypatch):
        # One default full-device search floods 1,177 times without the
        # certificate, and 174 times while every stepped residual was
        # path-searched; now only the residuals with a cycle are.  The
        # count covers MappingSearch's connectivity check and the
        # objective's one flood of the full-device placement, whose
        # connectivity product every candidate shares.
        # Each residual is stepped, path-searched and decomposed into blocks
        # at most once; a step decomposes only the block that lost a vertex.
        # The golden case "search counts guadalupe 16 0" pins how many
        # decompositions the draws lead to and the vertices they visit (26
        # and 291 when recorded, where one whole lowpoint DFS per drawing step,
        # 481 of them, would visit 5,309).
        stepped, searched, decomposed = [], [], []
        step, search, blocks = mapping.MappingSearch.step, mapping.has_hamiltonian_path, mapping.biconnected_blocks
        monkeypatch.setattr(mapping.MappingSearch, "step",
                            lambda self, residual, *args: stepped.append(residual) or step(self, residual, *args))
        monkeypatch.setattr(mapping, "has_hamiltonian_path", lambda g, mask: searched.append(mask) or search(g, mask))
        monkeypatch.setattr(mapping, "biconnected_blocks",
                            lambda g, mask=None: decomposed.append(g.vertex_mask if mask is None else mask) or blocks(g, mask))
        mapping.optimize_mapping(builtin("guadalupe"), 16, mapping.TabuConfig(seed=0))
        assert len(flood_calls) == 16
        for log in (stepped, searched):
            assert log and len(log) == len(set(log))
        assert 0 < len(decomposed) <= len(stepped)
