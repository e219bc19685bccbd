import itertools
import math
import random

import pytest

from conftest import (
    all_simple_paths,
    path_esp,
    random_connected_graph,
    reference_dijkstra_path,
    reference_min_noise_steiner_tree,
    tree_path,
)
from cnotsynth.arch import ArchError, CouplingGraph, _flood, builtin, edge_weight, induced_subgraph, mask_vertices
from cnotsynth.steiner import SteinerTree, min_noise_steiner_tree, postorder, preorder

GUADALUPE_PATH_LOW = [7, 4, 1, 2, 3, 5, 8, 9]
GUADALUPE_PATH_HIGH = [7, 10, 12, 13, 14, 11, 8, 9]


def chain(n, err=0.01):
    return CouplingGraph(range(n), [(i, i + 1, err) for i in range(n - 1)])


class TestPathFidelity:
    """A path's fidelity is the ESP of the CNOT chain along it (``conftest.path_esp``)."""

    def test_single_vertex(self):
        assert path_esp(builtin("quito"), [0]) == 1.0

    def test_empty(self):
        assert path_esp(builtin("quito"), []) == 1.0

    def test_quito_edge(self):
        assert path_esp(builtin("quito"), [0, 1]) == pytest.approx(1 - 1.631e-2)

    def test_guadalupe_ordering(self):
        g = builtin("guadalupe")
        assert path_esp(g, GUADALUPE_PATH_HIGH) > path_esp(g, GUADALUPE_PATH_LOW)


class TestBestPath:
    """The maximum-fidelity path is the one-terminal Steiner tree (``conftest.tree_path``)."""

    def test_trivial(self):
        assert tree_path(builtin("quito"), 3, 3) == [3]

    def test_guadalupe_7_to_9(self):
        assert tree_path(builtin("guadalupe"), 7, 9) == GUADALUPE_PATH_HIGH

    def test_unique_path_on_tree(self):
        assert tree_path(builtin("quito"), 0, 4) == [0, 1, 3, 4]

    def test_disconnected(self):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        with pytest.raises(ValueError, match="unreachable"):
            tree_path(g, 0, 3)

    def test_zero_error_ties_break_by_hops_then_lex(self):
        # Two equal-weight routes 0-1-3 and 0-2-3: fewer hops tie, lex picks 0-1-3.
        g = CouplingGraph(range(4), [(0, 1, 0.0), (1, 3, 0.0), (0, 2, 0.0), (2, 3, 0.0)])
        assert tree_path(g, 0, 3) == [0, 1, 3]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        g = random_connected_graph(4 + seed % 5, 500 + seed)
        verts = sorted(g.vertices)
        for s, t in itertools.combinations(verts, 2):
            got = path_esp(g, tree_path(g, s, t))
            want = max(path_esp(g, p) for p in all_simple_paths(g, s, t))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_weight_equivalence(self, seed):
        # max prod(1-e) and min sum(-ln(1-e)) pick out the same path set.
        g = random_connected_graph(6, 900 + seed)
        for s, t in [(0, 5), (1, 4)]:
            paths = list(all_simple_paths(g, s, t))
            by_fidelity = max(paths, key=lambda p: path_esp(g, p))
            weight = lambda p: sum(edge_weight(g.error(a, b)) for a, b in zip(p, p[1:]))
            by_weight = min(paths, key=weight)
            assert path_esp(g, by_fidelity) == pytest.approx(path_esp(g, by_weight), abs=1e-12)


class TestMinNoiseSteinerTree:
    def test_root_only(self):
        t = min_noise_steiner_tree(builtin("quito"), 0, {0})
        assert t.vertices == {0} and t.parent == {}

    def test_quito_steiner_points(self):
        t = min_noise_steiner_tree(builtin("quito"), 0, {2, 4})
        assert t.vertices == {0, 1, 2, 3, 4}
        assert t.vertices - t.terminals - {t.root} == {1, 3}

    def test_chain(self):
        t = min_noise_steiner_tree(builtin("linear(4)"), 0, {3})
        assert t.parent == {1: 0, 2: 1, 3: 2}

    def test_empty_terminals(self):
        with pytest.raises(ValueError, match="non-empty"):
            min_noise_steiner_tree(builtin("quito"), 0, set())

    def test_unreachable_terminal(self):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        with pytest.raises(ValueError, match="unreachable"):
            min_noise_steiner_tree(g, 0, {3})

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_on_random_graphs(self, seed):
        import random

        g = random_connected_graph(8, 40 + seed)
        rng = random.Random(seed)
        verts = sorted(g.vertices)
        root = rng.choice(verts)
        terminals = set(rng.sample(verts, rng.randrange(1, 5)))
        t = min_noise_steiner_tree(g, root, terminals)
        # spans root and terminals
        assert terminals <= t.vertices and root in t.vertices
        # every tree edge is a graph edge
        for child, parent in t.parent.items():
            assert g.has_edge(child, parent)
        # acyclic and root-reachable via parent links
        for v in t.vertices:
            seen = set()
            while v != t.root:
                assert v not in seen
                seen.add(v)
                v = t.parent[v]
        # every leaf is a terminal
        leaves = t.vertices - set(t.parent.values()) - {t.root}
        assert leaves <= terminals


def _masked_trees(g, seed, count=10):
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


class TestResidualMask:
    """A tree inside a vertex mask equals the tree on the induced subgraph."""

    @staticmethod
    def _check(g, seed):
        for mask, sub, root, terms in _masked_trees(g, seed):
            got = min_noise_steiner_tree(g, root, terms, mask)
            want = min_noise_steiner_tree(sub, root, terms)
            assert got.parent == want.parent and got.children == want.children
            assert got.vertices <= sub.vertices

    @pytest.mark.parametrize("size", range(2, 21))
    def test_random_graphs(self, size):
        for seed in range(3):
            self._check(random_connected_graph(size, 9000 + 31 * size + seed), seed)

    @pytest.mark.parametrize("name", ["guadalupe", "tokyo", "grid(4,4)", "grid(8,8)"])
    def test_uniform_and_calibrated_devices(self, name):
        # Uniform errors tie constantly, so these exercise the tie-break.
        for seed in range(3):
            self._check(builtin(name), seed)

    def test_mask_bounds_the_route(self):
        g = builtin("linear(5)")
        with pytest.raises(ValueError, match="unreachable"):
            min_noise_steiner_tree(g, 0, {4}, 0b11011)
        with pytest.raises(ValueError, match="root 2 not in graph"):
            min_noise_steiner_tree(g, 2, {4}, 0b11011)
        with pytest.raises(ValueError, match=r"terminals \[2\] not in graph"):
            min_noise_steiner_tree(g, 0, {1, 2}, 0b11011)
        with pytest.raises(ArchError, match="not in graph"):
            min_noise_steiner_tree(g, 0, {1}, 1 << 7 | 0b11)


def _reweighted(g, errors, seed):
    """``g`` with every edge error drawn from the few values in ``errors``."""
    rng = random.Random(seed)
    return CouplingGraph(g.vertices, [(u, v, rng.choice(errors)) for u, v, _ in g.edges()])


TIED_ERRORS = (0.007, 0.01, 0.013, 0.02, 0.03, 0.1)


class TestMatchesReference:
    """The one-label-table tree equals the tree of a fresh Dijkstra per
    terminal (``conftest.reference_min_noise_steiner_tree``)."""

    @staticmethod
    def _check(g, seed):
        for mask, _, root, terms in _masked_trees(g, seed, 12):
            got = min_noise_steiner_tree(g, root, terms, mask)
            want = reference_min_noise_steiner_tree(g, root, terms, mask)
            assert got.parent == want.parent and got.children == want.children

    @pytest.mark.parametrize("size", range(2, 31))
    def test_random_graphs(self, size):
        for seed in range(4):
            self._check(random_connected_graph(size, 7000 + 37 * size + seed), seed)

    @pytest.mark.parametrize("size", [4, 8, 12, 16, 20, 24, 30])
    def test_repeated_error_values(self, size):
        # Few distinct weights make equal float sums along different paths.
        for seed in range(4):
            base = random_connected_graph(size, 8000 + 41 * size + seed, extra_edges=2 * size)
            self._check(_reweighted(base, TIED_ERRORS, seed), seed)

    @pytest.mark.parametrize("name", ["tokyo", "grid(4,4)", "grid(6,6)", "grid(8,8)"])
    def test_uniform_error_devices(self, name):
        for seed in range(4):
            self._check(builtin(name), seed)

    @pytest.mark.parametrize("name", ["guadalupe", "grid(5,5)"])
    def test_zero_error_edges(self, name):
        # Weight-0 edges tie labels on weight, so hops and paths decide.
        g = builtin(name)
        self._check(CouplingGraph(g.vertices, [(u, v, 0.0) for u, v, _ in g.edges()]), 1)
        self._check(_reweighted(g, (0.0, 0.0, 0.01), 2), 2)

    def test_later_terminal_unreachable(self):
        # 1 and 2 join first; the mask cuts 5 off from the grown tree.
        g = builtin("linear(6)")
        mask = 0b110111
        for build in (min_noise_steiner_tree, reference_min_noise_steiner_tree):
            with pytest.raises(ValueError, match="unreachable"):
                build(g, 0, {1, 2, 5}, mask)

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(4,4)"])
    def test_best_path_matches_reference(self, name):
        g = builtin(name)
        for s, t in itertools.permutations(sorted(g.vertices), 2):
            assert tree_path(g, s, t) == reference_dijkstra_path(g, (s,), t, g.vertex_mask)


class TestTraversals:
    def tree(self, parent, root=0, terminals=()):
        return SteinerTree(root, parent, terminals)

    def test_single_vertex(self):
        t = self.tree({}, root=7)
        assert preorder(t) == [7] and postorder(t) == [7]

    def test_chain(self):
        t = self.tree({1: 0, 2: 1})
        assert preorder(t) == [0, 1, 2]
        assert postorder(t) == [2, 1, 0]

    def test_children_ascending(self):
        t = self.tree({2: 0, 1: 0, 3: 2})
        assert preorder(t) == [0, 1, 2, 3]
        assert postorder(t) == [1, 3, 2, 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_orders_are_permutations(self, seed):
        g = random_connected_graph(9, 700 + seed)
        t = min_noise_steiner_tree(g, min(g.vertices), set(sorted(g.vertices)[-3:]))
        pre, post = preorder(t), postorder(t)
        assert sorted(pre) == sorted(post) == sorted(t.vertices)
        # postorder: every vertex appears after all of its descendants
        pos = {v: i for i, v in enumerate(post)}
        for child, parent in t.parent.items():
            assert pos[child] < pos[parent]
        # preorder: every vertex appears after its parent
        ppos = {v: i for i, v in enumerate(pre)}
        for child, parent in t.parent.items():
            assert ppos[child] > ppos[parent]


def test_edge_weight_zero_error():
    assert edge_weight(0.0) == 0.0
    assert edge_weight(0.5) == pytest.approx(math.log(2))
