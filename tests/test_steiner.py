import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from conftest import (
    all_simple_paths,
    path_esp,
    random_connected_graph,
    tree_path,
)
from goldens import best_paths, masked_trees, trees
from cnotsynth.arch import ArchError, CouplingGraph, builtin, edge_weight
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

    @pytest.mark.parametrize("seed", range(6))
    def test_terminal_container_does_not_matter(self, seed):
        # Terminals are joined in ascending id order whatever iterable holds them.
        rng = random.Random(seed)
        g = builtin("guadalupe")
        root, *terms = rng.sample(sorted(g.vertices), rng.randint(3, 8))
        trees = [
            min_noise_steiner_tree(g, root, given)
            for given in (terms, terms[::-1], set(terms), (t for t in terms), np.array(terms))
        ]
        assert all(t.parent == trees[0].parent and t.terminals == set(terms) for t in trees)

    @pytest.mark.parametrize("name", ["quito", "grid(8,8)"])
    def test_numpy_root_gives_the_int_root_tree(self, name):
        g = builtin(name)
        top = max(g.vertices)
        want = min_noise_steiner_tree(g, top, {0, top // 2})
        got = min_noise_steiner_tree(g, np.int64(top), {0, top // 2})
        assert got.parent == want.parent and got.root == want.root
        assert all(type(v) is int for edge in got.parent.items() for v in edge)
        assert type(got.root) is int

    @pytest.mark.parametrize("root,terminals,message", [
        (1.7, [3], "root 1.7 is not an integer"),
        (1, [3.9], "terminal 3.9 is not an integer"),
        (1, [0, "3"], "terminal '3' is not an integer"),
        (True, [3], "root True is not an integer"),
        (0, [True], "terminal True is not an integer"),
    ], ids=["float-root", "float-terminal", "str-terminal", "bool-root", "bool-terminal"])
    def test_non_integral_ids_are_refused(self, root, terminals, message):
        with pytest.raises(ValueError) as exc:
            min_noise_steiner_tree(builtin("quito"), root, terminals)
        assert str(exc.value) == message

    @pytest.mark.parametrize("root,terminals,message", [
        (-1, [3], "root -1 not in graph"),
        (np.int64(-1), [3], "root -1 not in graph"),
        (1, [-2], "terminals [-2] not in graph"),
        (1, [0, np.int64(-2), 3], "terminals [-2] not in graph"),
        (1, [4, 2, -3, -1], "terminals [-3] not in graph"),
    ], ids=["root", "numpy-root", "terminal", "numpy-terminal", "first-negative-terminal"])
    def test_negative_ids_are_not_in_graph(self, root, terminals, message):
        # A negative id once reached a shift and raised "negative shift count".
        with pytest.raises(ValueError) as exc:
            min_noise_steiner_tree(builtin("quito"), root, terminals)
        assert str(exc.value) == message

    def test_iterable_error_goes_on(self):
        def terminals():
            yield 3
            raise ValueError("from the iterable")

        with pytest.raises(ValueError, match="^from the iterable$"):
            min_noise_steiner_tree(builtin("quito"), 1, terminals())

    def test_terminals_outside_mask_named_in_ascending_order(self):
        with pytest.raises(ValueError, match=r"^terminals \[3, 4\] not in graph$"):
            min_noise_steiner_tree(builtin("quito"), 0, [4, 1, 3], 0b00111)

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
        check_tree(g, g.vertex_mask, root, terminals, t.parent)


def check_tree(g, mask, root, terminals, parent):
    """Assert that the links ``parent`` (child to parent) form a tree of
    ``g`` inside ``mask`` that holds ``root`` and spans ``terminals`` along
    graph edges, every vertex reaching the root and every leaf a terminal."""
    vertices = {root, *parent}
    assert root not in parent and all(mask >> v & 1 for v in vertices)
    assert set(terminals) <= vertices
    assert all(g.has_edge(child, up) for child, up in parent.items())
    assert vertices - set(parent.values()) - {root} <= set(terminals)
    for v in parent:
        seen = {v}
        while v != root:
            v = parent[v]
            assert v not in seen
            seen.add(v)


class TestResidualMask:
    """A tree inside a vertex mask equals the tree on the induced subgraph."""

    @staticmethod
    def _check(g, seed):
        for mask, sub, root, terms in masked_trees(g, seed):
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


class TestMatchesReference:
    """Trees and paths once compared with those of a fresh Dijkstra per
    terminal, the tree that the one-label-table tree replaced.  The
    ``trees`` and ``paths`` golden cases now pin them, since the join and
    tie order decide them.  Whatever that order, each tree lies in its
    mask, holds its root, spans its terminals along graph edges, and has
    only terminals as leaves; and a best path is the least of its
    alternatives by weight summed from the source, then hops, then vertex
    sequence."""

    @staticmethod
    def check(*case):
        for g, mask, root, terms, links in trees(*case):
            check_tree(g, mask, root, terms, dict(links))

    @pytest.mark.parametrize("size", range(2, 31))
    def test_random_graphs(self, size):
        self.check("random", size)

    @pytest.mark.parametrize("size", [4, 8, 12, 16, 20, 24, 30])
    def test_repeated_error_values(self, size):
        self.check("tied", size)

    @pytest.mark.parametrize("name", ["tokyo", "grid(4,4)", "grid(6,6)", "grid(8,8)"])
    def test_uniform_error_devices(self, name):
        self.check("uniform", name)

    @pytest.mark.parametrize("name", ["guadalupe", "grid(5,5)"])
    def test_zero_error_edges(self, name):
        self.check("zero", name)

    def test_later_terminal_unreachable(self):
        # 1 and 2 join first; the mask cuts 5 off from the grown tree.
        with pytest.raises(ValueError, match="unreachable"):
            min_noise_steiner_tree(builtin("linear(6)"), 0, {1, 2, 5}, 0b110111)

    @staticmethod
    def label(g, path):
        """A path's weight summed from its source, its hops and its vertices."""
        weight = 0.0
        for a, b in zip(path, path[1:]):
            weight += edge_weight(g.error(a, b))
        return weight, len(path), path

    @staticmethod
    def fewest_hops_first(g, s, t):
        """The first fewest-hop s-t path in vertex order: from each vertex, its
        least neighbour one hop nearer t."""
        dist, queue = {t: 0}, deque([t])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        path = [s]
        while path[-1] != t:
            path.append(min(w for w in g.neighbors(path[-1]) if dist.get(w) == dist[path[-1]] - 1))
        return path

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(4,4)"])
    def test_best_path_matches_reference(self, name):
        # The alternatives are every simple path.  Tokyo has too many of
        # them, but its errors are uniform, so equal hops sum to equal
        # weights and its best path is the first fewest-hop one.
        for g, s, t, path in best_paths(name):
            if name == "tokyo":
                assert len({e for _, _, e in g.edges()}) == 1
                assert path == self.fewest_hops_first(g, s, t), (s, t)
            else:
                assert path == min(all_simple_paths(g, s, t), key=lambda p: self.label(g, p)), (s, t)


class TestTraversals:
    def tree(self, parent, root=0, terminal_mask=0):
        return SteinerTree(root, parent, terminal_mask)

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
