"""Minimum-noise Steiner trees and their traversal orders.

Maximizing a path's fidelity, the product of (1 - e) over its edges (the
``esp`` of the CNOT chain along it), is equivalent to minimizing the sum of
-ln(1 - e), so path selection runs Dijkstra on those additive weights, read
from the graph's precomputed weight rows.  A Steiner tree over a residual
graph takes the residual as an int vertex mask over the base graph and
routes only through vertices set in it.  Each tree runs one Dijkstra for
its whole life: one heap and one label table indexed by vertex id, resumed
for each terminal and reseeded with every vertex that joins the tree, so no
search restarts from scratch.  A one-terminal tree is exactly the
maximum-fidelity path from its root to that terminal, read back along the
parent links.  All tie-breaking is fixed (fewer hops, then the
lexicographically smallest vertex sequence; terminals joined in ascending
id order) so that synthesis output is reproducible.  The returned tree
keeps the search's parent links without copying them, builds its child
lists in one pass, and computes its vertex set only when it is read.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .arch import CouplingGraph, _residual_mask, mask_vertices


class SteinerTree:
    """Rooted tree embedded in a coupling graph.

    ``parent`` maps every non-root vertex to its parent and is kept as
    given, not copied.  ``children`` lists each vertex's children in
    ascending id order, built in one pass over ``parent``.  ``vertices`` is
    computed when read; elimination never reads it.
    """

    __slots__ = ("root", "parent", "children", "terminals")

    def __init__(self, root: int, parent: dict[int, int], terminals: Iterable[int]) -> None:
        self.root = root
        self.parent = parent
        self.terminals = frozenset(terminals)
        children: dict[int, list[int]] = {v: [] for v in parent}
        children[root] = []
        for child, par in parent.items():
            children[par].append(child)
        for kids in children.values():
            if len(kids) > 1:
                kids.sort()
        self.children = children

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    def __repr__(self) -> str:
        return f"SteinerTree(root={self.root}, vertices={sorted(self.vertices)})"


def min_noise_steiner_tree(
    graph: CouplingGraph,
    root: int,
    terminals: Iterable[int],
    mask: int | None = None,
) -> SteinerTree:
    """Greedy minimum-noise Steiner tree.

    Starting from {root}, each still-unconnected terminal (ascending id
    order) is joined through the cheapest -ln(1 - e) path from any current
    tree vertex; all path vertices join the tree.  Heuristic, not an optimal
    Steiner tree.  With ``mask``, the tree lies in the subgraph induced by
    the vertices set in it.

    One Dijkstra serves the whole tree.  ``label[v]`` is v's best label so
    far, a (weight, hops, path) tuple whose weight is summed along the path
    from its source, so ties break on fewer hops and then on the smallest
    vertex sequence.  A terminal's label is final once the heap's smallest
    entry is no smaller, since extending a label never makes it smaller; the
    search pauses there.  Each vertex that joins the tree is pushed as a
    source of weight 0, and a label is replaced only by a strictly smaller
    one, so every label is the best from the tree as it now stands, as if
    the search had restarted from it.
    """
    _, mask = _residual_mask(graph, mask)
    terms = frozenset(int(t) for t in terminals)
    if not terms:
        raise ValueError("terminals must be non-empty")
    if not mask >> root & 1:
        raise ValueError(f"root {root} not in graph")
    missing = sorted(t for t in terms if not mask >> t & 1)
    if missing:
        raise ValueError(f"terminals {missing} not in graph")

    rows = graph.weight_rows
    label: list[tuple[float, int, tuple[int, ...]] | None] = [None] * len(rows)
    label[root] = source = (0.0, 0, (root,))
    heap = [source]
    tree = 1 << root
    parent: dict[int, int] = {}
    for t in sorted(terms):
        if tree >> t & 1:
            continue
        while heap and (label[t] is None or heap[0] < label[t]):
            item = heappop(heap)
            dist, hops, path = item
            v = path[-1]
            if label[v] is not item:
                continue  # superseded by a smaller label
            hops += 1
            for w, weight in rows[v]:
                if not mask >> w & 1:
                    continue
                d = dist + weight
                old = label[w]
                if old is None or d <= old[0]:
                    new = (d, hops, path + (w,))
                    if old is None or new < old:
                        label[w] = new
                        heappush(heap, new)
        found = label[t]
        if found is None:
            raise ValueError(f"vertex {t} unreachable from {list(mask_vertices(tree))}")
        path = found[2]
        for a, b in zip(path, path[1:]):
            parent[b] = a
            tree |= 1 << b
            label[b] = source = (0.0, 0, (b,))
            heappush(heap, source)
    return SteinerTree(root, parent, terms)


def preorder(tree: SteinerTree) -> list[int]:
    """Depth-first order from the root, children visited ascending."""
    out: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(tree.children[v]))
    return out


def postorder(tree: SteinerTree) -> list[int]:
    """Every child before its parent, subtrees in ascending child order."""
    out: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(tree.children[v])
    out.reverse()
    return out
