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
id order) so that synthesis output is reproducible.  The root and the
terminals are read by ``arch.integer``: a float is refused, not truncated,
and a negative id is named as not in the graph.  The returned tree keeps
the search's parent links and terminal mask without copying them, builds
its child lists in one pass, and computes its vertex and terminal sets
only when they are read.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .arch import CouplingGraph, _residual_mask, integer, mask_vertices


class SteinerTree:
    """Rooted tree embedded in a coupling graph.

    ``parent`` maps every non-root vertex to its parent and is kept as
    given, not copied.  ``children`` lists each vertex's children in
    ascending id order, built in one pass over ``parent``.  The terminals
    are given as a vertex mask.  ``vertices`` and ``terminals`` are computed
    when read; elimination reads neither.
    """

    __slots__ = ("root", "parent", "children", "_terminal_mask")

    def __init__(self, root: int, parent: dict[int, int], terminal_mask: int) -> None:
        self.root = root
        self.parent = parent
        self._terminal_mask = terminal_mask
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

    @property
    def terminals(self) -> frozenset[int]:
        return frozenset(mask_vertices(self._terminal_mask))

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
    root = root if type(root) is int else integer(root, "root")
    terms = t = 0
    try:
        for t in terminals:
            if type(t) is not int:
                t = integer(t, "terminal")
            terms |= 1 << t
    except ValueError:
        # Only a negative id fails its shift; a non-integer id, or the
        # iterable itself, raised its own error, which goes on.
        if type(t) is not int or t >= 0:
            raise
        raise ValueError(f"terminals [{t}] not in graph") from None
    if not terms:
        raise ValueError("terminals must be non-empty")
    if root < 0 or not mask >> root & 1:
        raise ValueError(f"root {root} not in graph")
    if missing := terms & ~mask:
        raise ValueError(f"terminals {list(mask_vertices(missing))} not in graph")

    rows = graph.weight_rows
    label: list[tuple[float, int, tuple[int, ...]] | None] = [None] * len(rows)
    label[root] = source = (0.0, 0, (root,))
    heap = [source]
    tree = 1 << root
    parent: dict[int, int] = {}
    for t in mask_vertices(terms):
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
