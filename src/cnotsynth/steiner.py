"""Path fidelity, maximum-fidelity shortest paths, minimum-noise Steiner trees.

Maximizing the product of (1 - e) over a path's edges is equivalent to
minimizing the sum of -ln(1 - e), so path selection runs Dijkstra on those
additive weights, read from the graph's precomputed weight rows.  A Steiner
tree over a residual graph takes the residual as an int vertex mask over
the base graph and routes only through vertices set in it.  All
tie-breaking is fixed (fewer hops, then the lexicographically smallest
vertex sequence; terminals joined in ascending id order) so that synthesis
output is reproducible.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .arch import CouplingGraph, _residual_mask
from .arch import edge_weight  # noqa: F401  (kept public in this module)


def path_fidelity(graph: CouplingGraph, path: Sequence[int]) -> float:
    """Product of (1 - e) over consecutive path edges; <= 1 vertex gives 1.0."""
    f = 1.0
    for u, v in zip(path, path[1:]):
        f *= 1.0 - graph.error(u, v)  # raises on non-adjacent pair
    return f


def _dijkstra_path(graph: CouplingGraph, sources: Iterable[int], target: int, mask: int) -> list[int]:
    """Min-weight path from any source to target through vertices set in ``mask``.

    Labels are (weight, hops, path) tuples, so ties resolve to fewer hops and
    then to the lexicographically smallest vertex sequence.
    """
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (s,)) for s in sorted(set(sources))]
    if not heap:
        raise ValueError("at least one source vertex required")
    heapq.heapify(heap)
    rows = graph.weight_rows
    unsettled = mask
    while heap:
        dist, hops, path = heapq.heappop(heap)
        v = path[-1]
        if not unsettled >> v & 1:
            continue
        unsettled ^= 1 << v
        if v == target:
            return list(path)
        for w, weight in rows[v]:
            if unsettled >> w & 1:
                heapq.heappush(heap, (dist + weight, hops + 1, path + (w,)))
    raise ValueError(f"vertex {target} unreachable from {sorted(set(sources))}")


def best_path(graph: CouplingGraph, s: int, t: int) -> list[int]:
    """The s-t path maximizing path_fidelity (deterministic tie-breaking)."""
    if s not in graph.vertices or t not in graph.vertices:
        raise ValueError(f"endpoints ({s},{t}) must be graph vertices")
    if s == t:
        return [s]
    return _dijkstra_path(graph, (s,), t, graph.vertex_mask)


class SteinerTree:
    """Rooted tree embedded in a coupling graph.

    ``parent`` maps every non-root vertex to its parent; ``children`` lists
    each vertex's children in ascending id order.
    """

    __slots__ = ("root", "parent", "children", "terminals", "vertices")

    def __init__(self, root: int, parent: dict[int, int], terminals: Iterable[int]) -> None:
        self.root = root
        self.parent = dict(parent)
        self.terminals = frozenset(terminals)
        self.vertices = frozenset(self.parent) | {root}
        kids: dict[int, list[int]] = {v: [] for v in self.vertices}
        for child, par in self.parent.items():
            kids[par].append(child)
        self.children = {v: tuple(sorted(c)) for v, c in kids.items()}

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

    tree: set[int] = {root}
    parent: dict[int, int] = {}
    for t in sorted(terms):
        if t in tree:
            continue
        path = _dijkstra_path(graph, tree, t, mask)
        for a, b in zip(path, path[1:]):
            if b not in tree:
                parent[b] = a
                tree.add(b)
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
