"""Shared test helpers: seeded random graphs, brute-force oracles, and a
reference mapping construction that rebuilds every residual graph."""
from __future__ import annotations

import itertools
import random
from collections import deque

from cnotsynth.arch import HAMILTONIAN_VERTEX_LIMIT, CouplingGraph, remove_vertex
from cnotsynth.mapping import Mapping


def random_connected_graph(n: int, seed: int, extra_edges: int | None = None) -> CouplingGraph:
    """Seeded random connected graph: a random spanning tree plus extra edges."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    if extra_edges is None:
        extra_edges = rng.randrange(n) if n > 2 else 0
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    triples = [(u, v, rng.uniform(0.001, 0.05)) for u, v in sorted(edges)]
    return CouplingGraph(range(n), triples, name=f"rand{n}-{seed}")


def bfs_component(graph: CouplingGraph, start: int, skip: frozenset[int] = frozenset()) -> set[int]:
    """Vertices reachable from ``start`` by BFS, never entering ``skip``."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in seen and w not in skip:
                seen.add(w)
                queue.append(w)
    return seen


def bfs_connected(graph: CouplingGraph) -> bool:
    if not graph.vertices:
        return True
    return len(bfs_component(graph, min(graph.vertices))) == graph.num_vertices


def brute_force_articulation(graph: CouplingGraph) -> set[int]:
    """Remove each vertex in turn and test connectivity of what remains."""
    points = set()
    for v in sorted(graph.vertices):
        rest = graph.vertices - {v}
        if len(rest) <= 1:
            continue
        if len(bfs_component(graph, min(rest), frozenset({v}))) != len(rest):
            points.add(v)
    return points


def all_simple_paths(graph: CouplingGraph, s: int, t: int):
    """Every simple s-t path, by exhaustive DFS."""
    path = [s]
    visited = {s}

    def rec():
        v = path[-1]
        if v == t:
            yield list(path)
            return
        for w in graph.neighbors(v):
            if w not in visited:
                visited.add(w)
                path.append(w)
                yield from rec()
                path.pop()
                visited.remove(w)

    yield from rec()


def brute_force_hamiltonian(graph: CouplingGraph):
    """Check Hamiltonian-path existence by trying every vertex permutation."""
    verts = sorted(graph.vertices)
    for perm in itertools.permutations(verts):
        if all(graph.has_edge(a, b) for a, b in zip(perm, perm[1:])):
            return perm
    return None


def enumerate_shortest_paths(graph: CouplingGraph, s: int, t: int) -> list[list[int]]:
    """All shortest s-t paths, found by filtering the simple-path enumeration."""
    paths = list(all_simple_paths(graph, s, t))
    if not paths:
        return []
    best = min(len(p) for p in paths)
    return [p for p in paths if len(p) == best]


# ---------------------------------------------------------------------------
# Reference mapping construction over rebuilt residual graphs
# ---------------------------------------------------------------------------
# These walk ``CouplingGraph`` objects, building a new graph for every
# removed vertex.  The library runs the same algorithms on vertex bitmasks;
# the tests require identical results.

def reference_articulation_points(graph: CouplingGraph) -> frozenset[int]:
    """Iterative lowpoint DFS over ``graph.adj``, neighbours in ascending order."""
    assert bfs_connected(graph)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    points: set[int] = set()
    verts = sorted(graph.vertices)
    if not verts:
        return frozenset()
    root = verts[0]
    disc[root] = low[root] = 0
    timer = 1
    root_children = 0
    stack = [(root, None, iter(graph.adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
                continue
            disc[w] = low[w] = timer
            timer += 1
            if v == root:
                root_children += 1
            stack.append((w, v, iter(graph.adj[w])))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if stack:
            p = stack[-1][0]
            low[p] = min(low[p], low[v])
            if p != root and low[v] >= disc[p]:
                points.add(p)
    if root_children > 1:
        points.add(root)
    return frozenset(points)


def reference_hamiltonian_path(graph: CouplingGraph):
    """Backtracking over ``graph.adj``: starts and neighbours in ascending order,
    with the same connectivity pruning as the library."""
    n = graph.num_vertices
    verts = sorted(graph.vertices)
    if n == 0:
        return None
    if n == 1:
        return (verts[0],)
    if not bfs_connected(graph):
        return None
    if sum(1 for v in verts if graph.degree(v) == 1) > 2:
        return None
    path: list[int] = []
    visited: set[int] = set()

    def extend(v: int) -> bool:
        path.append(v)
        visited.add(v)
        if len(path) == n:
            return True
        if len(bfs_component(graph, v, frozenset(visited - {v}))) == n - len(visited) + 1:
            for w in graph.adj[v]:
                if w not in visited and extend(w):
                    return True
        path.pop()
        visited.remove(v)
        return False

    for start in verts:
        if extend(start):
            return tuple(path)
    return None


def reference_initial_mapping(graph: CouplingGraph, n: int, key_order, rng: random.Random) -> Mapping:
    """Key-qubit priority construction that rebuilds each residual graph."""
    order = [int(v) for v in key_order]
    assign: list[int] = []
    residual = graph
    while len(assign) < n:
        quota = n - len(assign)
        if residual.num_vertices == quota and quota <= HAMILTONIAN_VERTEX_LIMIT:
            path = reference_hamiltonian_path(residual)
            if path is not None:
                assign.extend(path)
                break
        if not assign:
            v = order[0]
        else:
            choices = sorted(residual.vertices - reference_articulation_points(residual))
            v = choices[rng.randrange(len(choices))]
        assign.append(v)
        residual = remove_vertex(residual, v)
    return Mapping(tuple(assign))


def reference_replay_is_valid(graph: CouplingGraph, mapping: Mapping) -> bool:
    """Removal replay over rebuilt residual graphs."""
    if not set(mapping.assign) <= graph.vertices:
        return False
    residual = graph
    for v in mapping.assign[:-1]:
        residual = remove_vertex(residual, v)
        if not bfs_connected(residual):
            return False
    return True
