"""Shared test helpers: seeded random graphs and invertible matrices, the
maximum-fidelity path and its ESP, brute-force oracles, a reference
mapping construction that rebuilds every residual graph, the two-memo
mapping search that the step memo replaced, the Hamiltonian-path
search that floods every branch, the triple-loop shortest-path counts that
the mask accumulation replaced, the restart-per-terminal Steiner tree that
the resumable one replaced, the extended-logical-order elimination that
physical-qubit indexing replaced, the per-layer GF(2) solve for the
target-aided rows that the tracked inverse replaced, the numpy GF(2) solver
that the bitwise one replaced and a numpy GF(2) inverse, the per-character
QASM reader that the statement splitter and keyword grammar replaced, a
matrix's entries as a uint8 array, the exact fault-pattern sum that the
Monte-Carlo sampler estimates, and QASM inputs that the CLI tests share."""
from __future__ import annotations

import heapq
import itertools
import random
import re
from collections import deque
from functools import reduce
from operator import xor

import numpy as np

from cnotsynth.arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    _flood,
    _residual_mask,
    articulation_points,
    has_hamiltonian_path,
    mask_vertices,
    remove_vertex,
)
from cnotsynth.circuit import CNOT, Circuit, Measure, OneQubit, QasmError, esp, random_cnot_circuit
from cnotsynth.gf2 import ParityMatrix, solve_gf2
from cnotsynth.mapping import Mapping, TabuConfig, _connectivity_product, derive_seed
from cnotsynth.steiner import SteinerTree, min_noise_steiner_tree, postorder, preorder

QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

#: A mixed circuit whose measurements permute the classical bits.
MIXED_QASM = (
    QASM_HEADER + "qreg q[3];\ncreg c[3];\n"
    "h q[0];\ncx q[0],q[1];\nx q[2];\ncx q[1],q[2];\n"
    "measure q[0] -> c[2];\nmeasure q[1] -> c[0];\nmeasure q[2] -> c[1];\n"
)


def cnot_ring_qasm(n: int, a: int, b: int) -> str:
    """QASM of n CNOTs on an n-qubit register, the i-th from qubit i onto qubit (a*i + b) % n."""
    return QASM_HEADER + f"qreg q[{n}];\n" + "".join(f"cx q[{i}],q[{(a * i + b) % n}];\n" for i in range(n))


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


def _graph(n: int, pairs, name: str) -> CouplingGraph:
    return CouplingGraph(range(n), [(u, v, 0.01) for u, v in pairs], name=name)


#: Hand-made graphs with known biconnected blocks, each block a vertex mask.
BLOCK_GRAPHS = {
    "single-edge": (_graph(2, [(0, 1)], "single-edge"), [0b11]),
    "bowtie": (_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], "bowtie"), [0b00111, 0b11100]),
    "k4": (_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], "k4"), [0b1111]),
    # A 6-cycle with a branching tree on vertex 0 (0-6, 6-7, 6-8, 8-9) and a
    # two-edge path on vertex 3 (3-10, 10-11).
    "trees-on-cycle": (
        _graph(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                    (0, 6), (6, 7), (6, 8), (8, 9), (3, 10), (10, 11)], "trees-on-cycle"),
        [0b111111, 1 << 0 | 1 << 6, 1 << 6 | 1 << 7, 1 << 6 | 1 << 8, 1 << 8 | 1 << 9,
         1 << 3 | 1 << 10, 1 << 10 | 1 << 11],
    ),
}


def random_invertible(n: int, seed: int) -> ParityMatrix:
    """Seeded random invertible n x n matrix (n >= 2): the parity matrix of
    a random CNOT circuit of 5 n^2 gates."""
    return ParityMatrix.from_circuit(random_cnot_circuit(n, 5 * n * n, seed).cnot_pairs(), n)


def matrix_bits(m: ParityMatrix) -> np.ndarray:
    """A fresh n x n uint8 array of the entries of ``m``."""
    return np.array([[r >> j & 1 for j in range(m.n)] for r in m.rows], dtype=np.uint8)


def exact_all_zeros_fidelity(circuit: Circuit, graph: CouplingGraph) -> float:
    """The all-zeros fidelity that ``monte_carlo_fidelity`` estimates, summed
    exactly over the 4 ** gates fault patterns: per gate none (1 - e), or
    control only, target only or both (e / 3 each)."""
    total = 0.0
    for pattern in itertools.product(range(4), repeat=len(circuit.gates)):
        state = [0] * circuit.n
        p = 1.0
        for g, mode in zip(circuit.gates, pattern):
            e = graph.error(g.control, g.target)
            state[g.target] ^= state[g.control]
            state[g.control] ^= mode & 1
            state[g.target] ^= mode >> 1
            p *= e / 3 if mode else 1 - e
        if not any(state):
            total += p
    return total


def tree_path(graph: CouplingGraph, s: int, t: int) -> list[int]:
    """The s-t path of the one-terminal Steiner tree rooted at s, the
    maximum-fidelity path, read back along its parent links."""
    parent = min_noise_steiner_tree(graph, s, (t,)).parent
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def path_esp(graph: CouplingGraph, path) -> float:
    """Fidelity of a path: the ESP of the CNOT chain along it, the product of
    (1 - e) over its edges."""
    chain = tuple(CNOT(u, v) for u, v in zip(path, path[1:]))
    return esp(Circuit(max(graph.vertices) + 1, chain), graph)


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


# The mapping references below fall into two groups.  Draw-order copies:
# ``reference_initial_mapping``, ``ReferenceMappingSearch``,
# ``reference_search_initial_mapping`` and ``reference_tabu_search_table``
# replay the tabu search's generator draws, so a change to which draws the
# search makes, or in what order, changes them in step; they check the
# library's bitmask bookkeeping, not its draws.  The search seeds one
# generator and every construction draws from it in turn (the seed mapping,
# then the candidates in loop order), so ``reference_tabu_search_table``
# passes its one ``random.Random`` along the same way.  Independent oracles:
# replay validity, the objective, the path search (cut points and
# Hamiltonian paths), Steiner trees, elimination and the checker; they hold
# for any draw order and stay as they are when it changes.

# ---------------------------------------------------------------------------
# Reference mapping construction over rebuilt residual graphs
# ---------------------------------------------------------------------------
# These walk ``CouplingGraph`` objects, building a new graph for every
# removed vertex.  The library runs the same algorithms on vertex bitmasks;
# the tests require identical results.

def reference_articulation_points(graph: CouplingGraph) -> frozenset[int]:
    """Iterative lowpoint DFS, neighbours in ascending order."""
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
    stack = [(root, None, iter(graph.neighbors(root)))]
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
            stack.append((w, v, iter(graph.neighbors(w))))
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
    """Backtracking with starts and neighbours in ascending order, and the
    same connectivity pruning as the library."""
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
            for w in graph.neighbors(v):
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


# ---------------------------------------------------------------------------
# Reference mapping search: two memos and one generator stream
# ---------------------------------------------------------------------------
# The mask-based search as it was before its step memo: non-cut vertices and
# Hamiltonian paths in two memos shared by both construction modes, one
# ``random.Random(derive_seed(seed, "seed"))`` that every construction draws
# from in turn, and a set difference for the unknown-vertex check.  Only the
# cut points are read from the mask that ``articulation_points`` now returns.

class ReferenceMappingSearch:
    def __init__(self, graph: CouplingGraph) -> None:
        self.graph = graph
        self.keys = graph.vertices - reference_articulation_points(graph)
        self.mean_error: dict[int, float] = {}
        for v in graph.vertices:
            nbrs = graph.neighbors(v)
            self.mean_error[v] = sum(graph.error(v, w) for w in nbrs) / len(nbrs) if nbrs else 0.0
        self._non_cut: dict[int, tuple[int, ...]] = {}
        self._path: dict[int, tuple[int, ...] | None] = {}
        self._product: dict[int, float] = {}

    def non_cut(self, residual: int) -> tuple[int, ...]:
        choices = self._non_cut.get(residual)
        if choices is None:
            cuts = articulation_points(self.graph, residual)
            choices = tuple(v for v in mask_vertices(residual) if not cuts >> v & 1)
            self._non_cut[residual] = choices
        return choices

    def hamiltonian_path(self, residual: int) -> tuple[int, ...] | None:
        if residual not in self._path:
            self._path[residual] = has_hamiltonian_path(self.graph, residual)
        return self._path[residual]

    def connectivity_product(self, assign) -> float:
        mask = 0
        for v in assign:
            mask |= 1 << v
        prod = self._product.get(mask)
        if prod is None:
            prod = _connectivity_product(self.graph, mask)
            self._product[mask] = prod
        return prod


def reference_search_initial_mapping(search: ReferenceMappingSearch, n: int, first: int, rng: random.Random) -> Mapping:
    graph = search.graph
    full = n == graph.num_vertices
    assign: list[int] = []
    residual = graph.vertex_mask
    while len(assign) < n:
        if full and n - len(assign) <= HAMILTONIAN_VERTEX_LIMIT:
            path = search.hamiltonian_path(residual)
            if path is not None:
                assign.extend(path)
                break
        if not assign:
            v = first
        else:
            choices = search.non_cut(residual)
            v = choices[rng.randrange(len(choices))]
        assign.append(v)
        residual &= ~(1 << v)
    return Mapping(tuple(assign))


def reference_mapping_objective(search: ReferenceMappingSearch, mapping: Mapping) -> float:
    missing = set(mapping.assign) - search.graph.vertices
    if missing:
        raise ValueError(f"mapping uses unknown vertices {sorted(missing)}")
    score = search.connectivity_product(mapping.assign)
    for m, v in enumerate(mapping.assign):
        score -= (m + 1) * search.mean_error[v]
    return score


def reference_tabu_search_table(graph: CouplingGraph, n: int, config: TabuConfig) -> list[tuple[Mapping, float]]:
    search = ReferenceMappingSearch(graph)
    base_order = sorted(search.keys)
    rng = random.Random(derive_seed(config.seed, "seed"))
    seed_map = reference_search_initial_mapping(search, n, base_order[0], rng)
    table = {seed_map.assign: reference_mapping_objective(search, seed_map)}
    for it in range(config.iterations):
        for k in range(config.tabu_len):
            cand = reference_search_initial_mapping(search, n, base_order[rng.randrange(len(base_order))], rng)
            if cand.assign in table:
                continue
            s = reference_mapping_objective(search, cand)
            if s >= sum(table.values()) / len(table):
                table[cand.assign] = s
                if len(table) > config.tabu_len:
                    del table[min(table, key=table.__getitem__)]
    return [(Mapping(a), s) for a, s in table.items()]


# ---------------------------------------------------------------------------
# Reference Hamiltonian-path search: a connectivity flood at every branch
# ---------------------------------------------------------------------------

def reference_flooding_path_search(graph: CouplingGraph, mask: int):
    """The library's search with its parity checks and endpoint rule but no
    local connectivity certificate: every branch that passes the endpoint
    rule floods.  Returns the path (or ``None``) and the number of
    backtracking nodes, that is, calls of the recursive step."""
    nbr = graph.neighbor_masks
    n = mask.bit_count()
    starts = mask
    side = graph.colour_mask
    if side is not None:
        surplus = 2 * (mask & side).bit_count() - n
        if abs(surplus) > 1:
            return None, 0
        if surplus:
            starts = mask & side if surplus > 0 else mask & ~side
    ends = sum(1 << v for v in mask_vertices(mask) if (nbr[v] & mask).bit_count() == 1)
    if ends.bit_count() > 2:
        return None, 0
    if ends.bit_count() == 2:
        starts &= ends
    path: list[int] = []
    nodes = 0

    def extend(v: int, unvisited: int, ends: int) -> bool:
        nonlocal nodes
        nodes += 1
        path.append(v)
        if not unvisited:
            return True
        allowed = unvisited | (1 << v)
        if not ends & (ends - 1) and _flood(nbr, 1 << v, allowed) == allowed:
            step = nbr[v] & unvisited
            ends &= ~step
            for w in mask_vertices(step):
                if (nbr[w] & unvisited).bit_count() == 1:
                    ends |= 1 << w
            for w in mask_vertices(step):
                if extend(w, unvisited ^ (1 << w), ends & ~(1 << w)):
                    return True
        path.pop()
        return False

    for start in mask_vertices(starts):
        if extend(start, mask & ~(1 << start), ends & ~(1 << start)):
            return tuple(path), nodes
    return None, nodes


def reference_replay_is_valid(graph: CouplingGraph, mapping: Mapping) -> bool:
    """Removal replay over rebuilt residual graphs, starting with the whole device."""
    if not set(mapping.assign) <= graph.vertices or not bfs_connected(graph):
        return False
    residual = graph
    for v in mapping.assign[:-1]:
        residual = remove_vertex(residual, v)
        if not bfs_connected(residual):
            return False
    return True


def reference_shortest_path_data(graph: CouplingGraph):
    """Breadth-first hop distances and path counts, then ``through[v]`` from a
    loop over vertex triples; arrays are indexed by position in ``verts``."""
    verts = sorted(graph.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    dist = [[-1] * size for _ in range(size)]
    sigma = [[0] * size for _ in range(size)]
    for si, s in enumerate(verts):
        d, g = dist[si], sigma[si]
        d[si] = 0
        g[si] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            vi = pos[v]
            for w in graph.neighbors(v):
                wi = pos[w]
                if d[wi] < 0:
                    d[wi] = d[vi] + 1
                    queue.append(w)
                if d[wi] == d[vi] + 1:
                    g[wi] += g[vi]
    through = [0] * size
    for si in range(size):
        for ti in range(si + 1, size):
            dst = dist[si][ti]
            if dst < 0:
                continue
            for vi in range(size):
                if vi == si or vi == ti:
                    continue
                if dist[si][vi] > 0 and dist[vi][ti] > 0 and dist[si][vi] + dist[vi][ti] == dst:
                    through[vi] += sigma[si][vi] * sigma[vi][ti]
    return verts, pos, dist, sigma, through


# ---------------------------------------------------------------------------
# Reference Steiner tree: a fresh Dijkstra from the whole tree per terminal
# ---------------------------------------------------------------------------

def reference_dijkstra_path(graph: CouplingGraph, sources, target: int, mask: int) -> list[int]:
    """Min-weight path from any source to target through vertices set in ``mask``.

    Labels are (weight, hops, path) tuples, so ties resolve to fewer hops and
    then to the lexicographically smallest vertex sequence.
    """
    heap = [(0.0, 0, (s,)) for s in sorted(set(sources))]
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


def reference_min_noise_steiner_tree(graph: CouplingGraph, root: int, terminals, mask: int | None = None) -> SteinerTree:
    """Greedy minimum-noise Steiner tree that reruns Dijkstra from every tree
    vertex for each terminal it joins (ascending id order)."""
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
        path = reference_dijkstra_path(graph, tree, t, mask)
        for a, b in zip(path, path[1:]):
            if b not in tree:
                parent[b] = a
                tree.add(b)
    return SteinerTree(root, parent, sum(1 << t for t in terms))


# ---------------------------------------------------------------------------
# Elimination in extended-logical row order
# ---------------------------------------------------------------------------
# The elimination that physical-qubit indexing replaced, kept as the oracle of
# the differential tests in test_synth.py.  Work row k belongs to logical
# qubit k; spare vertices follow as ancilla rows in ascending id order, and
# every row operation is translated to a CNOT at the end.

def physical_matrix(m: ParityMatrix, graph: CouplingGraph, mapping: Mapping) -> ParityMatrix:
    """``m`` indexed by physical qubit: entry (assign[r], assign[j]) is m's
    (r, j); spare vertices carry unit rows and other ids zero rows."""
    size = max(graph.vertices) + 1
    bits = np.zeros((size, size), dtype=np.uint8)
    for p in graph.vertices:
        bits[p, p] = 1
    assign = list(mapping.assign)
    bits[np.ix_(assign, assign)] = matrix_bits(m)
    return ParityMatrix(bits)


def reference_target_aided_rows(rows: list[int], q: int, residual: int) -> set[int]:
    """Residual rows other than q whose XOR equals row q plus its unit vector.

    The per-layer GF(2) solve that the tracked inverse replaced: it solves
    the system over those rows, in ascending id.  With column q a unit
    vector and the layers before q eliminated, they are independent, so the
    solution exists and is unique.  Returns the empty set when row q is
    already a unit vector.
    """
    y = rows[q] ^ (1 << q)
    if not y:
        return set()
    rest = list(mask_vertices(residual & ~(1 << q)))
    if not rest:
        raise RuntimeError(f"no rows left to aid elimination of row {q}")
    x = solve_gf2([rows[p] for p in rest], y)
    if x is None:
        raise RuntimeError(
            f"no target-aided row set for row {q}; matrix is singular or layers are out of order"
        )
    return {rest[j] for j in mask_vertices(x)}


def work_inverse(rows: list[int]) -> list[int]:
    """The transposed inverse of elimination work rows, as ``synth._eliminate``
    builds it, from the numpy Gauss-Jordan: row p holds column p of the
    inverse, and a zero row (an id that is not a vertex) stays zero."""
    n = len(rows)
    inverse = reference_gf2_inverse([[(row or 1 << p) >> j & 1 for j in range(n)] for p, row in enumerate(rows)])
    assert inverse is not None, "work rows are singular"
    return [sum(int(inverse[r, p]) << r for r in range(n)) if row else 0 for p, row in enumerate(rows)]


def inverse_aided_rows(inv: list[int], q: int, residual: int) -> set[int]:
    """The target-aided row set of q read from a tracked inverse, as ``synth.eliminate_row`` reads it."""
    return {p for p in mask_vertices(residual & ~(1 << q)) if inv[p] >> q & 1}


def _reference_column_ones(rows: list[int], i: int) -> list[int]:
    return [r for r, row in enumerate(rows) if row >> i & 1]


def reference_eliminate_column(rows: list[int], graph: CouplingGraph, assign, i: int, residual: int):
    """Row-indexed column pass; ``assign`` covers every one of ``rows``."""
    phys_to_row = {p: r for r, p in enumerate(assign)}
    root = assign[i]
    terminals = {assign[j] for j in _reference_column_ones(rows, i)}
    tree = min_noise_steiner_tree(graph, root, terminals, residual)
    order = postorder(tree)
    bit = 1 << i
    ops = []
    for c_phys in order:
        if c_phys == root:
            continue
        c, k = phys_to_row[c_phys], phys_to_row[tree.parent[c_phys]]
        if not rows[k] & bit and rows[c] & bit:
            rows[k] ^= rows[c]
            ops.append((c, k))
    for c_phys in order:
        for l_phys in tree.children[c_phys]:
            c, l = phys_to_row[c_phys], phys_to_row[l_phys]
            rows[l] ^= rows[c]
            ops.append((c, l))
    assert _reference_column_ones(rows, i) == [i]
    return ops


def reference_eliminate_row(rows: list[int], graph: CouplingGraph, assign, i: int, residual: int):
    """Row-indexed row pass; ``assign`` covers every one of ``rows``."""
    phys_to_row = {p: r for r, p in enumerate(assign)}
    # Rows before i are eliminated; the rest, ancillas included, are residual.
    aid = reference_target_aided_rows(rows, i, (1 << len(rows)) - (1 << i))
    if not aid:
        return []
    root = assign[i]
    aid_phys = {assign[k] for k in aid}
    tree = min_noise_steiner_tree(graph, root, aid_phys | {root}, residual)
    ops = []
    for r_phys in preorder(tree):
        if r_phys == root or r_phys in aid_phys:
            continue
        r, k = phys_to_row[r_phys], phys_to_row[tree.parent[r_phys]]
        rows[k] ^= rows[r]
        ops.append((r, k))
    for r_phys in postorder(tree):
        if r_phys == root:
            continue
        r, k = phys_to_row[r_phys], phys_to_row[tree.parent[r_phys]]
        rows[k] ^= rows[r]
        ops.append((r, k))
    assert rows[i] == 1 << i and _reference_column_ones(rows, i) == [i]
    return ops


def extended_assign(graph: CouplingGraph, mapping: Mapping) -> tuple[int, ...]:
    """Mapping extended to all device qubits; spare vertices follow in ascending order."""
    spare = sorted(graph.vertices - set(mapping.assign))
    return tuple(mapping.assign) + tuple(spare)


def reference_eliminate(m: ParityMatrix, graph: CouplingGraph, mapping: Mapping) -> tuple[CNOT, ...]:
    """Gates of the row-indexed elimination of ``m`` under ``mapping``."""
    n = m.n
    assign = extended_assign(graph, mapping)
    work = m.rows + [1 << r for r in range(n, graph.num_vertices)]
    residual = graph.vertex_mask
    recorded = []
    for i in range(n):
        recorded += reference_eliminate_column(work, graph, assign, i, residual)
        recorded += reference_eliminate_row(work, graph, assign, i, residual)
        residual &= ~(1 << assign[i])
    logical = (1 << n) - 1
    assert all(work[r] == 1 << r for r in range(n))
    assert not any(row & logical for row in work[n:])
    return tuple(CNOT(assign[c], assign[t]) for c, t in reversed(recorded))


# ---------------------------------------------------------------------------
# Verification in extended-logical row order
# ---------------------------------------------------------------------------
# The checker that physical-qubit indexing replaced, kept as the oracle of the
# differential tests in test_synth.py.  It rebuilds the parity matrix in the
# order of ``extended_assign`` and names rows in that order, so only its
# verdict, not its message, is comparable.

def _reference_block_failure(rows: list[int], logical_rows: list[int]) -> str | None:
    n = len(logical_rows)
    logical = (1 << n) - 1
    for r in range(n):
        if rows[r] & logical != logical_rows[r]:
            return f"row {r} of the rebuilt parity matrix differs from the original"
        if rows[r] >> n:
            return f"row {r} depends on ancilla qubits"
    for r in range(n, len(rows)):
        if rows[r] & logical:
            return f"ancilla row {r} depends on logical qubits"
    return None


def reference_verification_failure(m_original: ParityMatrix, graph: CouplingGraph, mapping: Mapping, gates):
    """Why ``gates`` fail to realize ``m_original`` under ``mapping``, in logical row order; None if they do."""
    if mapping.n != m_original.n:
        return f"mapping covers {mapping.n} qubits, {m_original.n} needed"
    if not set(mapping.assign) <= graph.vertices:
        return "mapping uses vertices outside the device"
    for k, g in enumerate(gates):
        if not graph.has_edge(g.control, g.target):
            return f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge"
    phys_to_row = {p: r for r, p in enumerate(extended_assign(graph, mapping))}
    rebuilt = [1 << r for r in range(graph.num_vertices)]
    for g in gates:
        rebuilt[phys_to_row[g.target]] ^= rebuilt[phys_to_row[g.control]]
    return _reference_block_failure(rebuilt, m_original.rows)


# ---------------------------------------------------------------------------
# GF(2) oracles
# ---------------------------------------------------------------------------

BRUTEFORCE_LIMIT = 10


def xor_rows(matrix, indices) -> np.ndarray:
    """XOR of the selected rows of a 0/1 array; the all-zero vector for an empty selection."""
    mat = np.asarray(matrix, dtype=np.uint8)
    out = np.zeros(mat.shape[1], dtype=np.uint8)
    for i in indices:
        out ^= mat[i]
    return out


def target_aided_rows_bruteforce(m: ParityMatrix, q: int, residual: int) -> set[int]:
    """Subset-enumeration oracle for the target-aided row set (rows <= 10)."""
    if m.n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force matcher limited to {BRUTEFORCE_LIMIT} rows, got {m.n}")
    rows = m.rows
    y = rows[q] ^ (1 << q)
    if not y:
        return set()
    rest = [p for p in range(m.n) if residual >> p & 1 and p != q]
    for size in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            if reduce(xor, (rows[k] for k in combo)) == y:
                return set(combo)
    raise RuntimeError(f"no target-aided row set for row {q}")


def reference_gf2_rank(matrix) -> int:
    """Numpy Gauss-Jordan rank over GF(2), column by column."""
    mat = (np.array(matrix, dtype=np.uint8) % 2).copy()
    rows, cols = mat.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(rows):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def reference_solve_gf2(rows, y):
    """Numpy Gauss-Jordan on [A^T | y]: a 0/1 row indicator with free variables
    fixed to 0, or ``None`` when ``y`` is outside the row span."""
    A = np.array(rows, dtype=np.uint8) % 2
    b = np.array(y, dtype=np.uint8) % 2
    m, k = A.shape
    aug = np.concatenate([A.T, b[:, None]], axis=1)
    pivot_cols: list[int] = []
    r = 0
    for c in range(m):
        pivot = None
        for rr in range(r, k):
            if aug[rr, c]:
                pivot = rr
                break
        if pivot is None:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        for rr in range(k):
            if rr != r and aug[rr, c]:
                aug[rr] ^= aug[r]
        pivot_cols.append(c)
        r += 1
        if r == k:
            break
    if np.any(aug[r:, m]):
        return None
    x = np.zeros(m, dtype=np.uint8)
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i, m]
    return x


def reference_gf2_inverse(matrix):
    """Numpy Gauss-Jordan on [A | I] over GF(2): the inverse as a 0/1 array,
    or ``None`` when ``matrix`` is singular."""
    mat = np.array(matrix, dtype=np.uint8) % 2
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        nonzero = np.flatnonzero(aug[col:, col])
        if not nonzero.size:
            return None
        pivot = col + nonzero[0]
        aug[[col, pivot]] = aug[[pivot, col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= aug[col]
    return aug[:, n:]


# The QASM reader before the one-pass rewrite, kept as the oracle of the
# differential test in test_circuit.py.

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_OPENQASM = re.compile(r"^OPENQASM\s+(\S+)$")
_RE_INCLUDE = re.compile(r"^include\s+\"[^\"]*\"$")
_RE_REG = re.compile(rf"^(qreg|creg)\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_CX = re.compile(rf"^cx\s+({_ID})\s*\[\s*(\d+)\s*\]\s*,\s*({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_ONEQ = re.compile(rf"^(h|x|z)\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_MEASURE = re.compile(rf"^measure\s+({_ID})\s*\[\s*(\d+)\s*\]\s*->\s*({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_GATE_WORD = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)")


def _statements(text: str):
    """Split on ';', yielding (statement, line, col) for each statement start."""
    buf: list[str] = []
    start: tuple[int, int] | None = None
    line = 1
    col = 0
    for ch in text:
        col += 1
        if ch == "\n":
            line += 1
            col = 0
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt and start is not None:
                yield stmt, start[0], start[1]
            buf = []
            start = None
            continue
        if not ch.isspace() and start is None:
            start = (line, col)
        buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        if start is None:
            start = (line, max(col, 1))
        raise QasmError(f"statement missing terminating ';': {tail!r}", start[0], start[1])


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


def reference_parse_qasm(text: str) -> Circuit:
    """The QASM reader before the rewrite: a per-character statement scanner,
    a separate comment stripper and one regex per statement form, tried in turn."""
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []

    def check_qubit(name: str, idx: int, line: int, col: int) -> int:
        if qreg is None:
            raise QasmError("qubit reference before qreg declaration", line, col)
        if name != qreg[0]:
            raise QasmError(f"unknown quantum register {name!r}", line, col)
        if idx >= qreg[1]:
            raise QasmError(f"register size mismatch: {name}[{idx}] exceeds size {qreg[1]}", line, col)
        return idx

    for stmt, line, col in _statements(_strip_comments(text)):
        stmt = " ".join(stmt.split())
        m = _RE_OPENQASM.match(stmt)
        if m:
            if m.group(1) != "2.0":
                raise QasmError(f"unsupported OPENQASM version {m.group(1)}", line, col)
            continue
        if _RE_INCLUDE.match(stmt):
            continue
        m = _RE_REG.match(stmt)
        if m:
            kind, name, size = m.group(1), m.group(2), int(m.group(3))
            if size < 1:
                raise QasmError(f"{kind} size must be >= 1", line, col)
            if kind == "qreg":
                if qreg is not None:
                    raise QasmError("multiple qreg declarations are not supported", line, col)
                qreg = (name, size)
            else:
                if creg is not None:
                    raise QasmError("multiple creg declarations are not supported", line, col)
                creg = (name, size)
            continue
        m = _RE_CX.match(stmt)
        if m:
            c = check_qubit(m.group(1), int(m.group(2)), line, col)
            t = check_qubit(m.group(3), int(m.group(4)), line, col)
            if c == t:
                raise QasmError(f"cx control and target coincide ({c})", line, col)
            gates.append(CNOT(c, t))
            continue
        m = _RE_ONEQ.match(stmt)
        if m:
            q = check_qubit(m.group(2), int(m.group(3)), line, col)
            gates.append(OneQubit(m.group(1), q))
            continue
        m = _RE_MEASURE.match(stmt)
        if m:
            q = check_qubit(m.group(1), int(m.group(2)), line, col)
            cname, cidx = m.group(3), int(m.group(4))
            if creg is None or cname != creg[0]:
                raise QasmError(f"unknown classical register {cname!r}", line, col)
            if cidx >= creg[1]:
                raise QasmError(f"register size mismatch: {cname}[{cidx}] exceeds size {creg[1]}", line, col)
            gates.append(Measure(q, cidx))
            continue
        word = _RE_GATE_WORD.match(stmt)
        if word and word.group(1) not in ("qreg", "creg", "measure", "cx", "h", "x", "z", "include", "OPENQASM"):
            raise QasmError(f"unsupported gate or statement {word.group(1)!r}", line, col)
        raise QasmError(f"cannot parse statement {stmt!r}", line, col)

    if qreg is None:
        raise QasmError("missing qreg declaration")
    return Circuit(qreg[1], tuple(gates))


# ---------------------------------------------------------------------------
# Statevector oracle for mixed circuits
# ---------------------------------------------------------------------------
# An independent semantic check that shares no code with the package's
# checker: it replays H/X/Z/CNOT on a complex statevector with one axis per
# qubit.  Measurements do not collapse the state; each records its qubit's
# probability of reading 1 into its classical bit, which is that bit's
# outcome probability when the measurements end the circuit.

def _on(ndim: int, q: int, value: int) -> tuple:
    """Index of the slice of a statevector where qubit ``q`` reads ``value``."""
    return (slice(None),) * q + (value,) + (slice(None),) * (ndim - q - 1)


def statevector_replay(circuit: Circuit, state: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The state after ``circuit`` and each classical bit's probability of reading 1."""
    state = state.copy()
    bits = [0.0] * circuit.clbits
    for g in circuit.gates:
        if isinstance(g, CNOT):
            one = _on(state.ndim, g.control, 1)
            state[one] = np.flip(state[one], g.target - (g.target > g.control)).copy()
        elif isinstance(g, Measure):
            bits[g.clbit] = float(np.sum(np.abs(state[_on(state.ndim, g.qubit, 1)]) ** 2))
        else:
            zero, one = _on(state.ndim, g.qubit, 0), _on(state.ndim, g.qubit, 1)
            a, b = state[zero].copy(), state[one].copy()
            if g.kind == "h":
                a, b = (a + b) / np.sqrt(2), (a - b) / np.sqrt(2)
            elif g.kind == "x":
                a, b = b, a
            else:
                b = -b
            state[zero], state[one] = a, b
    return state, bits


def mapped_state(state: np.ndarray, assign: tuple[int, ...], width: int) -> np.ndarray:
    """A logical-qubit state moved onto physical qubits: logical m on ``assign[m]``,
    every other of the ``width`` qubits in |0>."""
    placed = np.zeros((2,) * width, dtype=complex)
    where = tuple(slice(None) if p in assign else 0 for p in range(width))
    placed[where] = state.transpose([assign.index(p) for p in sorted(assign)])
    return placed


def statevector_equivalent(original: Circuit, output: Circuit, mapping: Mapping, seed: int) -> bool:
    """Whether ``output`` acts as ``original`` moved through ``mapping`` on a seeded
    random logical state, spare qubits starting in |0>: the same final state
    and the same outcome probability for every classical bit."""
    rng = np.random.default_rng(seed)
    shape = (2,) * original.n
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state /= np.linalg.norm(state)
    want, want_bits = statevector_replay(original, state)
    got, got_bits = statevector_replay(output, mapped_state(state, mapping.assign, output.n))
    return (np.allclose(got, mapped_state(want, mapping.assign, output.n), atol=1e-9)
            and len(got_bits) == len(want_bits) and np.allclose(got_bits, want_bits, atol=1e-9))
