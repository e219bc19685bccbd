"""Shared test helpers: seeded random graphs and invertible matrices, the
maximum-fidelity path and its ESP, brute-force oracles, a reference
mapping construction that rebuilds every residual graph, the two-memo
mapping search that the step memo replaced, the Hamiltonian-path
search that floods every branch, the triple-loop shortest-path counts that
the mask accumulation replaced, the restart-per-terminal Steiner tree that
the resumable one replaced, the numpy GF(2) solver that the bitwise one
replaced, and the per-character QASM reader that the statement splitter and
keyword grammar replaced."""
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
    key_qubits,
    mask_vertices,
    remove_vertex,
)
from cnotsynth.circuit import CNOT, Circuit, Measure, OneQubit, QasmError, esp, random_cnot_circuit
from cnotsynth.gf2 import ParityMatrix
from cnotsynth.mapping import Mapping, TabuConfig, _connectivity_product, derive_seed
from cnotsynth.steiner import SteinerTree, min_noise_steiner_tree


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


def random_invertible(n: int, seed: int) -> ParityMatrix:
    """Seeded random invertible n x n matrix (n >= 2): the parity matrix of
    a random CNOT circuit of 5 n^2 gates."""
    return ParityMatrix.from_circuit(random_cnot_circuit(n, 5 * n * n, seed).cnot_pairs(), n)


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
# Reference mapping search: two memos and one new RNG per candidate
# ---------------------------------------------------------------------------
# The mask-based search as it was before its step memo: non-cut vertices and
# Hamiltonian paths in two memos shared by both construction modes, a new
# ``random.Random(derive_seed(seed, *key))`` for each construction, and a
# set difference for the unknown-vertex check.  Only the cut points are read
# from the mask that ``articulation_points`` now returns.

class ReferenceMappingSearch:
    def __init__(self, graph: CouplingGraph) -> None:
        self.graph = graph
        self.keys = key_qubits(graph)
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
            rng = random.Random(derive_seed(config.seed, it, k))
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
    """Removal replay over rebuilt residual graphs."""
    if not set(mapping.assign) <= graph.vertices:
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
    return SteinerTree(root, parent, terms)


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


def target_aided_rows_bruteforce(m: ParityMatrix, i: int) -> set[int]:
    """Subset-enumeration oracle for ``target_aided_rows`` (rows <= 10)."""
    if m.n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force matcher limited to {BRUTEFORCE_LIMIT} rows, got {m.n}")
    rows = m.rows
    y = rows[i] ^ (1 << i)
    if not y:
        return set()
    rest = range(i + 1, m.n)
    for size in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            if reduce(xor, (rows[k] for k in combo)) == y:
                return set(combo)
    raise RuntimeError(f"no target-aided row set for row {i}")


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
