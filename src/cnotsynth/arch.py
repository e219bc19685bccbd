"""Error-weighted coupling graphs: parsing, device catalog, cut points, Hamiltonian paths.

A coupling graph describes which physical-qubit pairs support a CNOT and at
what error rate.  Graphs are immutable after construction; ``remove_vertex``
returns a new graph.  Each graph also carries a bitmask view, built on first
use: one int neighbour mask per vertex id and one mask of all vertices.  A
residual graph of the mapping search is then just an int vertex mask over
one base graph, and connectivity, cut points and Hamiltonian paths are
computed on that mask without building a new graph.  Memoizing those
queries is left to the caller (the mapping search keeps one memo per
search).
"""
from __future__ import annotations

import re
import warnings
from typing import Iterable, Iterator

HAMILTONIAN_VERTEX_LIMIT = 32

#: Fallback single-qubit gate error for devices without calibration data.
DEFAULT_ONE_QUBIT_ERROR = 1e-3

_DEFAULT_PARAMETRIC_ERROR = 0.01


class ArchError(ValueError):
    """Malformed architecture description."""


class CouplingGraph:
    """Undirected physical-qubit graph with per-edge CNOT error rates.

    Vertices are integer ids (not necessarily contiguous once vertices have
    been removed).  Equality and hashing cover vertices, edges and error
    rates but ignore the display ``name`` and calibration extras.
    """

    __slots__ = ("vertices", "edge_error", "adj", "name", "one_qubit_error", "_hash", "_masks")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, float]],
        name: str | None = None,
        one_qubit_error: float | None = None,
    ) -> None:
        vset = frozenset(int(v) for v in vertices)
        if any(v < 0 for v in vset):
            raise ArchError("vertex ids must be non-negative")
        edge_error: dict[tuple[int, int], float] = {}
        adj: dict[int, set[int]] = {v: set() for v in vset}
        for u, v, err in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ArchError(f"self-loop on vertex {u}")
            if u not in vset or v not in vset:
                raise ArchError(f"edge ({u},{v}) references unknown vertex")
            err = float(err)
            if not (0.0 <= err < 1.0):
                raise ArchError(f"edge ({u},{v}) error rate {err} outside [0,1)")
            key = (u, v) if u < v else (v, u)
            if key in edge_error:
                raise ArchError(f"duplicate edge ({key[0]},{key[1]})")
            edge_error[key] = err
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = vset
        self.edge_error = edge_error
        self.adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        self.name = name
        self.one_qubit_error = one_qubit_error
        self._hash: int | None = None
        self._masks: tuple[tuple[int, ...], int] | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_error)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_error

    def error(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_error[key]
        except KeyError:
            raise ArchError(f"({u},{v}) is not a coupling edge") from None

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, error) triples sorted by (u, v), u < v."""
        return [(u, v, self.edge_error[(u, v)]) for u, v in sorted(self.edge_error)]

    def _mask_view(self) -> tuple[tuple[int, ...], int]:
        if self._masks is None:
            nbr = [0] * (max(self.vertices, default=-1) + 1)
            for u, v in self.edge_error:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
            self._masks = (tuple(nbr), sum(1 << v for v in self.vertices))
        return self._masks

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Entry v has bit w set iff (v, w) is an edge; indexed by vertex id."""
        return self._mask_view()[0]

    @property
    def vertex_mask(self) -> int:
        """Bit v is set iff v is a vertex."""
        return self._mask_view()[1]

    def is_connected(self, mask: int | None = None) -> bool:
        """Whether the vertices in ``mask`` (default: all) induce a connected subgraph."""
        nbr, mask = _residual_mask(self, mask)
        return not mask or _flood(nbr, mask & -mask, mask) == mask

    def components(self) -> list[frozenset[int]]:
        nbr, remaining = self._mask_view()
        out = []
        while remaining:
            comp = _flood(nbr, remaining & -remaining, remaining)
            out.append(frozenset(mask_vertices(comp)))
            remaining &= ~comp
        return out

    def _key(self) -> tuple:
        return (self.vertices, tuple(sorted(self.edge_error.items())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CouplingGraph):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"CouplingGraph({label}: {self.num_vertices} vertices, {self.num_edges} edges)"


def mask_vertices(mask: int) -> Iterator[int]:
    """The vertex ids whose bits are set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flood(nbr: tuple[int, ...], start: int, allowed: int) -> int:
    """Mask of the vertices reachable from the ``start`` bits inside ``allowed``."""
    reach = frontier = start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~reach
        reach |= frontier
    return reach


def remove_vertex(graph: CouplingGraph, v: int) -> CouplingGraph:
    """New graph without ``v`` and its incident edges; the input is unchanged."""
    if v not in graph.vertices:
        raise ArchError(f"vertex {v} not in graph")
    edges = [(a, b, e) for (a, b), e in graph.edge_error.items() if a != v and b != v]
    return CouplingGraph(
        graph.vertices - {v},
        edges,
        name=graph.name,
        one_qubit_error=graph.one_qubit_error,
    )


def induced_subgraph(graph: CouplingGraph, vertices: Iterable[int]) -> CouplingGraph:
    """Subgraph induced by ``vertices`` (must all exist in the graph)."""
    keep = frozenset(int(v) for v in vertices)
    missing = keep - graph.vertices
    if missing:
        raise ArchError(f"vertices {sorted(missing)} not in graph")
    edges = [(a, b, e) for (a, b), e in graph.edge_error.items() if a in keep and b in keep]
    return CouplingGraph(keep, edges, name=graph.name, one_qubit_error=graph.one_qubit_error)


def _residual_mask(graph: CouplingGraph, mask: int | None) -> tuple[tuple[int, ...], int]:
    nbr, full = graph._mask_view()
    if mask is None:
        return nbr, full
    if mask & ~full:
        raise ArchError(f"vertices {list(mask_vertices(mask & ~full))} not in graph")
    return nbr, mask


# ---------------------------------------------------------------------------
# Articulation points / key qubits
# ---------------------------------------------------------------------------

def articulation_points(graph: CouplingGraph, mask: int | None = None) -> frozenset[int]:
    """Vertices whose removal disconnects the graph (cut points).

    With ``mask``, the query is about the subgraph induced by the vertices
    set in it.  Computed with an iterative lowpoint DFS that visits
    neighbours in ascending id order.  Requires a connected input.
    """
    nbr, mask = _residual_mask(graph, mask)
    if not mask:
        return frozenset()
    root_bit = mask & -mask
    root = root_bit.bit_length() - 1
    disc = [0] * len(nbr)
    low = [0] * len(nbr)
    points: set[int] = set()
    seen = root_bit
    timer = 1
    root_children = 0
    # Every vertex already seen when v is discovered is an ancestor of v, so
    # v's back edges are known at discovery; the tree edges out of v are
    # then found one at a time among its still-unseen neighbours.
    path = [root]
    while path:
        v = path[-1]
        fresh = nbr[v] & mask & ~seen
        if fresh:
            bit = fresh & -fresh
            w = bit.bit_length() - 1
            seen |= bit
            lw = disc[w] = timer
            timer += 1
            back = nbr[w] & seen & ~(1 << v)
            while back:
                b = back & -back
                d = disc[b.bit_length() - 1]
                if d < lw:
                    lw = d
                back ^= b
            low[w] = lw
            if v == root:
                root_children += 1
            path.append(w)
            continue
        path.pop()
        if path:
            p = path[-1]
            if low[v] < low[p]:
                low[p] = low[v]
            if p != root and low[v] >= disc[p]:
                points.add(p)
    if seen != mask:
        raise ArchError("articulation points are defined here for connected graphs only")
    if root_children > 1:
        points.add(root)
    return frozenset(points)


def key_qubits(graph: CouplingGraph) -> frozenset[int]:
    """Non-cut vertices, eligible for priority mapping."""
    return graph.vertices - articulation_points(graph)


# ---------------------------------------------------------------------------
# Hamiltonian path search
# ---------------------------------------------------------------------------

def has_hamiltonian_path(graph: CouplingGraph, mask: int | None = None) -> tuple[int, ...] | None:
    """Deterministic exhaustive Hamiltonian-path search.

    With ``mask``, the search runs on the subgraph induced by the vertices
    set in it.  Tries start vertices in ascending id order and neighbors in
    ascending id order; the first complete path found is returned.
    Connectivity pruning only discards branches that cannot complete, so the
    returned path is the same one plain backtracking would find.

    Returns:
        The path as a vertex tuple, or ``None`` when no Hamiltonian path
        exists.  Guardrail: at most 32 vertices.
    """
    nbr, mask = _residual_mask(graph, mask)
    n = mask.bit_count()
    if n > HAMILTONIAN_VERTEX_LIMIT:
        raise ArchError(f"Hamiltonian-path search limited to {HAMILTONIAN_VERTEX_LIMIT} vertices, got {n}")
    if n == 0:
        return None
    if n == 1:
        return (mask.bit_length() - 1,)
    if _flood(nbr, mask & -mask, mask) != mask:
        return None
    # More than two degree-1 vertices cannot all be path endpoints.
    if sum(1 for v in mask_vertices(mask) if (nbr[v] & mask).bit_count() == 1) > 2:
        return None

    path: list[int] = []

    def extend(v: int, unvisited: int) -> bool:
        # ``unvisited`` excludes v; the path can only complete while the
        # unvisited vertices plus the path head form one component.
        path.append(v)
        if not unvisited:
            return True
        allowed = unvisited | (1 << v)
        if _flood(nbr, 1 << v, allowed) == allowed:
            step = nbr[v] & unvisited
            while step:
                bit = step & -step
                if extend(bit.bit_length() - 1, unvisited ^ bit):
                    return True
                step ^= bit
        path.pop()
        return False

    for start in mask_vertices(mask):
        if extend(start, mask & ~(1 << start)):
            return tuple(path)
    return None


# ---------------------------------------------------------------------------
# Architecture file format
# ---------------------------------------------------------------------------

def parse_arch(text: str) -> CouplingGraph:
    """Parse the architecture file format.

    Line 1 is ``qubits N``; each following line is ``edge U V ERR`` with
    0 <= U,V < N and ERR a decimal in [0,1).  ``#`` starts a comment.
    A disconnected graph parses with a warning; synthesis rejects it.
    """
    n: int | None = None
    triples: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise ArchError(f"line {lineno}: expected 'qubits N', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ArchError(f"line {lineno}: invalid qubit count {parts[1]!r}") from None
            if n < 1:
                raise ArchError(f"line {lineno}: qubit count must be >= 1")
            continue
        if parts[0] != "edge" or len(parts) != 4:
            raise ArchError(f"line {lineno}: expected 'edge U V ERR', got {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
            err = float(parts[3])
        except ValueError:
            raise ArchError(f"line {lineno}: malformed edge fields {parts[1:]}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ArchError(f"line {lineno}: edge endpoint outside [0,{n})")
        if not (0.0 <= err < 1.0):
            raise ArchError(f"line {lineno}: error rate {err} outside [0,1)")
        triples.append((u, v, err))
    if n is None:
        raise ArchError("empty architecture description: missing 'qubits N' line")
    try:
        graph = CouplingGraph(range(n), triples)
    except ArchError as exc:
        raise ArchError(str(exc)) from None
    if not graph.is_connected():
        warnings.warn("architecture graph is disconnected; synthesis will reject it", stacklevel=2)
    return graph


def write_arch(graph: CouplingGraph) -> str:
    """Serialize to the architecture file format (edges sorted by endpoints).

    Requires contiguous vertex ids 0..N-1 so that the round trip is lossless.
    """
    n = graph.num_vertices
    if graph.vertices != frozenset(range(n)):
        raise ArchError("write_arch requires contiguous vertex ids 0..N-1")
    lines = [f"qubits {n}"]
    for u, v, err in graph.edges():
        lines.append(f"edge {u} {v} {err!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in device catalog
# ---------------------------------------------------------------------------

_QUITO_EDGES = [
    (0, 1, 1.631e-2),
    (1, 2, 7.768e-3),
    (1, 3, 7.440e-3),
    (3, 4, 8.791e-3),
]

_GUADALUPE_EDGES = [
    (0, 1, 1.206e-2),
    (1, 2, 1.208e-2),
    (2, 3, 1.332e-2),
    (3, 5, 1.187e-2),
    (5, 8, 7.481e-3),
    (8, 9, 1.045e-2),
    (8, 11, 9.076e-3),
    (11, 14, 7.613e-3),
    (13, 14, 8.800e-3),
    (12, 13, 6.825e-3),
    (12, 15, 5.464e-3),
    (10, 12, 1.326e-2),
    (7, 10, 1.523e-2),
    (4, 7, 2.458e-2),
    (1, 4, 8.158e-3),
    (6, 7, 1.073e-2),
]

# 20-qubit grid with diagonal couplers.
_TOKYO_EDGE_PAIRS = [
    (0, 1), (1, 2), (2, 3), (3, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (3, 9), (4, 8),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (5, 10), (6, 11), (7, 12), (8, 13), (5, 11), (6, 10), (7, 13), (8, 12),
    (10, 11), (11, 12), (12, 13), (13, 14),
    (10, 15), (11, 16), (13, 18), (14, 19), (11, 17), (12, 16), (13, 19), (14, 18),
    (15, 16), (16, 17),
]

# Uniform CNOT errors for topology-only devices come from per-device average
# calibration; 0.01 for the parametric families.
_TOKYO_ERROR = 0.0313
_MANILA_ERROR = 0.0116
_WUYUAN2_ERROR = 0.16256
_SCQ10_ERROR = 0.033189

_LINEAR_RE = re.compile(r"^linear\((\d+)\)$")
_GRID_RE = re.compile(r"^grid\((\d+),(\d+)\)$")

BUILTIN_NAMES = ("quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo", "linear(N)", "grid(R,C)")


def _linear(n: int, err: float, name: str, one_qubit_error: float | None = None) -> CouplingGraph:
    if n < 1:
        raise ArchError("linear chain needs at least 1 qubit")
    edges = [(i, i + 1, err) for i in range(n - 1)]
    return CouplingGraph(range(n), edges, name=name, one_qubit_error=one_qubit_error)


def _grid(rows: int, cols: int, err: float, name: str) -> CouplingGraph:
    if rows < 1 or cols < 1:
        raise ArchError("grid dimensions must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, err))
            if r + 1 < rows:
                edges.append((v, v + cols, err))
    return CouplingGraph(range(rows * cols), edges, name=name)


def builtin(name: str) -> CouplingGraph:
    """Look up a built-in device by name.

    Known names: quito, guadalupe, manila, wuyuan2, scq10, tokyo, plus the
    parametric families ``linear(N)`` and ``grid(R,C)``.
    """
    key = name.strip().lower().replace(" ", "")
    if key == "quito":
        return CouplingGraph(range(5), _QUITO_EDGES, name="quito", one_qubit_error=0.0017)
    if key == "guadalupe":
        return CouplingGraph(range(16), _GUADALUPE_EDGES, name="guadalupe", one_qubit_error=0.0004)
    if key == "manila":
        return _linear(5, _MANILA_ERROR, "manila", one_qubit_error=0.0011)
    if key == "wuyuan2":
        return _linear(6, _WUYUAN2_ERROR, "wuyuan2")
    if key == "scq10":
        return _linear(10, _SCQ10_ERROR, "scq10")
    if key == "tokyo":
        edges = [(u, v, _TOKYO_ERROR) for u, v in _TOKYO_EDGE_PAIRS]
        return CouplingGraph(range(20), edges, name="tokyo")
    m = _LINEAR_RE.match(key)
    if m:
        n = int(m.group(1))
        return _linear(n, _DEFAULT_PARAMETRIC_ERROR, f"linear({n})")
    m = _GRID_RE.match(key)
    if m:
        r, c = int(m.group(1)), int(m.group(2))
        return _grid(r, c, _DEFAULT_PARAMETRIC_ERROR, f"grid({r},{c})")
    raise ArchError(f"unknown architecture {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
