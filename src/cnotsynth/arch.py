"""Error-weighted coupling graphs: parsing, device catalog, blocks and cut points, Hamiltonian paths.

A coupling graph describes which physical-qubit pairs support a CNOT and at
what error rate.  Graphs are immutable after construction, but for the
display ``name``: ``cli.load_arch`` names a device file that has none after
the file.  Each graph keeps one adjacency, as bitmasks: one int neighbour
mask per vertex id and one mask of all vertices, plus one weight row per
vertex id holding the ``-ln(1 - e)`` routing weight of each incident edge.
A residual graph, in the mapping search, in layer elimination and in the
mapping objective, is an int vertex mask over one base graph; connectivity,
biconnected blocks, cut points and Hamiltonian paths take that mask and
never build a new graph.  ``remove_vertex`` (a checked ``induced_subgraph``)
and ``induced_subgraph`` still build one: nothing in the package calls
them, but the benchmark's layer tracer wraps both by name and the tests
rebuild residual graphs with them as references.  A bipartite graph also
keeps one colour class of a 2-colouring, which lets the Hamiltonian-path
search reject residuals by counting.  Memoizing mask queries is left to the
caller (the mapping search keeps one memo per search).
"""
from __future__ import annotations

import math
import re
import warnings
from typing import Iterable, Iterator

HAMILTONIAN_VERTEX_LIMIT = 32

#: Fallback single-qubit gate error for devices without calibration data.
DEFAULT_ONE_QUBIT_ERROR = 1e-3

_DEFAULT_PARAMETRIC_ERROR = 0.01


class ArchError(ValueError):
    """Malformed architecture description."""


def edge_weight(error: float) -> float:
    """Additive routing weight -ln(1 - e); zero-error edges weigh 0."""
    return -math.log1p(-error)


class CouplingGraph:
    """Undirected physical-qubit graph with per-edge CNOT error rates.

    Vertices are integer ids (not necessarily contiguous once vertices have
    been removed).  Equality and hashing cover vertices, edges and error
    rates but ignore the display ``name`` and calibration extras.

    ``neighbor_masks[v]`` has bit w set iff (v, w) is an edge, and bit v of
    ``vertex_mask`` is set iff v is a vertex.  ``weight_rows[v]`` lists
    ``(w, edge_weight(e))`` for every edge (v, w), w ascending.  All three
    are indexed by vertex id; ids that are not vertices have no neighbours.
    ``width`` is the largest vertex id plus one (0 for an empty graph): the
    number of physical-qubit indices, and so the register width of a circuit
    over the device.
    ``colour_mask`` is one colour class of a proper 2-colouring (every edge
    has exactly one end in it), or ``None`` when the graph is not bipartite.
    """

    __slots__ = ("vertices", "width", "edge_error", "neighbor_masks", "vertex_mask", "weight_rows",
                 "colour_mask", "name", "one_qubit_error")

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
        if one_qubit_error is not None and not 0.0 <= one_qubit_error <= 1.0:
            raise ArchError(f"one-qubit error rate {one_qubit_error} outside [0,1]")
        edge_error: dict[tuple[int, int], float] = {}
        self.width = width = max(vset, default=-1) + 1
        nbr = [0] * width
        rows: list[list[tuple[int, float]]] = [[] for _ in range(width)]
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
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            weight = edge_weight(err)
            rows[u].append((v, weight))
            rows[v].append((u, weight))
        self.vertices = vset
        self.edge_error = edge_error
        self.neighbor_masks = tuple(nbr)
        self.vertex_mask = sum(1 << v for v in vset)
        self.weight_rows = tuple(tuple(sorted(row)) for row in rows)
        self.colour_mask = _colour_class(self.neighbor_masks, self.vertex_mask)
        self.name = name
        self.one_qubit_error = one_qubit_error

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_error)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of vertex ``v`` in ascending order."""
        return tuple(mask_vertices(self._neighbor_mask(v)))

    def degree(self, v: int) -> int:
        return self._neighbor_mask(v).bit_count()

    def _neighbor_mask(self, v: int) -> int:
        if v not in self.vertices:
            raise KeyError(v)
        return self.neighbor_masks[v]

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

    def is_connected(self, mask: int | None = None) -> bool:
        """Whether the vertices in ``mask`` (default: all) induce a connected subgraph."""
        nbr, mask = _residual_mask(self, mask)
        return not mask or _flood(nbr, mask & -mask, mask) == mask

    def _key(self) -> tuple:
        return (self.vertices, tuple(sorted(self.edge_error.items())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CouplingGraph):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

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


def _colour_class(nbr: tuple[int, ...], mask: int) -> int | None:
    """Mask of the odd breadth-first layers of each component, or ``None``
    when an edge joins two vertices of one layer (an odd cycle)."""
    side = 0
    while mask:
        layer = seen = mask & -mask
        odd = False
        while layer:
            grow = 0
            rest = layer
            while rest:
                low = rest & -rest
                grow |= nbr[low.bit_length() - 1]
                rest ^= low
            if grow & layer:
                return None
            if odd:
                side |= layer
            layer = grow & ~seen
            seen |= layer
            odd = not odd
        mask &= ~seen
    return side


def remove_vertex(graph: CouplingGraph, v: int) -> CouplingGraph:
    """New graph without ``v`` and its incident edges; the input is unchanged."""
    if v not in graph.vertices:
        raise ArchError(f"vertex {v} not in graph")
    return induced_subgraph(graph, graph.vertices - {v})


def induced_subgraph(graph: CouplingGraph, vertices: Iterable[int]) -> CouplingGraph:
    """Subgraph induced by ``vertices`` (must all exist in the graph)."""
    keep = frozenset(int(v) for v in vertices)
    missing = keep - graph.vertices
    if missing:
        raise ArchError(f"vertices {sorted(missing)} not in graph")
    edges = [(a, b, e) for (a, b), e in graph.edge_error.items() if a in keep and b in keep]
    return CouplingGraph(keep, edges, name=graph.name, one_qubit_error=graph.one_qubit_error)


def _residual_mask(graph: CouplingGraph, mask: int | None) -> tuple[tuple[int, ...], int]:
    nbr, full = graph.neighbor_masks, graph.vertex_mask
    if mask is None:
        return nbr, full
    if mask & ~full:
        raise ArchError(f"vertices {list(mask_vertices(mask & ~full))} not in graph")
    return nbr, mask


# ---------------------------------------------------------------------------
# Biconnected blocks / articulation points / key qubits
# ---------------------------------------------------------------------------

def biconnected_blocks(graph: CouplingGraph, mask: int | None = None) -> list[int]:
    """The biconnected blocks of the graph, each as a vertex mask.

    A block is a maximal subgraph with at least one edge and no cut point of
    its own: a bridge or a biconnected component (Hopcroft and Tarjan,
    "Efficient algorithms for graph manipulation", CACM 16(6), 1973).  Every
    edge lies in exactly one block, and the cut points are the vertices in
    two or more (``cut_vertices``); a graph of one vertex has no block.
    With ``mask``, the query is about the subgraph induced by the vertices
    set in it.  Computed with an iterative lowpoint DFS that visits
    neighbours in ascending id order.  Requires a connected input.
    """
    nbr, mask = _residual_mask(graph, mask)
    if not mask:
        return []
    root_bit = mask & -mask
    disc = [0] * len(nbr)
    low = [0] * len(nbr)
    before = [0] * len(nbr)
    blocks: list[int] = []
    seen = root_bit
    closed = 0
    timer = 1
    # Every vertex already seen when v is discovered is an ancestor of v, so
    # v's back edges are known at discovery; the tree edges out of v are
    # then found one at a time among its still-unseen neighbours.  When v
    # is popped, the vertices seen since its discovery (not in
    # ``before[v]``) are its subtree.  If that subtree has no back edge
    # above v's parent p, its vertices not yet ``closed`` into a deeper
    # block form one block with p.
    path = [root_bit.bit_length() - 1]
    while path:
        v = path[-1]
        fresh = nbr[v] & mask & ~seen
        if fresh:
            bit = fresh & -fresh
            w = bit.bit_length() - 1
            before[w] = seen
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
            path.append(w)
            continue
        path.pop()
        if path:
            p = path[-1]
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                subtree = seen & ~before[v] & ~closed
                blocks.append(subtree | 1 << p)
                closed |= subtree
    if seen != mask:
        raise ArchError("articulation points are defined here for connected graphs only")
    return blocks


def cut_vertices(blocks: Iterable[int]) -> int:
    """Mask of the vertices set in two or more of the ``blocks`` masks."""
    seen = shared = 0
    for block in blocks:
        shared |= seen & block
        seen |= block
    return shared


def articulation_points(graph: CouplingGraph, mask: int | None = None) -> int:
    """Mask of the vertices whose removal disconnects the graph (cut points).

    With ``mask``, the query is about the subgraph induced by the vertices
    set in it, and its non-cut vertices are ``mask & ~articulation_points(graph,
    mask)``.  The cut points are the vertices in two or more biconnected
    blocks (``biconnected_blocks``).  Requires a connected input.
    """
    return cut_vertices(biconnected_blocks(graph, mask))


def key_qubits(graph: CouplingGraph) -> frozenset[int]:
    """Non-cut vertices, eligible for priority mapping."""
    return frozenset(mask_vertices(graph.vertex_mask & ~articulation_points(graph)))


# ---------------------------------------------------------------------------
# Hamiltonian path search
# ---------------------------------------------------------------------------

def has_hamiltonian_path(graph: CouplingGraph, mask: int | None = None) -> tuple[int, ...] | None:
    """Deterministic exhaustive Hamiltonian-path search.

    With ``mask``, the search runs on the subgraph induced by the vertices
    set in it.  Tries start vertices in ascending id order and neighbors in
    ascending id order; the first complete path found is returned.

    Three exact prunings only discard branches that cannot complete, so the
    returned path is the same one plain backtracking would find:

    * On a bipartite graph a path alternates between the two colour classes
      (``graph.colour_mask`` and the rest), so the residual's classes may
      differ by at most one; otherwise there is no path and nothing is
      searched.  When they differ by one, the path starts in the larger
      class, so starts in the smaller class are cut.  The head's class
      minus the other class, counted over the head and the unvisited
      vertices, must be 0 or 1; a step to a neighbour keeps that true, so
      checking each start is the same as checking every branch.
    * Endpoint rule (Rubin, J. ACM 21(4), 1974): an unvisited vertex with
      one neighbour among the head and the unvisited vertices can only be
      the path's last vertex, so a branch with two such *ends* is cut.  The
      ends are passed down the recursion; a step off head ``v`` changes the
      count of ``v``'s unvisited neighbours only, so only they are
      re-checked.  At the top, the head is not yet chosen: more than two
      vertices of degree 1 would leave every start with two ends, so the
      search returns ``None`` at once, and with two, only they are tried as
      starts.
    * A branch whose head and unvisited vertices are not one component is
      cut (the first start's check also rejects a disconnected residual).
      A step into head ``v`` off head ``u`` follows a check that proved
      ``u``, ``v`` and the unvisited vertices one component, so they stay
      one after ``u`` leaves when each other unvisited neighbour of ``u``
      lies within two steps of ``v`` among them.  Only a branch that fails
      this local check (or a start) floods the component.

    Returns:
        The path as a vertex tuple, or ``None`` when no Hamiltonian path
        exists (the empty residual included).  Guardrail: at most 32
        vertices.
    """
    nbr, mask = _residual_mask(graph, mask)
    n = mask.bit_count()
    if n > HAMILTONIAN_VERTEX_LIMIT:
        raise ArchError(f"Hamiltonian-path search limited to {HAMILTONIAN_VERTEX_LIMIT} vertices, got {n}")
    starts = mask
    side = graph.colour_mask
    if side is not None:
        surplus = 2 * (mask & side).bit_count() - n
        if abs(surplus) > 1:
            return None
        if surplus:
            starts = mask & side if surplus > 0 else mask & ~side
    ends = sum(1 << v for v in mask_vertices(mask) if (nbr[v] & mask).bit_count() == 1)
    if ends.bit_count() > 2:
        return None
    if ends.bit_count() == 2:
        starts &= ends

    path: list[int] = []

    def extend(v: int, unvisited: int, ends: int, left: int) -> bool:
        # ``unvisited`` excludes v; ``ends`` holds the unvisited vertices
        # with one neighbour in ``unvisited | head``; ``left`` holds the
        # previous head's neighbours in ``unvisited | head`` (0 at a start).
        path.append(v)
        if not unvisited:
            return True
        allowed = unvisited | (1 << v)
        if not ends & (ends - 1):
            local = False
            if left:
                # The previous head's other neighbours must each be v, touch
                # v, or touch one of v's unvisited neighbours.
                close = nbr[v] & unvisited | (1 << v)
                rest = left & ~close
                while rest and nbr[(rest & -rest).bit_length() - 1] & close:
                    rest &= rest - 1
                local = not rest
            if local or _flood(nbr, 1 << v, allowed) == allowed:
                step = nbr[v] & unvisited
                # Leaving v lowers the counts of its unvisited neighbours only.
                ends &= ~step
                rest = step
                while rest:
                    bit = rest & -rest
                    if (nbr[bit.bit_length() - 1] & unvisited).bit_count() == 1:
                        ends |= bit
                    rest ^= bit
                rest = step
                while rest:
                    bit = rest & -rest
                    if extend(bit.bit_length() - 1, unvisited ^ bit, ends & ~bit, step):
                        return True
                    rest ^= bit
        path.pop()
        return False

    for start in mask_vertices(starts):
        if extend(start, mask & ~(1 << start), ends & ~(1 << start), 0):
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
    graph = CouplingGraph(range(n), triples)
    if not graph.is_connected():
        warnings.warn("architecture graph is disconnected; synthesis will reject it", stacklevel=2)
    return graph


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
