"""Key-qubit priority initial mapping and its tabu-search refinement.

Layer-by-layer elimination removes the physical qubit hosting each finished
logical qubit, so the initial mapping must keep every residual graph
connected.  A mapping is built by assigning logical qubits, in increasing
index order, to non-cut vertices of the shrinking graph; once the residual
graph carries a Hamiltonian path covering exactly the remaining quota, the
rest of the assignment follows that path.

No residual graph is ever built: it is the base graph's vertex mask with the
assigned vertices' bits cleared, and its cut points and Hamiltonian path are
computed on that mask (see ``arch``).  Tabu search perturbs the seed vertex
of the construction and keeps a bounded table of the best-scoring mappings
found; one ``MappingSearch`` memo, keyed by mask, serves all constructions
and scores of a search and is dropped when the search returns.
"""
from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    articulation_points,
    has_hamiltonian_path,
    induced_subgraph,
    key_qubits,
    mask_vertices,
    remove_vertex,  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
)


@dataclass(frozen=True)
class Mapping:
    """Injective logical-to-physical assignment; assign[m] hosts logical m."""

    assign: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.assign)) != len(self.assign):
            raise ValueError("mapping must be injective")
        if not self.assign:
            raise ValueError("mapping must be non-empty")

    @property
    def n(self) -> int:
        return len(self.assign)

    def physical(self, logical: int) -> int:
        return self.assign[logical]

    def inverse(self) -> dict[int, int]:
        return {p: m for m, p in enumerate(self.assign)}


@dataclass(frozen=True)
class TabuConfig:
    """Tabu-table length, iteration budget and the RNG seed."""

    tabu_len: int = 20
    iterations: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tabu_len < 1:
            raise ValueError("tabu_len must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def derive_seed(seed: int, *key) -> int:
    """64-bit seed derived from (seed, key) by hashing; reproducible in isolation."""
    digest = hashlib.blake2b(repr((seed, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *key) -> random.Random:
    """Independent RNG seeded with ``derive_seed(seed, *key)``."""
    return random.Random(derive_seed(seed, *key))


def _as_rng(rng: random.Random | int) -> random.Random:
    return rng if isinstance(rng, random.Random) else random.Random(rng)


class MappingSearch:
    """State shared by the constructions and scores of one mapping search.

    A residual graph is an int vertex mask over the base graph.  The base
    graph's connectivity, key qubits and per-vertex mean edge errors are
    computed once, and one memo keyed by mask holds the non-cut vertices and
    Hamiltonian path of residual graphs and the connectivity product of
    mapped vertex sets.  ``tabu_search_table`` makes one per search and
    drops it on return, so nothing is kept between searches.
    """

    __slots__ = ("graph", "connected", "keys", "mean_error", "_non_cut", "_path", "_product")

    def __init__(self, graph: CouplingGraph) -> None:
        self.graph = graph
        self.connected = graph.is_connected()
        self.keys = key_qubits(graph) if self.connected else frozenset()
        # Mean error of the full-graph edges at each vertex; 0.0 for an
        # isolated vertex, which adds no cost.
        self.mean_error: dict[int, float] = {}
        for v in graph.vertices:
            nbrs = graph.neighbors(v)
            self.mean_error[v] = sum(graph.error(v, w) for w in nbrs) / len(nbrs) if nbrs else 0.0
        self._non_cut: dict[int, tuple[int, ...]] = {}
        self._path: dict[int, tuple[int, ...] | None] = {}
        self._product: dict[int, float] = {}

    @classmethod
    def of(cls, graph: CouplingGraph, search: MappingSearch | None) -> MappingSearch:
        if search is None:
            return cls(graph)
        if search.graph is not graph:
            raise ValueError("search state belongs to a different graph")
        return search

    def non_cut(self, residual: int) -> tuple[int, ...]:
        """Non-cut vertices of a connected residual graph, in ascending order."""
        choices = self._non_cut.get(residual)
        if choices is None:
            cuts = articulation_points(self.graph, residual)
            choices = tuple(v for v in mask_vertices(residual) if v not in cuts)
            self._non_cut[residual] = choices
        return choices

    def hamiltonian_path(self, residual: int) -> tuple[int, ...] | None:
        if residual not in self._path:
            self._path[residual] = has_hamiltonian_path(self.graph, residual)
        return self._path[residual]

    def connectivity_product(self, assign: Sequence[int]) -> float:
        """Product of connectivity factors over the subgraph induced by ``assign``."""
        mask = 0
        for v in assign:
            mask |= 1 << v
        prod = self._product.get(mask)
        if prod is None:
            prod = _connectivity_product(induced_subgraph(self.graph, assign))
            self._product[mask] = prod
        return prod


def initial_mapping(
    graph: CouplingGraph,
    n: int,
    key_order: Sequence[int],
    rng: random.Random | int,
    search: MappingSearch | None = None,
) -> Mapping:
    """Key-qubit priority initial mapping.

    Logical 0 goes to key_order[0]; afterwards each step assigns the next
    logical index to a uniformly random non-cut vertex of the residual graph
    and removes it.  Whenever the residual graph has a Hamiltonian path
    covering exactly the remaining quota, the remaining logical qubits follow
    the path and the construction stops.

    Args:
        graph: connected coupling graph.
        n: number of logical qubits, 1 <= n <= number of vertices.
        key_order: candidate seed vertices; only entry 0 is consumed, and all
            entries must be key qubits of ``graph``.
        rng: random.Random instance or a seed.
        search: state of the enclosing search over ``graph``; a fresh one
            is made when omitted.

    Returns:
        A mapping whose removal replay keeps the residual graph connected.
    """
    rng = _as_rng(rng)
    search = MappingSearch.of(graph, search)
    if not search.connected:
        raise ValueError("initial mapping requires a connected coupling graph")
    if not 1 <= n <= graph.num_vertices:
        raise ValueError(f"n={n} outside [1, {graph.num_vertices}]")
    order = [int(v) for v in key_order]
    if not order:
        raise ValueError("key_order must be non-empty")
    bad = [v for v in order if v not in search.keys]
    if bad:
        raise ValueError(f"key_order entries {bad} are cut points or absent")

    assign: list[int] = []
    residual = graph.vertex_mask
    size = graph.num_vertices
    while len(assign) < n:
        quota = n - len(assign)
        # The path shortcut is an optimization; beyond the exhaustive-search
        # guardrail, key-qubit removal alone still terminates correctly.
        if size == quota and quota <= HAMILTONIAN_VERTEX_LIMIT:
            path = search.hamiltonian_path(residual)
            if path is not None:
                assign.extend(path)
                break
        if not assign:
            v = order[0]
        else:
            choices = search.non_cut(residual)
            if not choices:  # connected graphs always have a non-cut vertex
                raise RuntimeError("residual graph has no non-cut vertex")
            v = choices[rng.randrange(len(choices))]
        assign.append(v)
        residual &= ~(1 << v)
        size -= 1
    return Mapping(tuple(assign))


def replay_is_valid(graph: CouplingGraph, mapping: Mapping) -> bool:
    """Check that removing assign[0], assign[1], ... never disconnects the residual graph."""
    if not set(mapping.assign) <= graph.vertices:
        return False
    residual = graph.vertex_mask
    for v in mapping.assign[:-1]:
        residual &= ~(1 << v)
        if not graph.is_connected(residual):
            return False
    return True


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _shortest_path_data(graph: CouplingGraph):
    """All-pairs hop distances, shortest-path counts, and per-vertex totals.

    ``through[v]`` counts, over all vertex pairs (s, t) with s < t and
    v not in {s, t}, the shortest s-t paths passing through v.
    """
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


def _pair_factor(data, graph: CouplingGraph, i: int, j: int) -> float:
    verts, pos, dist, sigma, through = data
    if graph.has_edge(i, j):
        return 1.0
    ii, jj = pos[i], pos[j]
    if dist[ii][jj] < 0:
        return 0.0
    sij = sigma[ii][jj]
    total = 0.0
    for vi in range(len(verts)):
        if vi == ii or vi == jj:
            continue
        cnt = sigma[ii][vi] * sigma[vi][jj]
        if cnt and dist[ii][vi] + dist[vi][jj] == dist[ii][jj]:
            total += cnt / through[vi]
    return min(1.0, max(0.0, total / sij))


def connectivity_factor(subgraph: CouplingGraph, i: int, j: int) -> float:
    """Betweenness-style connectivity factor of a vertex pair in [0, 1].

    1 for adjacent pairs, 0 for disconnected pairs; otherwise the sum over
    intermediate vertices v of (shortest i-j paths through v) / (all
    shortest paths through v), divided by the number of shortest i-j paths.
    """
    if i == j:
        raise ValueError("connectivity factor needs two distinct vertices")
    if i not in subgraph.vertices or j not in subgraph.vertices:
        raise ValueError(f"({i},{j}) must be subgraph vertices")
    return _pair_factor(_shortest_path_data(subgraph), subgraph, i, j)


def _connectivity_product(subgraph: CouplingGraph) -> float:
    data = _shortest_path_data(subgraph)
    verts = data[0]
    prod = 1.0
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            prod *= _pair_factor(data, subgraph, verts[a], verts[b])
            if prod == 0.0:
                break
        if prod == 0.0:
            break
    return prod


def mapping_objective(graph: CouplingGraph, mapping: Mapping, search: MappingSearch | None = None) -> float:
    """Mapping score: connectivity product minus position-weighted error cost.

    The first term multiplies connectivity factors over all mapped pairs on
    the induced subgraph; the second sums (m+1) times the mean error of the
    full-graph edges incident to assign[m].  Later-removed qubits carry more
    weight, so low-error vertices should be kept until the end.  Higher is
    better.  ``search`` is the state of the enclosing search over ``graph``;
    a fresh one is made when omitted.
    """
    missing = set(mapping.assign) - graph.vertices
    if missing:
        raise ValueError(f"mapping uses unknown vertices {sorted(missing)}")
    search = MappingSearch.of(graph, search)
    score = search.connectivity_product(mapping.assign)
    mean_error = search.mean_error
    for m, v in enumerate(mapping.assign):
        score -= (m + 1) * mean_error[v]
    return score


# ---------------------------------------------------------------------------
# Tabu search
# ---------------------------------------------------------------------------

def tabu_search_table(graph: CouplingGraph, n: int, config: TabuConfig) -> list[tuple[Mapping, float]]:
    """Run the tabu search and return its final table as (mapping, score) pairs.

    The table is seeded with the deterministic initial mapping.  Every
    iteration builds ``tabu_len`` candidates, each from a fresh random
    rotation of the key-qubit list (changing the seed vertex) and a fresh RNG
    substream.  Candidates absent from the table whose score is at least the
    current table average are admitted; the table is trimmed back to
    ``tabu_len`` by dropping its lowest-scoring entry.
    """
    search = MappingSearch(graph)
    base_order = sorted(search.keys)
    seed_map = initial_mapping(graph, n, base_order, substream(config.seed, "seed"), search)

    scores: dict[tuple[int, ...], float] = {}

    def score(m: Mapping) -> float:
        s = scores.get(m.assign)
        if s is None:
            s = mapping_objective(graph, m, search)
            scores[m.assign] = s
        return s

    # table_scores[i] is the score of table[i].
    table: list[Mapping] = [seed_map]
    table_scores = [score(seed_map)]
    for it in range(config.iterations):
        for k in range(config.tabu_len):
            rng = substream(config.seed, it, k)
            offset = rng.randrange(len(base_order))
            order = base_order[offset:] + base_order[:offset]
            cand = initial_mapping(graph, n, order, rng, search)
            if cand in table:
                continue
            s = score(cand)
            if s >= sum(table_scores) / len(table):
                table.append(cand)
                table_scores.append(s)
                if len(table) > config.tabu_len:
                    worst = table_scores.index(min(table_scores))
                    del table[worst]
                    del table_scores[worst]
    return list(zip(table, table_scores))


def optimize_mapping(graph: CouplingGraph, n: int, config: TabuConfig | None = None) -> Mapping:
    """Tabu-search refinement of the key-qubit priority mapping.

    Returns the best-scoring entry of the final tabu table, so the result
    never scores below the seed mapping.
    """
    if config is None:
        config = TabuConfig()
    table = tabu_search_table(graph, n, config)
    return max(table, key=lambda pair: pair[1])[0]
