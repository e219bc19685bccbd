"""Key-qubit priority initial mapping and its tabu-search refinement.

Layer-by-layer elimination removes the physical qubit hosting each finished
logical qubit, so the initial mapping must keep every residual graph
connected.  A mapping is built from one seed vertex (a key qubit) by
assigning logical qubits, in increasing index order, to non-cut vertices of
the shrinking graph; when the mapping covers the whole device and the
residual graph carries a Hamiltonian path, the rest of the assignment
follows that path.

No residual graph is ever built: it is the base graph's vertex mask with the
assigned vertices' bits cleared, and its cut points and Hamiltonian path are
computed on that mask (see ``arch``).  The objective's subgraph induced by
the mapped qubits is likewise the mask of those qubits.  Tabu search
perturbs the seed vertex of the construction and keeps a bounded table of
the best-scoring mappings found.  A ``MappingSearch`` is the one context
that constructions and scores take: it holds the graph and memos keyed by
mask, and is dropped when the search returns.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    articulation_points,
    has_hamiltonian_path,
    key_qubits,
    mask_vertices,
)
from .arch import induced_subgraph  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
from .arch import remove_vertex  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)


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


#: A memoized construction step: (Hamiltonian path, None) or (None, non-cut vertices).
Step = tuple[tuple[int, ...] | None, tuple[int, ...] | None]


class MappingSearch:
    """The one context of a mapping search: its graph and shared state.

    Constructions and scores take the search and read the graph from it.  A
    residual graph is an int vertex mask over the base graph.  The base
    graph's key qubits and per-vertex mean edge errors are computed once.
    One step memo per construction mode (full-device or partial), keyed by
    residual mask, holds what a construction does there: follow a
    Hamiltonian path to the end, or draw among the non-cut vertices.  The
    modes need separate memos because only full-device constructions follow
    paths.  A third memo, keyed by the mask of the mapped vertices, holds
    connectivity products.
    ``tabu_search_table`` makes one per search and drops it on return, so
    nothing is kept between searches.
    """

    __slots__ = ("graph", "keys", "mean_error", "_steps", "_product")

    def __init__(self, graph: CouplingGraph) -> None:
        if not graph.is_connected():
            raise ValueError(
                f"mapping search requires a connected coupling graph; {graph.name or 'the graph'} is disconnected")
        self.graph = graph
        self.keys = key_qubits(graph)
        # Mean error of the full-graph edges at each vertex; 0.0 for an
        # isolated vertex, which adds no cost.
        self.mean_error: dict[int, float] = {}
        for v in graph.vertices:
            nbrs = graph.neighbors(v)
            self.mean_error[v] = sum(graph.error(v, w) for w in nbrs) / len(nbrs) if nbrs else 0.0
        self._steps: tuple[dict[int, Step], dict[int, Step]] = ({}, {})
        self._product: dict[int, float] = {}

    def step(self, residual: int, full: bool) -> Step:
        """The construction step at a connected residual graph, memoized.

        A full-device construction whose residual of at most
        ``HAMILTONIAN_VERTEX_LIMIT`` vertices has a Hamiltonian path follows
        it to the end: ``(path, None)``.  Otherwise the step draws among the
        non-cut vertices, in ascending order: ``(None, choices)``.  The
        whole device is never drawn from (the seed vertex is given), so its
        non-cut vertices are not computed: without a path, its entry is
        ``(None, None)``.
        """
        steps = self._steps[full]
        entry = steps.get(residual)
        if entry is None:
            path = None
            if full and residual.bit_count() <= HAMILTONIAN_VERTEX_LIMIT:
                path = has_hamiltonian_path(self.graph, residual)
            if path is not None or residual == self.graph.vertex_mask:
                entry = path, None
            else:
                entry = None, tuple(mask_vertices(residual & ~articulation_points(self.graph, residual)))
            steps[residual] = entry
        return entry

    def connectivity_product(self, assign: Sequence[int]) -> float:
        """Product of connectivity factors over the subgraph induced by ``assign``.

        Raises ``ValueError`` naming the ids in ``assign`` that are not
        vertices of the graph.
        """
        mask = 0
        try:
            for v in assign:
                mask |= 1 << v
        except ValueError:  # a negative id
            mask = -1
        if mask & ~self.graph.vertex_mask:
            raise ValueError(f"mapping uses unknown vertices {sorted(set(assign) - self.graph.vertices)}")
        prod = self._product.get(mask)
        if prod is None:
            prod = _connectivity_product(self.graph, mask)
            self._product[mask] = prod
        return prod


def initial_mapping(search: MappingSearch, n: int, first: int, rng: random.Random) -> Mapping:
    """Key-qubit priority initial mapping.

    Logical 0 goes to the seed vertex ``first``; afterwards each step assigns
    the next logical index to a uniformly random non-cut vertex of the
    residual graph and removes it.  When the mapping covers the whole device
    and the residual graph has a Hamiltonian path, the remaining logical
    qubits follow the path and the construction stops.

    Args:
        search: the search over a connected coupling graph.
        n: number of logical qubits, 1 <= n <= number of vertices.
        first: seed vertex, a key qubit of the graph.
        rng: source of the non-cut vertex choices.

    Returns:
        A mapping whose removal replay keeps the residual graph connected.
    """
    graph = search.graph
    if not 1 <= n <= graph.num_vertices:
        raise ValueError(f"n={n} outside [1, {graph.num_vertices}]")
    if first not in search.keys:
        raise ValueError(f"seed vertex {first} is a cut point or absent")

    # The residual graph has exactly the remaining quota of vertices at every
    # step iff the mapping covers the device.  The path shortcut is an
    # optimization; beyond the exhaustive-search guardrail, key-qubit removal
    # alone still terminates correctly.
    full = n == graph.num_vertices
    assign: list[int] = []
    residual = graph.vertex_mask
    while len(assign) < n:
        path, choices = search.step(residual, full)
        if path is not None:
            assign.extend(path)
            break
        v = choices[rng.randrange(len(choices))] if assign else first
        assign.append(v)
        residual ^= 1 << v
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

def _shortest_path_data(graph: CouplingGraph, mask: int):
    """All-pairs hop distances, shortest-path counts, and per-vertex totals.

    Computed on the subgraph induced by ``mask``.  ``dist[s][t]`` (-1 when
    unreachable) and ``sigma[s][t]`` are indexed by vertex id for s in the
    mask; ``through[v]`` counts, over all vertex pairs (s, t) with s < t and
    v not in {s, t}, the shortest s-t paths passing through v.  Per source,
    ``below[v]`` counts the shortest paths from v onward to every farther
    vertex (Brandes' accumulation), so ``sigma[s][v] * below[v]`` counts the
    shortest s-t paths through v over all t; each pair is met from both ends.
    """
    nbr = graph.neighbor_masks
    size = len(nbr)
    dist: list[list[int] | None] = [None] * size
    sigma: list[list[int] | None] = [None] * size
    through = [0] * size
    for s in mask_vertices(mask):
        d = [-1] * size
        g = [0] * size
        d[s] = 0
        g[s] = 1
        layers = [1 << s]
        seen = 1 << s
        while True:
            last = layers[-1]
            step = 0
            for v in mask_vertices(last):
                step |= nbr[v]
            step &= mask & ~seen
            if not step:
                break
            for w in mask_vertices(step):
                d[w] = len(layers)
                g[w] = sum(g[v] for v in mask_vertices(nbr[w] & last))
            seen |= step
            layers.append(step)
        below = [0] * size
        for k in range(len(layers) - 2, 0, -1):
            farther = layers[k + 1]
            for v in mask_vertices(layers[k]):
                below[v] = b = sum(1 + below[w] for w in mask_vertices(nbr[v] & farther))
                through[v] += g[v] * b
        dist[s] = d
        sigma[s] = g
    return mask, dist, sigma, [t // 2 for t in through]


def _pair_factor(data, graph: CouplingGraph, i: int, j: int) -> float:
    mask, dist, sigma, through = data
    if graph.has_edge(i, j):
        return 1.0
    di, dj, si, sj = dist[i], dist[j], sigma[i], sigma[j]
    if di[j] < 0:
        return 0.0
    total = 0.0
    for v in mask_vertices(mask):
        if v == i or v == j:
            continue
        cnt = si[v] * sj[v]
        if cnt and di[v] + dj[v] == di[j]:
            total += cnt / through[v]
    return min(1.0, max(0.0, total / si[j]))


def _connectivity_product(graph: CouplingGraph, mask: int) -> float:
    """Product of connectivity factors over all pairs of the subgraph induced by ``mask``."""
    data = _shortest_path_data(graph, mask)
    verts = list(mask_vertices(mask))
    prod = 1.0
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            prod *= _pair_factor(data, graph, verts[a], verts[b])
            if prod == 0.0:
                break
        if prod == 0.0:
            break
    return prod


def mapping_objective(search: MappingSearch, mapping: Mapping) -> float:
    """Mapping score: connectivity product minus position-weighted error cost.

    The first term multiplies connectivity factors over all mapped pairs on
    the induced subgraph; the second sums (m+1) times the mean error of the
    full-graph edges incident to assign[m].  Later-removed qubits carry more
    weight, so low-error vertices should be kept until the end.  Higher is
    better.  A mapping that uses ids outside the graph raises ``ValueError``.
    """
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

    The table is seeded with the initial mapping from the smallest key
    qubit.  Every iteration builds ``tabu_len`` candidates; each draws its
    seed vertex among the key qubits and then drives its construction.  One
    generator serves the whole search, re-seeded with
    ``derive_seed(config.seed, *key)`` before each construction (key
    ``"seed"`` for the seed mapping, ``it, k`` for candidate k of iteration
    it), so every construction's draws are reproducible in isolation.
    Candidates absent from the table whose score is at least the current
    table average are admitted; the table is trimmed back to ``tabu_len`` by
    dropping its lowest-scoring entry.
    """
    search = MappingSearch(graph)
    base_order = sorted(search.keys)
    rng = random.Random(derive_seed(config.seed, "seed"))
    seed_map = initial_mapping(search, n, base_order[0], rng)

    # Assignment -> score.  Insertion order is the table order, which fixes
    # the float sum of the mean and the first-minimum choice of the worst.
    table = {seed_map.assign: mapping_objective(search, seed_map)}
    for it in range(config.iterations):
        for k in range(config.tabu_len):
            rng.seed(derive_seed(config.seed, it, k))
            cand = initial_mapping(search, n, base_order[rng.randrange(len(base_order))], rng)
            if cand.assign in table:
                continue
            s = mapping_objective(search, cand)
            if s >= sum(table.values()) / len(table):
                table[cand.assign] = s
                if len(table) > config.tabu_len:
                    del table[min(table, key=table.__getitem__)]
    return [(Mapping(a), s) for a, s in table.items()]


def optimize_mapping(graph: CouplingGraph, n: int, config: TabuConfig | None = None) -> Mapping:
    """Tabu-search refinement of the key-qubit priority mapping.

    Returns the best-scoring entry of the final tabu table, so the result
    never scores below the seed mapping.
    """
    if config is None:
        config = TabuConfig()
    table = tabu_search_table(graph, n, config)
    return max(table, key=lambda pair: pair[1])[0]
