"""Key-qubit priority initial mapping and its tabu-search refinement.

Layer-by-layer elimination removes the physical qubit hosting each finished
logical qubit, so the initial mapping must keep every residual graph
connected.  A mapping is built from one seed vertex (a key qubit) by
assigning logical qubits, in increasing index order, to non-cut vertices of
the shrinking graph; when the mapping covers the whole device and the
residual graph carries a Hamiltonian path, the rest of the assignment
follows that path (from the whole device on, so a device with a path gives
every full-device construction the same mapping, whatever its seed vertex).

No residual graph is ever built: it is the base graph's vertex mask with the
assigned vertices' bits cleared, and its biconnected blocks and Hamiltonian
path are computed on that mask (see ``arch``).  A residual reached by
removing one non-cut vertex takes its parent's blocks and decomposes only
the one that held the vertex.  The objective's subgraph induced by
the mapped qubits is likewise the mask of those qubits.  Tabu search
perturbs the seed vertex, which each candidate draws as it draws every
later vertex, and keeps a bounded table of the best-scoring mappings.  A
``MappingSearch`` over one graph and qubit count is the one context that
constructions and scores take: it holds the graph and memos keyed by mask,
and is dropped when the search returns.

This module alone decides whether a device, a qubit count and a mapping can
be used: ``MappingSearch`` refuses a disconnected device or a qubit count
outside ``1..N``, and a caller's mapping must pass ``mapping_failure`` and
``replay_is_valid``.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    biconnected_blocks,
    cut_vertices,
    has_hamiltonian_path,
    key_qubits,
    mask_vertices,
)
from .arch import articulation_points  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
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


#: A memoized construction step: ``(path, None, 0, 0, ())`` when it follows
#: a Hamiltonian path, else ``(None, choices, count, bits, blocks)``.
Step = tuple[tuple[int, ...] | None, tuple[int, ...] | None, int, int, tuple[int, ...]]


class MappingSearch:
    """The one context of a mapping search: its graph, qubit count and shared state.

    Making one is the only check of a searched device: it raises
    ``ValueError`` unless the graph is connected and ``1 <= n <= N`` for its
    N vertices.  Only a ``full`` search (n = N) follows Hamiltonian paths.
    A residual graph is an int vertex mask over the base graph.  The base
    graph's key qubits and per-vertex mean edge errors are computed once.
    The step memo, keyed by residual mask, holds what a construction does
    there: follow a Hamiltonian path to the end, or draw among the non-cut
    vertices.  A drawing step also keeps the residual's biconnected blocks,
    from which the steps one removal further on are derived.  A second
    memo, keyed by the set of mapped vertices, holds connectivity products.
    ``tabu_search_table`` makes one per search and drops it on return, so
    nothing is kept between searches.
    """

    __slots__ = ("graph", "n", "full", "keys", "mean_error", "_steps", "_product")

    def __init__(self, graph: CouplingGraph, n: int) -> None:
        if not graph.is_connected():
            raise ValueError(
                f"mapping search requires a connected coupling graph; {graph.name or 'the graph'} is disconnected")
        if not 1 <= n <= graph.num_vertices:
            raise ValueError(f"{n} logical qubits but device has {graph.num_vertices} qubits")
        self.graph = graph
        self.n = n
        self.full = n == graph.num_vertices
        self.keys = key_qubits(graph)
        # Mean error of the full-graph edges at each vertex; 0.0 for an
        # isolated vertex, which adds no cost.
        self.mean_error: dict[int, float] = {}
        for v in graph.vertices:
            nbrs = graph.neighbors(v)
            self.mean_error[v] = sum(graph.error(v, w) for w in nbrs) / len(nbrs) if nbrs else 0.0
        self._steps: dict[int, Step] = {}
        self._product: dict[frozenset[int], float] = {}

    def step(self, residual: int, parent_blocks: tuple[int, ...] | None = None) -> Step:
        """Compute and memoize the construction step at a connected residual graph.

        ``initial_mapping`` reads the memo itself and calls this on a miss.
        In a full-device search, a residual of at most
        ``HAMILTONIAN_VERTEX_LIMIT`` vertices with a Hamiltonian path is
        followed to the end: ``(path, None, 0, 0, ())``.  Otherwise the step
        draws among the non-cut vertices: ``(None, choices, count, bits,
        blocks)``, with the choices in ascending order, their count and
        that count's bit length, and the residual's biconnected blocks as
        vertex masks.  The non-cut vertices are those in fewer than two
        blocks; at the whole device they are the sorted key qubits.

        ``parent_blocks`` are the blocks of the residual this one was
        reached from by removing one non-cut vertex v; without them (at the
        whole device) the residual is decomposed whole.  A non-cut v
        lies in one block, and every other block is still a block once v
        leaves, so only that one is decomposed again without v; when it is
        a bridge, nothing of it is left to decompose.
        """
        graph = self.graph
        path = None
        if self.full and residual.bit_count() <= HAMILTONIAN_VERTEX_LIMIT:
            path = has_hamiltonian_path(graph, residual)
        if path is not None:
            entry: Step = path, None, 0, 0, ()
        else:
            if parent_blocks is None:
                blocks = biconnected_blocks(graph, residual)
            else:
                blocks = []
                for block in parent_blocks:
                    if not block & ~residual:
                        blocks.append(block)
                    elif block.bit_count() > 2:
                        blocks += biconnected_blocks(graph, block & residual)
            choices = tuple(mask_vertices(residual & ~cut_vertices(blocks)))
            entry = None, choices, len(choices), len(choices).bit_length(), tuple(blocks)
        self._steps[residual] = entry
        return entry

    def connectivity_product(self, assign: Sequence[int]) -> float:
        """Product of connectivity factors over the subgraph induced by ``assign``.

        Raises ``ValueError`` naming the ids in ``assign`` that are not
        vertices of the graph.
        """
        key = frozenset(assign)
        prod = self._product.get(key)
        if prod is None:
            mask = 0
            try:
                for v in assign:
                    mask |= 1 << v
            except ValueError:  # a negative id
                mask = -1
            if mask & ~self.graph.vertex_mask:
                raise ValueError(f"mapping uses unknown vertices {sorted(set(assign) - self.graph.vertices)}")
            prod = _connectivity_product(self.graph, mask)
            self._product[key] = prod
        return prod


def initial_mapping(search: MappingSearch, rng: random.Random, first: int | None = None) -> Mapping:
    """Key-qubit priority initial mapping of ``search.n`` logical qubits.

    Each step assigns the next logical index to a uniformly random non-cut
    vertex of the residual graph and removes it; logical 0 goes to the seed
    vertex ``first`` when it is given, else to a key qubit drawn the same
    way.  In a full-device search, once the residual graph has a Hamiltonian
    path, the remaining logical qubits follow the path and the construction
    stops.  The whole device is such a residual too: when it has a path,
    logical 0 goes to the path's first vertex, nothing is drawn, ``first``
    is ignored, and every construction on the device gives the same mapping.

    Each draw is ``rng.getrandbits`` rejection sampling, the draw that
    ``rng.randrange(count)`` makes, so it returns the same vertex and
    leaves the generator in the same state.

    Args:
        search: the search over a connected coupling graph and qubit count.
        rng: source of the non-cut vertex choices.
        first: seed vertex, a key qubit of the graph; drawn when ``None``.

    Returns:
        A mapping whose removal replay keeps the residual graph connected.
    """
    if first is not None and first not in search.keys:
        raise ValueError(f"seed vertex {first} is a cut point or absent")

    # Following the path decides the mapping, not just its cost: drawing on
    # to the last vertex instead gives 7-13% more CNOTs on tokyo, grid(4,4)
    # and grid(5,5).  Beyond the exhaustive-search guardrail, key-qubit
    # removal alone still terminates correctly.
    n = search.n
    steps = search._steps
    getrandbits = rng.getrandbits
    assign: list[int] = []
    residual = search.graph.vertex_mask
    blocks = None
    while len(assign) < n:
        path, choices, count, bits, blocks = steps.get(residual) or search.step(residual, blocks)
        if path is not None:
            assign.extend(path)
            break
        if first is None:
            r = getrandbits(bits)
            while r >= count:
                r = getrandbits(bits)
            v = choices[r]
        else:
            v, first = first, None
        assign.append(v)
        residual ^= 1 << v
    return Mapping(tuple(assign))


def mapping_failure(graph: CouplingGraph, mapping: Mapping, n: int) -> str | None:
    """Why ``mapping`` cannot place ``n`` logical qubits on ``graph``; None if it can."""
    if mapping.n != n:
        return f"mapping covers {mapping.n} qubits, {n} needed"
    if not set(mapping.assign) <= graph.vertices:
        return "mapping uses vertices outside the device"
    return None


def replay_is_valid(graph: CouplingGraph, mapping: Mapping) -> bool:
    """Whether every residual graph that elimination visits is connected: the whole device
    first, so a disconnected one fails, then what is left as assign[0], ..., assign[n-2] leave."""
    if not set(mapping.assign) <= graph.vertices:
        return False
    residual = graph.vertex_mask
    for v in mapping.assign:
        if not graph.is_connected(residual):
            return False
        residual &= ~(1 << v)
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
    qubit.  Every iteration builds ``tabu_len`` candidates, each a
    construction that draws its own seed vertex among the key qubits.  One
    generator serves the whole search, re-seeded with
    ``derive_seed(config.seed, *key)`` before each construction (key
    ``"seed"`` for the seed mapping, ``it, k`` for candidate k of iteration
    it), so every construction's draws are reproducible in isolation.
    Candidates absent from the table whose score is at least the current
    table average are admitted; the table is trimmed back to ``tabu_len`` by
    dropping its lowest-scoring entry.
    """
    search = MappingSearch(graph, n)
    rng = random.Random(derive_seed(config.seed, "seed"))
    seed_map = initial_mapping(search, rng, min(search.keys))

    # Assignment -> score.  Insertion order is the table order, which fixes
    # the float sum of the mean and the first-minimum choice of the worst.
    table = {seed_map.assign: mapping_objective(search, seed_map)}
    for it in range(config.iterations):
        for k in range(config.tabu_len):
            rng.seed(derive_seed(config.seed, it, k))
            cand = initial_mapping(search, rng)
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
