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
path are computed on that mask (see ``arch``); a residual whose blocks
are all bridges, a tree, has its path (or none) read off the blocks with no
search.  A residual reached by removing one non-cut vertex takes its
parent's blocks and decomposes only the one that held the vertex, so the
whole device is decomposed once per search, when the search is made:
those blocks give the key qubits and the whole device's own step (the root
step).  The objective's subgraph induced by the mapped qubits is likewise
the mask of those qubits.  Tabu search
perturbs the seed vertex, which each candidate draws as it draws every
later vertex, and keeps a bounded table of the best-scoring mappings.  A
``MappingSearch`` over one graph and qubit count is the one context that
constructions and scores take: it holds the graph and memos keyed by mask,
and is dropped when the search returns.  A construction is
``initial_mapping`` and a score is ``mapping_objective``, for the tabu
search as for any other caller: both work on bare assignment tuples
(``assign[m]`` hosts logical m, every id distinct), and only the table
that the search returns wraps them in ``Mapping``.

This module alone decides whether a device, a qubit count and a mapping can
be used: ``MappingSearch`` refuses a disconnected device or a qubit count
outside ``1..N``, ``admitted_mapping`` reads a caller's mapping ids by
``arch.integer`` and checks its qubit count and device membership in one
call, and ``replay_is_valid`` checks its removal replay.  A search's
qubit count, a construction's seed vertex and ``TabuConfig``'s three
settings are read by ``arch.integer`` too, so a numpy seed derives the
search's one generator seed that the equal int does.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    CouplingGraph,
    bfs_layers,
    biconnected_blocks,
    cut_vertices,
    has_hamiltonian_path,
    integer,
    mask_vertices,
)
# perfbench/tracing.py wraps these three in this namespace.
from .arch import articulation_points, induced_subgraph, remove_vertex  # noqa: F401


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
    """Tabu-table length, iteration budget and the RNG seed, each read by
    ``arch.integer`` and stored as an int (``iterations 1.5 is not an
    integer``), so a numpy seed derives the seed that the int does."""

    tabu_len: int = 20
    iterations: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("tabu_len", "iterations", "seed"):
            object.__setattr__(self, field, integer(getattr(self, field), field))
        if self.tabu_len < 1:
            raise ValueError("tabu_len must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def derive_seed(seed: int, *key) -> int:
    """64-bit seed derived from (seed, key) by hashing ``repr((seed, key))``."""
    digest = hashlib.blake2b(repr((seed, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: A memoized construction step: ``(path, None, ())`` when it follows a
#: Hamiltonian path, else ``(None, choices, blocks)``.
Step = tuple[tuple[int, ...] | None, tuple[int, ...] | None, tuple[int, ...]]


class MappingSearch:
    """The one context of a mapping search: its graph, qubit count and shared state.

    Making one is the only check of a searched device: it raises
    ``ValueError`` unless the graph is connected and ``n``, read by
    ``arch.integer``, satisfies ``1 <= n <= N`` for its N vertices.  Only a ``full`` search (n = N) follows Hamiltonian paths.
    A residual graph is an int vertex mask over the base graph.  Making one
    also decomposes the whole device into biconnected blocks, once: its key
    qubits are the vertices in fewer than two blocks, and its step (the
    root step) is memoized from those blocks at once.  The per-vertex mean
    edge errors are computed once too.  The step memo, keyed by residual
    mask, holds what a construction does there: follow a Hamiltonian path
    to the end, or draw among the non-cut vertices.  A drawing step also
    keeps the residual's biconnected blocks, from which the steps one
    removal further on are derived.  A second memo, keyed by the set of
    mapped vertices, holds the connectivity products that
    ``mapping_objective`` computes.
    ``tabu_search_table`` makes one per search and drops it on return, so
    nothing is kept between searches.
    """

    __slots__ = ("graph", "n", "full", "keys", "mean_error", "_steps", "_product")

    def __init__(self, graph: CouplingGraph, n: int) -> None:
        if not graph.is_connected():
            raise ValueError(
                f"mapping search requires a connected coupling graph; {graph.name or 'the graph'} is disconnected")
        n = integer(n, "qubit count")
        if not 1 <= n <= graph.num_vertices:
            raise ValueError(f"{n} logical qubits but device has {graph.num_vertices} qubits")
        self.graph = graph
        self.n = n
        self.full = n == graph.num_vertices
        blocks = biconnected_blocks(graph)
        self.keys = frozenset(mask_vertices(graph.vertex_mask & ~cut_vertices(blocks)))
        # Mean error of the full-graph edges at each vertex; 0.0 for an
        # isolated vertex, which adds no cost.
        self.mean_error: dict[int, float] = {}
        for v in graph.vertices:
            nbrs = graph.neighbors(v)
            self.mean_error[v] = sum(graph.error(v, w) for w in nbrs) / len(nbrs) if nbrs else 0.0
        self._steps: dict[int, Step] = {}
        self._product: dict[frozenset[int], float] = {}
        self.step(graph.vertex_mask, blocks)

    def step(self, residual: int, parent_blocks: tuple[int, ...] | list[int]) -> Step:
        """Compute and memoize the construction step at a connected residual graph.

        A construction reads the memo itself and calls this on a miss;
        its first lookup, at the whole device, always hits the root step
        that ``__init__`` memoized.  In a full-device search, a residual of
        at most ``HAMILTONIAN_VERTEX_LIMIT`` vertices with a Hamiltonian
        path is followed to the end: ``(path, None, ())``.  Otherwise the
        step draws among the non-cut vertices: ``(None, choices, blocks)``,
        with the choices in ascending order and the residual's biconnected
        blocks as vertex masks.  The non-cut vertices are those in fewer than two
        blocks; at the whole device they are the sorted key qubits.

        ``parent_blocks`` are the blocks of the residual this one was
        reached from by removing one non-cut vertex v.  A non-cut v lies in
        one block, and every other block is still a block once v leaves, so
        only that one is decomposed again without v; when it is a bridge,
        nothing of it is left to decompose.  The root step is given the
        whole device's own blocks, and keeps them all.

        The blocks settle most path questions without a search.  A connected
        graph's blocks, less one vertex each, add up to its vertices less
        one, so every block is a bridge (the residual is a tree) exactly
        when there is one block fewer than vertices.  A tree has a
        Hamiltonian path exactly when it is a path graph, no vertex lying
        in three or more blocks; the step then walks it from its smaller
        end, which is the path ``has_hamiltonian_path`` returns (it tries
        starts in ascending order, and only the two ends can start).  Only
        a residual with a cycle, a block of three or more vertices, is
        searched.
        """
        graph = self.graph
        blocks = []
        for block in parent_blocks:
            if not block & ~residual:
                blocks.append(block)
            elif block.bit_count() > 2:
                blocks += biconnected_blocks(graph, block & residual)
        # The vertices in two or more blocks (cut points), and in three or more.
        seen = cut = branch = 0
        for block in blocks:
            branch |= cut & block
            cut |= seen & block
            seen |= block
        path = None
        size = residual.bit_count()
        if self.full and size <= HAMILTONIAN_VERTEX_LIMIT:
            if len(blocks) != size - 1:
                path = has_hamiltonian_path(graph, residual)
            elif not branch:
                path = _walk(graph.neighbor_masks, residual & ~cut, residual)
        if path is not None:
            entry: Step = path, None, ()
        else:
            entry = None, tuple(mask_vertices(residual & ~cut)), tuple(blocks)
        self._steps[residual] = entry
        return entry


def _walk(nbr: tuple[int, ...], ends: int, residual: int) -> tuple[int, ...]:
    """The path graph ``residual`` walked from the smaller of its ``ends``."""
    v = (ends & -ends).bit_length() - 1
    path = [v]
    left = residual ^ (1 << v)
    while left:
        bit = nbr[v] & left
        left ^= bit
        v = bit.bit_length() - 1
        path.append(v)
    return tuple(path)


def initial_mapping(search: MappingSearch, rng: random.Random, first: int | None = None) -> tuple[int, ...]:
    """Key-qubit priority initial mapping of ``search.n`` logical qubits.

    Each step assigns the next logical index to a uniformly random non-cut
    vertex of the residual graph and removes it; logical 0 goes to the seed
    vertex ``first`` when it is given, else to a key qubit drawn the same
    way.  In a full-device search, once the residual graph has a Hamiltonian
    path, the remaining logical qubits follow the path and the construction
    stops.  The whole device is such a residual too: when it has a path,
    logical 0 goes to the path's first vertex, nothing is drawn, ``first``
    is ignored, and every construction on the device gives the same mapping.

    Each draw takes the count of the step's choices and its bit length and
    rejection-samples ``rng.getrandbits(bits)`` below the count: the draw
    that ``rng.randrange(count)`` makes, so it returns the same vertex and
    leaves the generator in the same state.

    Args:
        search: the search over a connected coupling graph and qubit count.
        rng: source of the non-cut vertex choices.
        first: seed vertex, a key qubit of the graph, read by
            ``arch.integer`` (``seed vertex 1.5 is not an integer``); drawn
            when ``None``.

    Returns:
        The assignment tuple, ``assign[m]`` hosting logical m: injective,
        and its removal replay keeps the residual graph connected.
        ``Mapping(assign)`` wraps it for ``synthesize``.
    """
    if first is not None:
        first = integer(first, "seed vertex")
        if first not in search.keys:
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
        path, choices, blocks = steps.get(residual) or search.step(residual, blocks)
        if path is not None:
            assign.extend(path)
            break
        if first is None:
            count = len(choices)
            bits = count.bit_length()
            r = getrandbits(bits)
            while r >= count:
                r = getrandbits(bits)
            v = choices[r]
        else:
            v, first = first, None
        assign.append(v)
        residual ^= 1 << v
    return tuple(assign)


def admitted_mapping(graph: CouplingGraph, mapping: Mapping, n: int) -> Mapping:
    """``mapping`` admitted to place ``n`` logical qubits on ``graph``, its ids
    read by ``arch.integer`` (so numpy's become Python ints).

    Raises ``ValueError`` naming the first fault: a non-integral id, the
    wrong qubit count, then a vertex outside the device.
    """
    mapping = Mapping(tuple([p if type(p) is int else integer(p, "mapping id") for p in mapping.assign]))
    if mapping.n != n:
        raise ValueError(f"mapping covers {mapping.n} qubits, {n} needed")
    if not set(mapping.assign) <= graph.vertices:
        raise ValueError("mapping uses vertices outside the device")
    return mapping


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

    Returns ``(dist, sigma, through)``, computed on the subgraph induced by
    ``mask``.  ``dist[s][t]`` (-1 when unreachable) and ``sigma[s][t]`` are
    indexed by vertex id for s in the mask; ``through[v]`` counts, over all
    vertex pairs (s, t) with s < t and v not in {s, t}, the shortest s-t
    paths passing through v.  Per source s, ``arch.bfs_layers`` gives the
    breadth-first layers: a vertex's distance is its layer index and its
    sigma the sum over its neighbours in the layer before.  ``below[v]``
    counts the shortest paths from v onward to every farther vertex
    (Brandes' accumulation), so ``sigma[s][v] * below[v]`` counts the
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
        layers = list(bfs_layers(nbr, 1 << s, mask))
        for k in range(1, len(layers)):
            for w in mask_vertices(layers[k]):
                d[w] = k
                g[w] = sum(g[v] for v in mask_vertices(nbr[w] & layers[k - 1]))
        below = [0] * size
        for k in range(len(layers) - 2, 0, -1):
            farther = layers[k + 1]
            for v in mask_vertices(layers[k]):
                below[v] = b = sum(1 + below[w] for w in mask_vertices(nbr[v] & farther))
                through[v] += g[v] * b
        dist[s] = d
        sigma[s] = g
    return dist, sigma, [t // 2 for t in through]


def _connectivity_product(graph: CouplingGraph, mask: int) -> float:
    """Product of connectivity factors over all pairs of the subgraph induced by ``mask``.

    Pairs are taken once each, i < j in ascending order.  An adjacent pair's
    factor is 1; otherwise it is the sum, over each inner vertex v of an i-j
    shortest path, of sigma(i, v) * sigma(v, j) / through[v], divided by
    sigma(i, j) and capped at 1.  An unreachable pair's factor is 0, so a
    disconnected mask scores 0 after one flood, and only a connected one
    pays for the all-pairs pass.
    """
    if not graph.is_connected(mask):
        return 0.0
    dist, sigma, through = _shortest_path_data(graph, mask)
    verts = list(mask_vertices(mask))
    prod = 1.0
    for a, i in enumerate(verts):
        di, si = dist[i], sigma[i]
        for j in verts[a + 1:]:
            hops = di[j]
            if hops == 1:
                continue
            dj, sj = dist[j], sigma[j]
            total = 0.0
            for v in verts:
                if v == i or v == j:
                    continue
                cnt = si[v] * sj[v]
                if cnt and di[v] + dj[v] == hops:
                    total += cnt / through[v]
            prod *= min(1.0, total / si[j])
    return prod


def mapping_objective(search: MappingSearch, assign: tuple[int, ...]) -> float:
    """Score of the injective assignment ``assign``: connectivity product
    minus position-weighted error cost.

    ``assign`` is a construction's tuple or a ``Mapping``'s ``.assign``.  The
    first term multiplies connectivity factors over all mapped pairs on the
    induced subgraph; the second sums (m+1) times the mean error of the
    full-graph edges incident to assign[m].  Later-removed qubits carry more
    weight, so low-error vertices should be kept until the end.  Higher is
    better.

    The connectivity product is memoized in the search, keyed by the set of
    mapped vertices, ``frozenset(assign)``, whatever the length of
    ``assign``.  That key is checked twice, both refusals raising
    ``ValueError`` through ``_assignment_error``: before the lookup it must
    be non-empty and as long as ``assign`` (no id repeats), and on a miss
    it must be a subset of the graph's vertices holding only ints, so a
    float or ``bool`` id equal to a vertex is refused.  A key found in the
    memo passed those checks when it was stored.
    """
    graph = search.graph
    key = frozenset(assign)
    if not key or len(key) != len(assign):
        raise _assignment_error(graph, assign)
    score = search._product.get(key)
    if score is None:
        if not key <= graph.vertices or any(type(v) is not int for v in key):
            raise _assignment_error(graph, assign)
        score = search._product[key] = _connectivity_product(graph, sum(1 << v for v in key))
    mean_error = search.mean_error
    for m, v in enumerate(assign):
        score -= (m + 1) * mean_error[v]
    return score


def _assignment_error(graph: CouplingGraph, assign: tuple[int, ...]) -> ValueError:
    """The error for an ``assign`` that ``mapping_objective`` refuses: it
    says that an empty one is empty, names its first id that is not an int,
    the ids that are not vertices of ``graph`` or, when every id is one,
    says that an id repeats."""
    if not assign:
        return ValueError("mapping must be non-empty")
    for v in assign:
        if type(v) is not int:
            return ValueError(f"mapping id {v!r} is not an integer")
    unknown = sorted(set(assign) - graph.vertices)
    if unknown:
        return ValueError(f"mapping uses unknown vertices {unknown}")
    return ValueError("mapping must be injective")


# ---------------------------------------------------------------------------
# Tabu search
# ---------------------------------------------------------------------------

def tabu_search_table(graph: CouplingGraph, n: int, config: TabuConfig) -> list[tuple[Mapping, float]]:
    """Run the tabu search and return its final table as (mapping, score) pairs.

    The table is seeded with the initial mapping from the smallest key
    qubit.  Every iteration builds ``tabu_len`` candidates, each a
    construction that draws its own seed vertex among the key qubits.  One
    generator, seeded once with ``derive_seed(config.seed, "seed")``, serves
    the whole search: the seed mapping draws from its stream first, then
    each candidate in turn, so the table is fixed by the graph, ``n`` and
    ``config``.  Candidates absent from the table whose score is at least
    the current table average are admitted; the table is trimmed back to
    ``tabu_len`` by dropping its lowest-scoring entry.

    Candidates are the assignment tuples that ``initial_mapping`` returns,
    scored by ``mapping_objective``; only the returned table's entries
    become ``Mapping``s.  When the whole device of a full search has a
    Hamiltonian path (its root step is a path), every construction follows
    that path and gives the seed mapping, so the table is that one entry
    and no candidate is drawn.
    """
    search = MappingSearch(graph, n)
    rng = random.Random(derive_seed(config.seed, "seed"))
    seed_map = initial_mapping(search, rng, min(search.keys))

    # Assignment -> score.  Insertion order is the table order, which fixes
    # the float sum of the mean and the first-minimum choice of the worst.
    table = {seed_map: mapping_objective(search, seed_map)}
    # A root step that is a path gives every construction the seed mapping.
    iterations = config.iterations if search._steps[graph.vertex_mask][0] is None else 0
    for _ in range(iterations * config.tabu_len):
        cand = initial_mapping(search, rng)
        if cand in table:
            continue
        s = mapping_objective(search, cand)
        if s >= sum(table.values()) / len(table):
            table[cand] = s
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
