"""Layer-convergence nearest-neighbor synthesis of CNOT circuits.

The parity matrix is driven to the identity one layer at a time.  Each layer
pivots on the physical qubit q hosting the next logical qubit: column q, then
row q.  Row operations are confined to edges of a minimum-noise Steiner tree
over the residual coupling graph, and after each layer q leaves the residual
graph.  The residual graph is an int vertex mask over the device graph, so
removing a qubit clears one bit and no graph is rebuilt.

Elimination works in physical-qubit space, on a plain list of int work rows
(bit j of a row is column j).  The mapping is applied once, when the work
rows are built: row p and column p belong to physical qubit p, so every
recorded row operation is already a physical (control, target) pair, applied
as ``rows[target] ^= rows[control]``, and the synthesized circuit is their
reverse cascade.  Next to the work rows sits ``inv``, their transposed
inverse: one Gauss–Jordan pass per matrix (``gf2_inverse``) builds it, and
each recorded row operation is paired with ``inv[control] ^= inv[target]``.
Each row pass reads its target-aided rows from it, so no layer solves a
GF(2) system.  A wrong aid set, read from a wrong inverse, leaves row q
short of its unit vector, and the check after the pass raises.

When the matrix is smaller than the device, spare physical qubits act as
clean ancillas: their rows start as unit vectors, so Steiner points and
target-aided rows may use them.  An id that is not a vertex gets a zero row
and is never touched.  The final check requires every mapped row to be its
unit vector and no spare row to depend on a mapped qubit, which guarantees
the ancillas return to |0> and never leak into the logical qubits.
``verification_failure`` re-checks a gate list in the same physical-qubit
space, sharing only that final check: it replays the gates on unit rows and
compares them with the original matrix moved through the mapping, and never
eliminates.  ``mapping`` alone decides whether a device, a qubit count and a
mapping can be used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arch import CouplingGraph, mask_vertices
from .arch import remove_vertex  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
from .circuit import CNOT, Circuit, relocate, segment_runs
from .circuit import depth as circuit_depth
from .gf2 import ParityMatrix, gf2_inverse
from .gf2 import solve_gf2  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
from .mapping import Mapping, TabuConfig, mapping_failure, optimize_mapping, replay_is_valid
from .steiner import min_noise_steiner_tree, postorder, preorder


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesis output bundle.

    ``gates`` is the final hardware circuit over physical qubits, in
    reverse-cascade order.  ``cnot_count`` and ``depth`` are computed from
    ``gates`` when read.
    """

    gates: tuple[CNOT, ...]
    mapping: Mapping
    graph: CouplingGraph

    @property
    def cnot_count(self) -> int:
        return len(self.gates)

    @property
    def depth(self) -> int:
        return circuit_depth(self.physical_circuit())

    def physical_circuit(self) -> Circuit:
        return Circuit(self.graph.width, self.gates)


# ---------------------------------------------------------------------------
# Layer elimination
# ---------------------------------------------------------------------------

def _check_inside(residual: int, qubits: set[int]) -> None:
    outside = sorted(q for q in qubits if not residual >> q & 1)
    if outside:
        raise RuntimeError(f"qubits {outside} outside residual graph; mapping replay invariant violated")


def _column_ones(rows: list[int], q: int) -> list[int]:
    return [p for p, row in enumerate(rows) if row >> q & 1]


def _check_unit_column(rows: list[int], q: int) -> None:
    if _column_ones(rows, q) != [q]:
        raise RuntimeError(f"column {q} failed to reduce to a unit vector")


def _check_unit_row(rows: list[int], q: int) -> None:
    if rows[q] != 1 << q:
        raise RuntimeError(f"row {q} failed to reduce to a unit vector")


def eliminate_column(rows: list[int], inv: list[int], graph: CouplingGraph, q: int, residual: int) -> list[tuple[int, int]]:
    """Reduce column q to its unit vector using residual-graph edges only.

    The work ``rows`` are indexed by physical qubit and XORed in place, and
    ``inv`` is their transposed inverse, kept so by pairing every
    ``rows[t] ^= rows[c]`` with ``inv[c] ^= inv[t]``.  The residual graph is
    the subgraph of ``graph`` induced by the vertex mask ``residual``.  A
    minimum-noise Steiner tree is grown over the qubits whose rows have a 1
    in column q, rooted at q.  A postorder pass first fills 0-valued tree
    vertices from a 1-valued child; a second postorder pass XORs every
    vertex into each of its children, clearing all entries except the
    root's.

    Returns the recorded (control, target) row operations.
    """
    terminals = set(_column_ones(rows, q))
    if not terminals:
        raise RuntimeError(f"column {q} is all zeros; matrix is singular")
    _check_inside(residual, terminals | {q})

    tree = min_noise_steiner_tree(graph, q, terminals, residual)
    order = postorder(tree)
    bit = 1 << q
    ops: list[tuple[int, int]] = []
    for c in order:
        if c == q:
            continue
        k = tree.parent[c]
        if not rows[k] & bit and rows[c] & bit:
            rows[k] ^= rows[c]
            inv[c] ^= inv[k]
            ops.append((c, k))
    for c in order:
        for l in tree.children[c]:
            rows[l] ^= rows[c]
            inv[c] ^= inv[l]
            ops.append((c, l))
    _check_unit_column(rows, q)
    return ops


def eliminate_row(rows: list[int], inv: list[int], graph: CouplingGraph, q: int, residual: int) -> list[tuple[int, int]]:
    """Reduce row q to its unit vector, assuming column q is already unit.

    ``rows``, ``inv`` and the residual graph are given as in
    ``eliminate_column``.  The target-aided row set S, the residual rows
    other than q whose XOR is row q with its unit bit cleared, is read from
    ``inv``: S holds p exactly when ``inv[p]`` has bit q, since row q of the
    inverse is the one combination of work rows that gives the unit vector,
    and the eliminated layers take no part in it.  A minimum-noise Steiner
    tree then spans S, rooted at q.  A preorder pass folds every tree vertex
    outside S into its parent, and a postorder pass folds every vertex into
    its parent, leaving row q equal to its former value XOR the rows of S,
    i.e. the unit vector.
    """
    bit = 1 << q
    aid = {p for p in mask_vertices(residual & ~bit) if inv[p] & bit}
    if not aid:
        _check_unit_row(rows, q)
        return []

    tree = min_noise_steiner_tree(graph, q, aid | {q}, residual)
    ops: list[tuple[int, int]] = []
    for r in preorder(tree):
        if r == q or r in aid:
            continue
        k = tree.parent[r]
        rows[k] ^= rows[r]
        inv[r] ^= inv[k]
        ops.append((r, k))
    for r in postorder(tree):
        if r == q:
            continue
        k = tree.parent[r]
        rows[k] ^= rows[r]
        inv[r] ^= inv[k]
        ops.append((r, k))
    _check_unit_row(rows, q)
    _check_unit_column(rows, q)
    return ops


# ---------------------------------------------------------------------------
# Full synthesis
# ---------------------------------------------------------------------------

def _block_failure(rows: list[int], want: dict[int, int], vertex_mask: int) -> str | None:
    """Why physical-qubit rows fail to realize ``want``; None if they do.

    ``want`` maps each mapped qubit to its expected row.  Each mapped row
    must equal it, and no other vertex's row (an ancilla) may involve a
    mapped qubit.  Messages name physical qubits, lowest first.
    """
    mapped = sum(1 << p for p in want)
    for p in mask_vertices(mapped):
        if rows[p] & ~mapped:
            return f"row {p} depends on ancilla qubits"
        if rows[p] != want[p]:
            return f"row {p} differs from the expected row"
    for p in mask_vertices(vertex_mask & ~mapped):
        if rows[p] & mapped:
            return f"ancilla row {p} depends on logical qubits"
    return None


def _checked_mapping(graph: CouplingGraph, n: int, config: TabuConfig | None, mapping: Mapping | None) -> Mapping:
    """The tabu-search mapping of ``n`` qubits on ``graph``, whose ``MappingSearch`` checks both,
    or the caller's once ``mapping_failure`` and ``replay_is_valid`` pass it."""
    if mapping is None:
        return optimize_mapping(graph, n, config)
    if (failure := mapping_failure(graph, mapping, n)) is not None:
        raise ValueError(failure)
    if not replay_is_valid(graph, mapping):
        raise ValueError("mapping fails the removal-replay connectivity check")
    return mapping


def _eliminate(m: ParityMatrix, inverse: list[int], graph: CouplingGraph, mapping: Mapping) -> SynthesisResult:
    """Eliminate the invertible ``m``, whose inverse has the rows ``inverse``,
    layer by layer under a checked mapping.

    The work rows are ``m``'s rows moved into physical-qubit space, one int
    per device id: logical row r becomes row ``assign[r]`` with bit j moved
    to bit ``assign[j]``, a spare vertex p gets ``1 << p`` and an id that is
    not a vertex gets 0.  ``inv`` is their transposed inverse, moved the
    same way with rows and columns swapped: bit j of ``inverse[r]`` becomes
    bit ``assign[r]`` of ``inv[assign[j]]``.  The passes XOR both in place.
    """
    assign = mapping.assign
    rows = [0] * graph.width
    for p in graph.vertices:
        rows[p] = 1 << p
    inv = rows.copy()
    for r, row in enumerate(m.rows):
        rows[assign[r]] = sum(1 << assign[j] for j in mask_vertices(row))
        inv[assign[r]] = 0
    for r, row in enumerate(inverse):
        bit = 1 << assign[r]
        for j in mask_vertices(row):
            inv[assign[j]] |= bit
    residual = graph.vertex_mask
    recorded: list[tuple[int, int]] = []
    for q in assign:
        recorded.extend(eliminate_column(rows, inv, graph, q, residual))
        recorded.extend(eliminate_row(rows, inv, graph, q, residual))
        residual &= ~(1 << q)
    if (failure := _block_failure(rows, {p: 1 << p for p in assign}, graph.vertex_mask)) is not None:
        raise RuntimeError(f"elimination finished without reaching the identity: {failure}")
    return SynthesisResult(gates=tuple(CNOT(c, t) for c, t in reversed(recorded)), mapping=mapping, graph=graph)


def synthesize(
    m: ParityMatrix,
    graph: CouplingGraph,
    config: TabuConfig | None = None,
    mapping: Mapping | None = None,
) -> SynthesisResult:
    """Noise-aware nearest-neighbor synthesis of an invertible parity matrix.

    Layers are eliminated in logical order 0..n-1 (column before row); after
    each layer the hosting physical qubit leaves the residual graph.  The
    mapping defaults to the tabu-search result for (graph, n, config); a
    caller-supplied mapping must place the n qubits on the device and pass
    the removal-replay check.  Either way a disconnected device, or one
    with fewer than n qubits, raises ``ValueError``.

    Returns a result whose gate list provably realizes ``m``
    (``verify_equivalence`` re-checks from scratch).
    """
    inverse = gf2_inverse(m.rows)
    if inverse is None:
        raise ValueError("parity matrix is not invertible")
    return _eliminate(m, inverse, graph, _checked_mapping(graph, m.n, config, mapping))


def verification_failure(
    m_original: ParityMatrix,
    graph: CouplingGraph,
    mapping: Mapping,
    gates: Sequence[CNOT],
) -> str | None:
    """Check physical CNOTs against a logical parity matrix; None means sound.

    Confirms that the mapping places the matrix's qubits on the device, then
    replays the gates on unit rows indexed by physical qubit, checking that
    each sits on a coupling edge.  Logical row r, with bit j moved to bit
    ``assign[j]``, is the row expected of qubit ``assign[r]``; spare vertices
    are ancillas that must start and end clean.
    """
    if (failure := mapping_failure(graph, mapping, m_original.n)) is not None:
        return failure
    rows = [1 << p for p in range(graph.width)]
    for k, (c, t) in enumerate(gates):
        if not graph.has_edge(c, t):
            return f"gate {k}: CNOT({c},{t}) is not a coupling edge"
        rows[t] ^= rows[c]
    assign = mapping.assign
    want = {q: sum(1 << p for j, p in enumerate(assign) if row >> j & 1) for q, row in zip(assign, m_original.rows)}
    return _block_failure(rows, want, graph.vertex_mask)


def circuit_failure(original: Circuit, output: Circuit, graph: CouplingGraph, mapping: Mapping) -> str | None:
    """Check a synthesized circuit against its original run by run; None means sound.

    ``mapping`` must place the original's qubits on the device, inside the
    output's register.  Each maximal CNOT run of the original must match the
    output's CNOTs at that point (possibly none) under
    ``verification_failure``, and each other gate must come next, relocated
    through ``mapping``.  An empty original is one empty CNOT run.  A
    reordered but equivalent output is reported.
    """
    if (failure := mapping_failure(graph, mapping, original.n)) is not None:
        return failure
    for r, p in enumerate(mapping.assign):
        if p >= output.n:
            return f"logical qubit {r} sits on physical qubit {p}, past the output's {output.n} qubits"
    gates = output.gates
    k = 0
    for kind, run in segment_runs(original.gates) or [("cnot", ())]:
        if kind == "cnot":
            start = k
            while k < len(gates) and isinstance(gates[k], CNOT):
                k += 1
            m = ParityMatrix.from_circuit(run, original.n)
            failure = verification_failure(m, graph, mapping, gates[start:k])  # type: ignore[arg-type]
            if failure is not None:
                return f"in the CNOT run from output gate {start}, {failure}" if start else failure
            continue
        for g in run:
            want = relocate(g, mapping)
            # Type too: CNOT(p, b) and Measure(p, b) are equal as tuples.
            if k == len(gates) or type(gates[k]) is not type(want) or gates[k] != want:
                return f"gate {k}: expected {want}, found {gates[k] if k < len(gates) else 'the end'}"
            k += 1
    if k < len(gates):
        return f"gate {k}: {gates[k]} has no counterpart in the original"
    return None


def verify_equivalence(m_original: ParityMatrix, result: SynthesisResult) -> bool:
    """True iff the synthesized gates realize exactly the original parity matrix."""
    return verification_failure(m_original, result.graph, result.mapping, result.gates) is None
