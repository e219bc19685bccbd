"""Layer-convergence nearest-neighbor synthesis of CNOT circuits.

The parity matrix is driven to the identity one layer (column i, then row i)
at a time.  Row operations are confined to edges of a minimum-noise Steiner
tree over the residual coupling graph, and after each layer the physical
qubit hosting logical i is removed from the residual graph.  The residual
graph is an int vertex mask over the device graph, so removing a qubit
clears one bit and no graph is rebuilt.  The synthesized circuit is the
reverse cascade of the recorded row operations, mapped to physical ids.

When the matrix is smaller than the device, spare physical qubits act as
clean ancillas: the matrix is embedded into a device-sized one (identity on
the spare rows) so that Steiner points and target-aided rows may use them.
Row indices at or above the logical count denote ancillas; the verification
check then requires the logical block to match and both off-diagonal blocks
to vanish, which guarantees the ancillas return to |0> and never leak into
the logical qubits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arch import CouplingGraph
from .arch import remove_vertex  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
from .circuit import CNOT, Circuit, relocate, segment_runs
from .circuit import depth as circuit_depth
from .gf2 import ParityMatrix, solve_gf2
from .mapping import Mapping, TabuConfig, optimize_mapping, replay_is_valid
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
        return Circuit(max(self.graph.vertices) + 1, self.gates)


def extended_assign(graph: CouplingGraph, mapping: Mapping) -> tuple[int, ...]:
    """Mapping extended to all device qubits; spare vertices follow in ascending order."""
    spare = sorted(graph.vertices - set(mapping.assign))
    return tuple(mapping.assign) + tuple(spare)


# ---------------------------------------------------------------------------
# Target-aided rows
# ---------------------------------------------------------------------------

def target_aided_rows(m: ParityMatrix, i: int) -> set[int]:
    """Rows below layer i whose XOR equals row i plus its unit vector.

    Found by solving the GF(2) linear system over the remaining rows; for an
    invertible matrix with layers before i eliminated the solution exists and
    is unique.  Returns the empty set when row i is already a unit vector.
    """
    rows = m.rows
    if not 0 <= i < len(rows):
        raise ValueError(f"layer index {i} outside [0,{len(rows)})")
    y = rows[i] ^ (1 << i)
    if not y:
        return set()
    if i + 1 == len(rows):
        raise RuntimeError(f"no rows left to aid elimination of row {i}")
    x = solve_gf2(rows[i + 1:], y)
    if x is None:
        raise RuntimeError(
            f"no target-aided row set for row {i}; matrix is singular or layers are out of order"
        )
    return {i + 1 + j for j in range(x.bit_length()) if x >> j & 1}


# ---------------------------------------------------------------------------
# Layer elimination
# ---------------------------------------------------------------------------

def _placement(m: ParityMatrix, graph: CouplingGraph, mapping: Mapping, residual: int | None):
    if mapping.n != m.n:
        raise ValueError(f"mapping covers {mapping.n} rows but matrix has {m.n}")
    return mapping.assign, mapping.inverse(), graph.vertex_mask if residual is None else residual


def _check_inside(residual: int, qubits: set[int]) -> None:
    outside = sorted(q for q in qubits if not residual >> q & 1)
    if outside:
        raise RuntimeError(f"qubits {outside} outside residual graph; mapping replay invariant violated")


def _column_ones(m: ParityMatrix, i: int) -> list[int]:
    return [r for r, row in enumerate(m.rows) if row >> i & 1]


def _check_unit_column(m: ParityMatrix, i: int) -> None:
    if _column_ones(m, i) != [i]:
        raise RuntimeError(f"column {i} failed to reduce to a unit vector")


def _check_unit_row(m: ParityMatrix, i: int) -> None:
    if m.rows[i] != 1 << i:
        raise RuntimeError(f"row {i} failed to reduce to a unit vector")


def eliminate_column(
    m: ParityMatrix,
    graph: CouplingGraph,
    mapping: Mapping,
    i: int,
    residual: int | None = None,
) -> list[tuple[int, int]]:
    """Reduce column i to its unit vector using residual-graph edges only.

    The residual graph is the subgraph of ``graph`` induced by the vertex
    mask ``residual`` (default: all of ``graph``).  A minimum-noise Steiner
    tree is grown over the qubits hosting the column's 1-entries, rooted at
    the qubit hosting row i.  A postorder pass first fills 0-valued tree
    vertices from a 1-valued child; a second postorder pass XORs every
    vertex into each of its children, clearing all entries except the root's.

    Returns the recorded (control, target) row operations.
    """
    assign, phys_to_row, residual = _placement(m, graph, mapping, residual)
    root = assign[i]
    terminals = {assign[j] for j in _column_ones(m, i)}
    if not terminals:
        raise RuntimeError(f"column {i} is all zeros; matrix is singular")
    _check_inside(residual, terminals | {root})

    tree = min_noise_steiner_tree(graph, root, terminals, residual)
    order = postorder(tree)
    rows, bit = m.rows, 1 << i
    ops: list[tuple[int, int]] = []
    for c_phys in order:
        if c_phys == root:
            continue
        k_phys = tree.parent[c_phys]
        c, k = phys_to_row[c_phys], phys_to_row[k_phys]
        if not rows[k] & bit and rows[c] & bit:
            m.row_xor(c, k)
            ops.append((c, k))
    for c_phys in order:
        for l_phys in tree.children[c_phys]:
            c, l = phys_to_row[c_phys], phys_to_row[l_phys]
            m.row_xor(c, l)
            ops.append((c, l))
    _check_unit_column(m, i)
    return ops


def eliminate_row(
    m: ParityMatrix,
    graph: CouplingGraph,
    mapping: Mapping,
    i: int,
    residual: int | None = None,
) -> list[tuple[int, int]]:
    """Reduce row i to its unit vector, assuming column i is already unit.

    The residual graph is given as in ``eliminate_column``.  The
    target-aided row set S is located first; a minimum-noise Steiner tree
    then spans the qubits hosting S, rooted at the qubit hosting row i.  A
    preorder pass folds every tree vertex outside S into its parent, and a
    postorder pass folds every vertex into its parent, leaving row i equal to
    its former value XOR the rows of S, i.e. the unit vector.
    """
    assign, phys_to_row, residual = _placement(m, graph, mapping, residual)
    aid = target_aided_rows(m, i)
    if not aid:
        return []
    root = assign[i]
    aid_phys = {assign[k] for k in aid}
    _check_inside(residual, aid_phys | {root})

    tree = min_noise_steiner_tree(graph, root, aid_phys | {root}, residual)
    ops: list[tuple[int, int]] = []
    for r_phys in preorder(tree):
        if r_phys == root or r_phys in aid_phys:
            continue
        k_phys = tree.parent[r_phys]
        r, k = phys_to_row[r_phys], phys_to_row[k_phys]
        m.row_xor(r, k)
        ops.append((r, k))
    for r_phys in postorder(tree):
        if r_phys == root:
            continue
        k_phys = tree.parent[r_phys]
        r, k = phys_to_row[r_phys], phys_to_row[k_phys]
        m.row_xor(r, k)
        ops.append((r, k))
    _check_unit_row(m, i)
    _check_unit_column(m, i)
    return ops


# ---------------------------------------------------------------------------
# Full synthesis
# ---------------------------------------------------------------------------

def _embed(m: ParityMatrix, size: int) -> ParityMatrix:
    """``m`` extended to ``size`` rows by the identity on the ancilla rows."""
    return ParityMatrix.from_rows(m.rows + [1 << r for r in range(m.n, size)])


def _block_failure(rows: list[int], logical_rows: list[int]) -> str | None:
    """Why a device-sized parity matrix fails to realize ``logical_rows``; None if it does.

    Its first ``n = len(logical_rows)`` rows must restrict to ``logical_rows``
    on the logical columns, and neither off-diagonal block (logical rows on
    ancilla columns, ancilla rows on logical columns) may have a set bit.
    """
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


def _mapping_failure(graph: CouplingGraph, mapping: Mapping, n: int) -> str | None:
    """Why ``mapping`` cannot place ``n`` logical qubits on ``graph``; None if it can."""
    if mapping.n != n:
        return f"mapping covers {mapping.n} qubits, {n} needed"
    if not set(mapping.assign) <= graph.vertices:
        return "mapping uses vertices outside the device"
    return None


def _checked_mapping(graph: CouplingGraph, n: int, config: TabuConfig | None, mapping: Mapping | None) -> Mapping:
    """The tabu-search mapping of ``n`` qubits on ``graph``, or the caller's once it passes the checks."""
    if not graph.is_connected():
        raise ValueError(f"synthesis requires a connected coupling graph; {graph.name or 'the graph'} is disconnected")
    if n > graph.num_vertices:
        raise ValueError(f"{n} logical qubits but device has {graph.num_vertices} qubits")
    if mapping is None:
        return optimize_mapping(graph, n, config)
    if (failure := _mapping_failure(graph, mapping, n)) is not None:
        raise ValueError(failure)
    if not replay_is_valid(graph, mapping):
        raise ValueError("mapping fails the removal-replay connectivity check")
    return mapping


def _eliminate(m: ParityMatrix, graph: CouplingGraph, mapping: Mapping) -> SynthesisResult:
    """Eliminate the invertible ``m`` layer by layer under a checked mapping."""
    n = m.n
    assign = extended_assign(graph, mapping)
    full = Mapping(assign)
    work = _embed(m, graph.num_vertices)
    residual = graph.vertex_mask
    recorded: list[tuple[int, int]] = []
    for i in range(n):
        recorded.extend(eliminate_column(work, graph, full, i, residual))
        recorded.extend(eliminate_row(work, graph, full, i, residual))
        residual &= ~(1 << assign[i])
    failure = _block_failure(work.rows, [1 << r for r in range(n)])
    if failure is not None:
        raise RuntimeError(f"elimination finished without reaching the identity: {failure}")

    gates = tuple(CNOT(assign[c], assign[t]) for c, t in reversed(recorded))
    return SynthesisResult(gates=gates, mapping=mapping, graph=graph)


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
    caller-supplied mapping must pass the removal-replay validity check.

    Returns a result whose gate list provably realizes ``m``
    (``verify_equivalence`` re-checks from scratch).
    """
    if m.rank() != m.n:
        raise ValueError("parity matrix is not invertible")
    return _eliminate(m, graph, _checked_mapping(graph, m.n, config, mapping))


def verification_failure(m_original: ParityMatrix, result: SynthesisResult) -> str | None:
    """Recheck a synthesis result from scratch; None means it is sound."""
    return gate_list_failure(m_original, result.graph, result.mapping, result.gates)


def gate_list_failure(
    m_original: ParityMatrix,
    graph: CouplingGraph,
    mapping: Mapping,
    gates: Sequence[CNOT],
) -> str | None:
    """Check physical CNOTs against a logical parity matrix; None means sound.

    Confirms that the mapping places the matrix's qubits on the device and
    every gate sits on a coupling edge, then rebuilds the parity matrix from
    the gate list (translated back to matrix rows through the mapping, spare
    qubits as ancillas) and compares it against the original.
    """
    if (failure := _mapping_failure(graph, mapping, m_original.n)) is not None:
        return failure
    for k, g in enumerate(gates):
        if not graph.has_edge(g.control, g.target):
            return f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge"
    assign = extended_assign(graph, mapping)
    phys_to_row = {p: r for r, p in enumerate(assign)}
    rebuilt = ParityMatrix.identity(graph.num_vertices)
    for g in gates:
        rebuilt.row_xor(phys_to_row[g.control], phys_to_row[g.target])
    return _block_failure(rebuilt.rows, m_original.rows)


def circuit_failure(original: Circuit, output: Circuit, graph: CouplingGraph, mapping: Mapping) -> str | None:
    """Check a synthesized circuit against its original run by run; None means sound.

    ``mapping`` must place the original's qubits on the device.  Each maximal
    CNOT run of the original must match the output's CNOTs at that point
    (possibly none) under ``gate_list_failure``, and each other gate must
    come next, relocated through ``mapping``.  An empty original is one
    empty CNOT run.  A reordered but equivalent output is reported.
    """
    if (failure := _mapping_failure(graph, mapping, original.n)) is not None:
        return failure
    gates = output.gates
    k = 0
    for kind, run in segment_runs(original.gates) or [("cnot", ())]:
        if kind == "cnot":
            start = k
            while k < len(gates) and isinstance(gates[k], CNOT):
                k += 1
            m = ParityMatrix.from_circuit(run, original.n)
            failure = gate_list_failure(m, graph, mapping, gates[start:k])  # type: ignore[arg-type]
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
    return verification_failure(m_original, result) is None
