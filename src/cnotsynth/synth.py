"""Layer-convergence nearest-neighbor synthesis of CNOT circuits.

The parity matrix is driven to the identity one layer (column i, then row i)
at a time.  Row operations are confined to edges of a minimum-noise Steiner
tree over the residual coupling graph, and after each layer the physical
qubit hosting logical i is removed from the residual graph.  The synthesized
circuit is the reverse cascade of the recorded row operations, mapped to
physical ids.

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
from itertools import combinations
from typing import Sequence

import numpy as np

from .arch import CouplingGraph, remove_vertex
from .circuit import CNOT, Circuit, depth
from .gf2 import ParityMatrix, solve_gf2, xor_rows
from .mapping import Mapping, TabuConfig, optimize_mapping, replay_is_valid
from .steiner import min_noise_steiner_tree, postorder, preorder

BRUTEFORCE_LIMIT = 10


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesis output bundle.

    ``gates`` is the final hardware circuit over physical qubits, in
    reverse-cascade order; ``recorded_ops`` is the raw (control, target) row
    operation log in elimination order over matrix row indices (indices >= n
    are ancilla rows, which only occur when the device has spare qubits).
    """

    gates: tuple[CNOT, ...]
    mapping: Mapping
    recorded_ops: tuple[tuple[int, int], ...]
    cnot_count: int
    depth: int
    graph: CouplingGraph
    n: int

    def physical_circuit(self) -> Circuit:
        return Circuit(max(self.graph.vertices) + 1, self.gates)


def extended_assign(graph: CouplingGraph, mapping: Mapping) -> tuple[int, ...]:
    """Mapping extended to all device qubits; spare vertices follow in ascending order."""
    spare = sorted(graph.vertices - set(mapping.assign))
    return tuple(mapping.assign) + tuple(spare)


# ---------------------------------------------------------------------------
# Target-aided rows
# ---------------------------------------------------------------------------

def _layer_target(m: ParityMatrix, i: int, order: Sequence[int] | None):
    rows = m.n
    if order is None:
        seq = range(rows)
    else:
        seq = list(order)
        if sorted(seq) != list(range(rows)):
            raise ValueError("order must be a permutation of the row indices")
    if not 0 <= i < rows:
        raise ValueError(f"layer index {i} outside [0,{rows})")
    target = seq[i]
    rest = list(seq[i + 1:])
    y = m.bits[target].copy()
    y[target] ^= 1
    return target, rest, y


def target_aided_rows(m: ParityMatrix, i: int, order: Sequence[int] | None = None) -> set[int]:
    """Rows below layer i whose XOR equals row i plus its unit vector.

    Found by solving the GF(2) linear system over the remaining rows; for an
    invertible matrix with layers before i eliminated the solution exists and
    is unique.  Returns the empty set when row i is already a unit vector.
    """
    target, rest, y = _layer_target(m, i, order)
    if not y.any():
        return set()
    if not rest:
        raise RuntimeError(f"no rows left to aid elimination of row {target}")
    x = solve_gf2(m.bits[rest], y)
    if x is None:
        raise RuntimeError(
            f"no target-aided row set for row {target}; matrix is singular or layers are out of order"
        )
    return {rest[j] for j in np.nonzero(x)[0]}


def target_aided_rows_bruteforce(m: ParityMatrix, i: int, order: Sequence[int] | None = None) -> set[int]:
    """Subset-enumeration oracle for ``target_aided_rows`` (rows <= 10)."""
    if m.n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force matcher limited to {BRUTEFORCE_LIMIT} rows, got {m.n}")
    target, rest, y = _layer_target(m, i, order)
    if not y.any():
        return set()
    for size in range(1, len(rest) + 1):
        for combo in combinations(rest, size):
            if np.array_equal(xor_rows(m.bits, combo), y):
                return set(combo)
    raise RuntimeError(f"no target-aided row set for row {target}")


# ---------------------------------------------------------------------------
# Layer elimination
# ---------------------------------------------------------------------------

def _placement(m: ParityMatrix, mapping: Mapping):
    if mapping.n != m.n:
        raise ValueError(f"mapping covers {mapping.n} rows but matrix has {m.n}")
    return mapping.assign, mapping.inverse()

def _check_unit_column(m: ParityMatrix, i: int) -> None:
    col = m.bits[:, i]
    if col[i] != 1 or int(col.sum()) != 1:
        raise RuntimeError(f"column {i} failed to reduce to a unit vector")


def _check_unit_row(m: ParityMatrix, i: int) -> None:
    row = m.bits[i]
    if row[i] != 1 or int(row.sum()) != 1:
        raise RuntimeError(f"row {i} failed to reduce to a unit vector")


def eliminate_column(
    m: ParityMatrix,
    residual: CouplingGraph,
    mapping: Mapping,
    i: int,
) -> list[tuple[int, int]]:
    """Reduce column i to its unit vector using residual-graph edges only.

    A minimum-noise Steiner tree is grown over the qubits hosting the
    column's 1-entries, rooted at the qubit hosting row i.  A postorder pass
    first fills 0-valued tree vertices from a 1-valued child; a second
    postorder pass XORs every vertex into each of its children, clearing all
    entries except the root's.

    Returns the recorded (control, target) row operations.
    """
    assign, phys_to_row = _placement(m, mapping)
    root = assign[i]
    if root not in residual.vertices:
        raise RuntimeError(f"layer qubit {root} missing from residual graph")
    ones = np.nonzero(m.bits[:, i])[0]
    terminals = {assign[j] for j in ones}
    outside = terminals - residual.vertices
    if outside:
        raise RuntimeError(
            f"terminals {sorted(outside)} outside residual graph; mapping replay invariant violated"
        )
    if not terminals:
        raise RuntimeError(f"column {i} is all zeros; matrix is singular")

    tree = min_noise_steiner_tree(residual, root, terminals)
    order = postorder(tree)
    ops: list[tuple[int, int]] = []
    for c_phys in order:
        if c_phys == root:
            continue
        k_phys = tree.parent[c_phys]
        c, k = phys_to_row[c_phys], phys_to_row[k_phys]
        if m.bits[k, i] == 0 and m.bits[c, i] == 1:
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
    residual: CouplingGraph,
    mapping: Mapping,
    i: int,
) -> list[tuple[int, int]]:
    """Reduce row i to its unit vector, assuming column i is already unit.

    The target-aided row set S is located first; a minimum-noise Steiner tree
    then spans the qubits hosting S, rooted at the qubit hosting row i.  A
    preorder pass folds every tree vertex outside S into its parent, and a
    postorder pass folds every vertex into its parent, leaving row i equal to
    its former value XOR the rows of S, i.e. the unit vector.
    """
    assign, phys_to_row = _placement(m, mapping)
    aid = target_aided_rows(m, i)
    if not aid:
        return []
    root = assign[i]
    aid_phys = {assign[k] for k in aid}
    outside = (aid_phys | {root}) - residual.vertices
    if outside:
        raise RuntimeError(
            f"aiding qubits {sorted(outside)} outside residual graph; mapping replay invariant violated"
        )

    tree = min_noise_steiner_tree(residual, root, aid_phys | {root})
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
    if size == m.n:
        return m.copy()
    bits = np.eye(size, dtype=np.uint8)
    bits[: m.n, : m.n] = m.bits
    return ParityMatrix(bits)


def _blocks_ok(bits: np.ndarray, n: int) -> bool:
    return (
        bool(np.array_equal(bits[:n, :n], np.eye(n, dtype=np.uint8)))
        and not bits[:n, n:].any()
        and not bits[n:, :n].any()
    )


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
    n = m.n
    if config is None:
        config = TabuConfig()
    if not graph.is_connected():
        raise ValueError("synthesis requires a connected coupling graph")
    if n > graph.num_vertices:
        raise ValueError(f"matrix has {n} rows but device has {graph.num_vertices} qubits")
    if m.rank() != n:
        raise ValueError("parity matrix is not invertible")
    if mapping is None:
        mapping = optimize_mapping(graph, n, config)
    else:
        if mapping.n != n:
            raise ValueError(f"mapping covers {mapping.n} qubits, matrix needs {n}")
        if not set(mapping.assign) <= graph.vertices:
            raise ValueError("mapping uses vertices outside the device")
        if not replay_is_valid(graph, mapping):
            raise ValueError("mapping fails the removal-replay connectivity check")

    assign = extended_assign(graph, mapping)
    full = Mapping(assign)
    work = _embed(m, graph.num_vertices)
    residual = graph
    recorded: list[tuple[int, int]] = []
    for i in range(n):
        recorded.extend(eliminate_column(work, residual, full, i))
        recorded.extend(eliminate_row(work, residual, full, i))
        residual = remove_vertex(residual, assign[i])
    if not _blocks_ok(work.bits, n):
        raise RuntimeError("elimination finished without reaching the identity")

    gates = tuple(CNOT(assign[c], assign[t]) for c, t in reversed(recorded))
    phys = Circuit(max(graph.vertices) + 1, gates) if gates else None
    return SynthesisResult(
        gates=gates,
        mapping=mapping,
        recorded_ops=tuple(recorded),
        cnot_count=len(gates),
        depth=depth(phys) if phys else 0,
        graph=graph,
        n=n,
    )


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

    Confirms every gate sits on a coupling edge, then rebuilds the parity
    matrix from the gate list (translated back to matrix rows through the
    mapping, spare qubits as ancillas) and compares it against the original.
    """
    n = m_original.n
    for k, g in enumerate(gates):
        if not graph.has_edge(g.control, g.target):
            return f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge"
    assign = extended_assign(graph, mapping)
    phys_to_row = {p: r for r, p in enumerate(assign)}
    rebuilt = ParityMatrix.identity(graph.num_vertices)
    for g in gates:
        rebuilt.row_xor(phys_to_row[g.control], phys_to_row[g.target])
    bits = rebuilt.bits
    for r in range(n):
        if not np.array_equal(bits[r, :n], m_original.bits[r]):
            return f"row {r} of the rebuilt parity matrix differs from the original"
        if bits[r, n:].any():
            return f"row {r} depends on ancilla qubits"
    if bits[n:, :n].any():
        r = n + int(np.nonzero(bits[n:, :n].any(axis=1))[0][0])
        return f"ancilla row {r} depends on logical qubits"
    return None


def verify_equivalence(m_original: ParityMatrix, result: SynthesisResult) -> bool:
    """True iff the synthesized gates realize exactly the original parity matrix."""
    return verification_failure(m_original, result) is None
