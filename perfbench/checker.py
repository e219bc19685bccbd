"""Independent output checker.

It shares no code with cnotsynth's own checks (``verify``,
``verification_failure``, ``esp``, ``depth``): parity rows are replayed as
Python ints, coupling edges are looked up in plain dicts built once from the
device's edge list, and the QASM output of the CLI is read by a parser of its
own.  Gates are plain tuples: ``("cx", control, target)``, ``("h", q)``,
``("x", q)``, ``("z", q)`` and ``("measure", q)``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

_ONE_QUBIT = ("h", "x", "z")
_HEADER = re.compile(r'^(OPENQASM 2\.0|include "qelib1\.inc"|creg c\[\d+\])$')
_QREG = re.compile(r"^qreg q\[(\d+)\]$")
_CX = re.compile(r"^cx q\[(\d+)\],q\[(\d+)\]$")
_ONEQ = re.compile(r"^(h|x|z) q\[(\d+)\]$")
_MEASURE = re.compile(r"^measure q\[(\d+)\] -> c\[(\d+)\]$")


class CheckError(ValueError):
    """An output that does not implement its input on the device."""


@dataclass(frozen=True)
class Device:
    """Coupling edges as -ln(1 - e) weights, plus the single-qubit error."""

    qubits: frozenset[int]
    edge_cost: dict[tuple[int, int], float]
    one_qubit_cost: float

    @classmethod
    def from_edges(cls, qubits, edges, one_qubit_error: float) -> "Device":
        cost = {}
        for u, v, err in edges:
            cost[(u, v)] = cost[(v, u)] = -math.log1p(-err)
        return cls(frozenset(qubits), cost, -math.log1p(-one_qubit_error))


@dataclass(frozen=True)
class Quality:
    cnot: int
    depth: int
    neg_log_esp: float


def parse_output_qasm(text: str) -> list[tuple]:
    """Gate tuples of a QASM file in the writer's one-statement-per-line form."""
    gates: list[tuple] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stmt = line.strip()
        if not stmt:
            continue
        if not stmt.endswith(";"):
            raise CheckError(f"line {lineno}: missing ';'")
        stmt = stmt[:-1]
        if _HEADER.match(stmt) or _QREG.match(stmt):
            continue
        m = _CX.match(stmt)
        if m:
            gates.append(("cx", int(m.group(1)), int(m.group(2))))
            continue
        m = _ONEQ.match(stmt)
        if m:
            gates.append((m.group(1), int(m.group(2))))
            continue
        m = _MEASURE.match(stmt)
        if m:
            gates.append(("measure", int(m.group(1))))
            continue
        raise CheckError(f"line {lineno}: unexpected statement {stmt!r}")
    return gates


def logical_rows(cnots: Sequence[tuple[int, int]], n: int) -> list[int]:
    """Parity rows (bit j of row i: output i depends on input j) of a CNOT list."""
    rows = [1 << i for i in range(n)]
    for c, t in cnots:
        rows[t] ^= rows[c]
    return rows


def rank(rows: Sequence[int], width: int) -> int:
    """GF(2) rank of bit rows given as Python ints."""
    rows = list(rows)
    rank = 0
    for col in range(width):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _check_cnot_run(
    device: Device, gates: Sequence[tuple], rows: Sequence[int], assign: Sequence[int]
) -> None:
    """The physical CNOTs realize ``rows`` through ``assign``.

    Logical qubits must end with exactly their expected parities.  Spare
    qubits start in |0>, so they may mix among themselves but must not pick
    up any logical parity, or they would not return to |0>.
    """
    phys = {q: 1 << q for q in device.qubits}
    for k, gate in enumerate(gates):
        _, c, t = gate
        if (c, t) not in device.edge_cost:
            raise CheckError(f"gate {k}: cx({c},{t}) is not a coupling edge")
        phys[t] ^= phys[c]
    logical_mask = sum(1 << p for p in assign)
    for i, row in enumerate(rows):
        bits = 0
        j = 0
        while row:
            if row & 1:
                bits |= 1 << assign[j]
            row >>= 1
            j += 1
        if phys[assign[i]] != bits:
            raise CheckError(f"logical qubit {i}: replayed parity differs from the input")
    for q in sorted(device.qubits - set(assign)):
        if phys[q] & logical_mask:
            raise CheckError(f"spare qubit {q} ends up depending on logical qubits")


def _quality(device: Device, gates: Sequence[tuple]) -> Quality:
    """CNOT count, ASAP depth over all gates, and -ln ESP."""
    level: dict[int, int] = {}
    deepest = 0
    cost = 0.0
    cnots = 0
    for gate in gates:
        qubits = gate[1:]
        layer = 1 + max(level.get(q, 0) for q in qubits)
        for q in qubits:
            level[q] = layer
        deepest = max(deepest, layer)
        if gate[0] == "cx":
            cnots += 1
            cost += device.edge_cost[(gate[1], gate[2])]
        elif gate[0] in _ONE_QUBIT:
            cost += device.one_qubit_cost
    return Quality(cnots, deepest, cost)


def _check_assign(device: Device, assign: Sequence[int], n: int) -> None:
    if len(assign) != n or len(set(assign)) != n or not set(assign) <= device.qubits:
        raise CheckError(f"mapping {list(assign)} is not an injection of {n} qubits into the device")


def check_cnot_circuit(
    device: Device, rows: Sequence[int], gates: Sequence[tuple], assign: Sequence[int]
) -> Quality:
    """Check a synthesized CNOT-only circuit against its logical parity rows."""
    _check_assign(device, assign, len(rows))
    if any(g[0] != "cx" for g in gates):
        raise CheckError("CNOT-only input produced non-CNOT gates")
    for g in gates:
        if not (g[1] in device.qubits and g[2] in device.qubits):
            raise CheckError(f"{g} uses a qubit outside the device")
    _check_cnot_run(device, gates, rows, assign)
    return _quality(device, gates)


def check_mixed_circuit(
    device: Device, n: int, source: Sequence[tuple], gates: Sequence[tuple], assign: Sequence[int]
) -> Quality:
    """Check a mixed H/X/Z/CNOT/measure circuit.

    Each maximal CNOT run of ``source`` must be matched by a (possibly empty)
    run of physical CNOTs realizing its parity rows, and every other gate
    must appear, in order, on its mapped physical qubit.
    """
    _check_assign(device, assign, n)
    for g in gates:
        if not all(q in device.qubits for q in g[1:]):
            raise CheckError(f"{g} uses a qubit outside the device")
    pos = 0
    k = 0
    while k < len(source):
        if source[k][0] == "cx":
            end = k
            while end < len(source) and source[end][0] == "cx":
                end += 1
            rows = logical_rows([(g[1], g[2]) for g in source[k:end]], n)
            stop = pos
            while stop < len(gates) and gates[stop][0] == "cx":
                stop += 1
            _check_cnot_run(device, gates[pos:stop], rows, assign)
            k, pos = end, stop
        else:
            want = (source[k][0], assign[source[k][1]])
            if pos >= len(gates) or gates[pos] != want:
                got = gates[pos] if pos < len(gates) else None
                raise CheckError(f"source gate {k} {source[k]} expected as {want}, got {got}")
            k += 1
            pos += 1
    if pos != len(gates):
        raise CheckError(f"{len(gates) - pos} unexpected trailing gates")
    return _quality(device, gates)
