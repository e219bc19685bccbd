"""Circuit model, OpenQASM-subset I/O, benchmark generation and fidelity metrics.

Supported gate set: CNOT, the single-qubit gates H/X/Z, and measurement.
Fidelity comes in two flavors: the analytic product of per-gate success
probabilities (ESP) and a seeded Monte-Carlo estimate that propagates
classical bit flips through a CNOT-only circuit.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .arch import DEFAULT_ONE_QUBIT_ERROR, CouplingGraph
from .gf2 import ParityMatrix


class CNOT(NamedTuple):
    control: int
    target: int


class OneQubit(NamedTuple):
    kind: str  # "h" | "x" | "z"
    qubit: int


class Measure(NamedTuple):
    """Measurement of ``qubit`` into classical bit ``clbit``.

    ``clbit`` is ``None`` when the bit has the qubit's index, so
    ``Measure(q)`` measures q into bit q; ``measure_into`` builds that form.
    """

    qubit: int
    clbit: int | None = None

    @property
    def bit(self) -> int:
        return self.qubit if self.clbit is None else self.clbit


def measure_into(qubit: int, clbit: int) -> Measure:
    """Measurement of ``qubit`` into bit ``clbit``, with ``clbit`` unset when equal."""
    return Measure(qubit, None if clbit == qubit else clbit)


Gate = CNOT | OneQubit | Measure

_ONE_QUBIT_KINDS = ("h", "x", "z")


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, CNOT):
        return (gate.control, gate.target)
    return (gate.qubit,)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over qubits 0..n-1."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        for k, g in enumerate(self.gates):
            if isinstance(g, CNOT):
                if g.control == g.target:
                    raise ValueError(f"gate {k}: control and target coincide ({g.control})")
            elif isinstance(g, OneQubit):
                if g.kind not in _ONE_QUBIT_KINDS:
                    raise ValueError(f"gate {k}: unsupported single-qubit kind {g.kind!r}")
            elif g.bit < 0:
                raise ValueError(f"gate {k}: negative classical bit {g.bit}")
            for q in gate_qubits(g):
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {k}: qubit {q} outside [0,{self.n})")

    def is_cnot_only(self) -> bool:
        return all(isinstance(g, CNOT) for g in self.gates)

    def cnot_pairs(self) -> list[tuple[int, int]]:
        return [(g.control, g.target) for g in self.gates if isinstance(g, CNOT)]


class QasmError(ValueError):
    """Syntax or semantics error in a QASM document, with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None) -> None:
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}" if col is not None else f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# QASM subset
# ---------------------------------------------------------------------------

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_OPENQASM = re.compile(r"^OPENQASM\s+(\S+)$")
_RE_INCLUDE = re.compile(r"^include\s+\"[^\"]*\"$")
_RE_REG = re.compile(rf"^(qreg|creg)\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_CX = re.compile(rf"^cx\s+({_ID})\s*\[\s*(\d+)\s*\]\s*,\s*({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_ONEQ = re.compile(rf"^(h|x|z)\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_MEASURE = re.compile(rf"^measure\s+({_ID})\s*\[\s*(\d+)\s*\]\s*->\s*({_ID})\s*\[\s*(\d+)\s*\]$")
_RE_GATE_WORD = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)")


def _statements(text: str):
    """Split on ';', yielding (statement, line, col) for each statement start."""
    buf: list[str] = []
    start: tuple[int, int] | None = None
    line = 1
    col = 0
    for ch in text:
        col += 1
        if ch == "\n":
            line += 1
            col = 0
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt and start is not None:
                yield stmt, start[0], start[1]
            buf = []
            start = None
            continue
        if not ch.isspace() and start is None:
            start = (line, col)
        buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        if start is None:
            start = (line, max(col, 1))
        raise QasmError(f"statement missing terminating ';': {tail!r}", start[0], start[1])


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset (qreg/creg, cx, h, x, z, measure).

    The header and include lines are optional.  Unknown statements are
    rejected with the line/column of the offending statement.
    """
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []

    def check_qubit(name: str, idx: int, line: int, col: int) -> int:
        if qreg is None:
            raise QasmError("qubit reference before qreg declaration", line, col)
        if name != qreg[0]:
            raise QasmError(f"unknown quantum register {name!r}", line, col)
        if idx >= qreg[1]:
            raise QasmError(f"register size mismatch: {name}[{idx}] exceeds size {qreg[1]}", line, col)
        return idx

    for stmt, line, col in _statements(_strip_comments(text)):
        stmt = " ".join(stmt.split())
        m = _RE_OPENQASM.match(stmt)
        if m:
            if m.group(1) != "2.0":
                raise QasmError(f"unsupported OPENQASM version {m.group(1)}", line, col)
            continue
        if _RE_INCLUDE.match(stmt):
            continue
        m = _RE_REG.match(stmt)
        if m:
            kind, name, size = m.group(1), m.group(2), int(m.group(3))
            if size < 1:
                raise QasmError(f"{kind} size must be >= 1", line, col)
            if kind == "qreg":
                if qreg is not None:
                    raise QasmError("multiple qreg declarations are not supported", line, col)
                qreg = (name, size)
            else:
                if creg is not None:
                    raise QasmError("multiple creg declarations are not supported", line, col)
                creg = (name, size)
            continue
        m = _RE_CX.match(stmt)
        if m:
            c = check_qubit(m.group(1), int(m.group(2)), line, col)
            t = check_qubit(m.group(3), int(m.group(4)), line, col)
            if c == t:
                raise QasmError(f"cx control and target coincide ({c})", line, col)
            gates.append(CNOT(c, t))
            continue
        m = _RE_ONEQ.match(stmt)
        if m:
            q = check_qubit(m.group(2), int(m.group(3)), line, col)
            gates.append(OneQubit(m.group(1), q))
            continue
        m = _RE_MEASURE.match(stmt)
        if m:
            q = check_qubit(m.group(1), int(m.group(2)), line, col)
            cname, cidx = m.group(3), int(m.group(4))
            if creg is None or cname != creg[0]:
                raise QasmError(f"unknown classical register {cname!r}", line, col)
            if cidx >= creg[1]:
                raise QasmError(f"register size mismatch: {cname}[{cidx}] exceeds size {creg[1]}", line, col)
            gates.append(measure_into(q, cidx))
            continue
        word = _RE_GATE_WORD.match(stmt)
        if word and word.group(1) not in ("qreg", "creg", "measure", "cx", "h", "x", "z", "include", "OPENQASM"):
            raise QasmError(f"unsupported gate or statement {word.group(1)!r}", line, col)
        raise QasmError(f"cannot parse statement {stmt!r}", line, col)

    if qreg is None:
        raise QasmError("missing qreg declaration")
    return Circuit(qreg[1], tuple(gates))


def write_qasm(circuit: Circuit) -> str:
    """Serialize to the QASM subset, one statement per line.

    The classical register has one bit per qubit, or more when a
    measurement targets a higher bit.
    """
    bits = [g.bit + 1 for g in circuit.gates if isinstance(g, Measure)]
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n}];",
        f"creg c[{max([circuit.n, *bits])}];",
    ]
    for g in circuit.gates:
        if isinstance(g, CNOT):
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif isinstance(g, OneQubit):
            lines.append(f"{g.kind} q[{g.qubit}];")
        else:
            lines.append(f"measure q[{g.qubit}] -> c[{g.bit}];")
    return "\n".join(lines) + "\n"


def random_cnot_circuit(n: int, m: int, seed: int) -> Circuit:
    """Seeded random CNOT circuit: m gates uniform over ordered distinct pairs."""
    if n < 2:
        raise ValueError("random CNOT circuits need at least 2 qubits")
    if m < 0:
        raise ValueError("gate count must be >= 0")
    rng = random.Random(seed)
    gates = []
    for _ in range(m):
        c = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= c:
            t += 1
        gates.append(CNOT(c, t))
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def depth(circuit: Circuit) -> int:
    """Greedy ASAP layering depth; an empty circuit has depth 0."""
    last: dict[int, int] = {}
    deepest = 0
    for g in circuit.gates:
        qs = gate_qubits(g)
        layer = 1 + max((last.get(q, 0) for q in qs), default=0)
        for q in qs:
            last[q] = layer
        if layer > deepest:
            deepest = layer
    return deepest


def resolve_one_qubit_error(graph: CouplingGraph, one_q_error: float | None = None) -> float:
    """Explicit value wins, then device calibration, then the global default.

    An explicit value is a probability; one outside [0, 1] raises ``ValueError``.
    """
    if one_q_error is not None:
        if not 0.0 <= one_q_error <= 1.0:
            raise ValueError(f"one-qubit error must be in [0, 1], got {one_q_error}")
        return one_q_error
    if graph.one_qubit_error is not None:
        return graph.one_qubit_error
    return DEFAULT_ONE_QUBIT_ERROR


def esp(circuit: Circuit, graph: CouplingGraph, one_q_error: float | None = None) -> float:
    """Estimated success probability: product of per-gate success factors.

    CNOTs contribute (1 - edge error) and must sit on coupling edges;
    single-qubit gates contribute (1 - one_q_error); measurements factor 1.
    """
    oq = resolve_one_qubit_error(graph, one_q_error)
    f = 1.0
    for k, g in enumerate(circuit.gates):
        if isinstance(g, CNOT):
            if not graph.has_edge(g.control, g.target):
                raise ValueError(f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge")
            f *= 1.0 - graph.error(g.control, g.target)
        elif isinstance(g, OneQubit):
            f *= 1.0 - oq
    return f


def monte_carlo_fidelity(circuit: Circuit, graph: CouplingGraph, shots: int, seed: int) -> float:
    """Monte-Carlo all-zeros fidelity of a CNOT-only circuit.

    Each shot starts from the all-zeros state; every CNOT applies its ideal
    classical action and then, with probability equal to its edge error,
    injects a fault chosen uniformly from {flip control, flip target, flip
    both}.  Returns the fraction of shots ending in the all-zeros state.

    The per-(shot, gate) randomness is pre-generated from the seed, so the
    estimate is reproducible bit-exactly and independent of evaluation order.
    numpy is imported here, not at module level, so that callers who never
    sample do not pay for loading it.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not circuit.is_cnot_only():
        raise ValueError("Monte-Carlo fidelity is defined for CNOT-only circuits")
    if seed < 0:
        raise ValueError(f"Monte-Carlo seed must be >= 0, got {seed}")
    import numpy as np

    rng = np.random.default_rng(seed)
    state = np.zeros((shots, circuit.n), dtype=np.uint8)
    for k, g in enumerate(circuit.gates):
        if not graph.has_edge(g.control, g.target):  # type: ignore[union-attr]
            raise ValueError(f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge")
        e = graph.error(g.control, g.target)
        state[:, g.target] ^= state[:, g.control]
        fault = rng.random(shots) < e
        mode = rng.integers(0, 3, size=shots)
        state[:, g.control] ^= (fault & (mode != 1)).astype(np.uint8)
        state[:, g.target] ^= (fault & (mode != 0)).astype(np.uint8)
    return float(np.mean(~state.any(axis=1)))


# ---------------------------------------------------------------------------
# Mixed-circuit segmentation
# ---------------------------------------------------------------------------

def segment_runs(gates: Sequence[Gate]) -> list[tuple[str, tuple[Gate, ...]]]:
    """Split into maximal runs of CNOTs and runs of single-qubit/measure gates."""
    runs: list[tuple[str, tuple[Gate, ...]]] = []
    current: list[Gate] = []
    kind = ""
    for g in gates:
        k = "cnot" if isinstance(g, CNOT) else "other"
        if k != kind and current:
            runs.append((kind, tuple(current)))
            current = []
        kind = k
        current.append(g)
    if current:
        runs.append((kind, tuple(current)))
    return runs


def relocate(gate: OneQubit | Measure, mapping) -> OneQubit | Measure:
    """An H/X/Z gate or a measurement on its mapped physical qubit; the classical bit stays."""
    if isinstance(gate, OneQubit):
        return OneQubit(gate.kind, mapping.physical(gate.qubit))
    return measure_into(mapping.physical(gate.qubit), gate.bit)


def segment_and_synthesize(circuit: Circuit, graph: CouplingGraph, config=None, mapping=None):
    """Synthesize a mixed circuit by routing each maximal CNOT run separately.

    One mapping, computed or checked once per circuit as in ``synthesize``,
    serves every CNOT run, and single-qubit gates and measurements are
    relocated to their mapped physical qubits (a measurement keeps its
    classical bit).  The output circuit is the interleaving of relocated
    runs and synthesized runs in original order, over the device's physical
    qubits.

    Returns:
        (physical Circuit, list of per-run synthesis results).
    """
    from .synth import _checked_mapping, _eliminate

    mapping = _checked_mapping(graph, circuit.n, config, mapping)
    out: list[Gate] = []
    results = []
    for kind, run in segment_runs(circuit.gates):
        if kind == "cnot":
            m = ParityMatrix.from_circuit([(g.control, g.target) for g in run], circuit.n)
            res = _eliminate(m, graph, mapping)
            out.extend(res.gates)
            results.append(res)
        else:
            out.extend(relocate(g, mapping) for g in run)  # type: ignore[arg-type]
    return Circuit(max(graph.vertices) + 1, tuple(out)), results
