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
from functools import reduce
from itertools import groupby
from operator import or_
from typing import NamedTuple, Sequence

from .arch import DEFAULT_ONE_QUBIT_ERROR, CouplingGraph
from .gf2 import ParityMatrix, gf2_inverse


class CNOT(NamedTuple):
    control: int
    target: int


class OneQubit(NamedTuple):
    kind: str  # "h" | "x" | "z"
    qubit: int


class Measure(NamedTuple("Measure", [("qubit", int), ("clbit", int)])):
    """Measurement of ``qubit`` into classical bit ``clbit``; ``Measure(q)`` is ``Measure(q, q)``."""

    __slots__ = ()

    def __new__(cls, qubit: int, clbit: int | None = None) -> Measure:
        return super().__new__(cls, qubit, qubit if clbit is None else clbit)


Gate = CNOT | OneQubit | Measure

_ONE_QUBIT_KINDS = ("h", "x", "z")


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, CNOT):
        return (gate.control, gate.target)
    return (gate.qubit,)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over qubits 0..n-1 and a classical register of ``clbits`` bits.

    ``clbits`` defaults to one bit per qubit, or more when a measurement
    targets a higher bit.
    """

    n: int
    gates: tuple[Gate, ...] = ()
    clbits: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        top = 0  # one past the highest measured classical bit
        for k, g in enumerate(self.gates):
            if isinstance(g, CNOT):
                if g.control == g.target:
                    raise ValueError(f"gate {k}: control and target coincide ({g.control})")
            elif isinstance(g, OneQubit):
                if g.kind not in _ONE_QUBIT_KINDS:
                    raise ValueError(f"gate {k}: unsupported single-qubit kind {g.kind!r}")
            elif g.clbit < 0:
                raise ValueError(f"gate {k}: negative classical bit {g.clbit}")
            else:
                top = max(top, g.clbit + 1)
            for q in gate_qubits(g):
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {k}: qubit {q} outside [0,{self.n})")
        if self.clbits is None:
            object.__setattr__(self, "clbits", max(self.n, top))
        elif self.clbits < max(top, 1):
            raise ValueError(f"classical register needs at least {max(top, 1)} bits, got {self.clbits}")

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
_WORD = re.compile(_ID)
_REF = rf"({_ID})\s*\[\s*(\d+)\s*\]"  # name[index], two groups
#: Each keyword and the whole statement it begins; the keyword is always
#: followed by whitespace, so the leading identifier picks the one pattern.
_GRAMMAR = {word: re.compile(rf"{word}\s+{args}") for word, args in {
    "OPENQASM": r"(\S+)",
    "include": r'"[^"]*"',
    "qreg": _REF,
    "creg": _REF,
    "cx": rf"{_REF}\s*,\s*{_REF}",
    "h": _REF,
    "x": _REF,
    "z": _REF,
    "measure": rf"{_REF}\s*->\s*{_REF}",
}.items()}


def _statements(text: str):
    """Yield (statement, line, col) for each ';'-terminated statement, ``//`` comments removed.

    A non-blank tail after the last ';' raises once every statement before it is yielded.
    """
    text = "\n".join(line.split("//", 1)[0] for line in text.splitlines())
    chunks = text.split(";")
    line, line_start, counted, offset = 1, 0, 0, 0
    for k, chunk in enumerate(chunks):
        stmt = chunk.strip()
        if stmt:
            begin = offset + len(chunk) - len(chunk.lstrip())
            line += text.count("\n", counted, begin)
            line_start = text.rfind("\n", counted, begin) + 1 or line_start
            counted = begin
            if k == len(chunks) - 1:
                raise QasmError(f"statement missing terminating ';': {stmt!r}", line, begin - line_start + 1)
            yield stmt, line, begin - line_start + 1
        offset += len(chunk) + 1


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset (qreg/creg, cx, h, x, z, measure).

    The header and include lines are optional.  Unknown statements are
    rejected with the line/column of the offending statement.
    """
    regs: dict[str, tuple[str, int]] = {}  # "qreg"/"creg" -> (name, size)
    gates: list[Gate] = []

    def index(kind: str, name: str, idx: str) -> int:
        """``name[idx]`` checked against the declared ``kind`` register."""
        reg = regs.get(kind)
        if reg is None and kind == "qreg":
            raise QasmError("qubit reference before qreg declaration", line, col)
        if reg is None or name != reg[0]:
            raise QasmError(f"unknown {'quantum' if kind == 'qreg' else 'classical'} register {name!r}", line, col)
        if (i := int(idx)) >= reg[1]:
            raise QasmError(f"register size mismatch: {name}[{i}] exceeds size {reg[1]}", line, col)
        return i

    for stmt, line, col in _statements(text):
        stmt = " ".join(stmt.split())
        word = _WORD.match(stmt)
        if word and word[0] not in _GRAMMAR:
            raise QasmError(f"unsupported gate or statement {word[0]!r}", line, col)
        m = word and _GRAMMAR[word[0]].fullmatch(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", line, col)
        kw, args = word[0], m.groups()
        if kw == "OPENQASM" and args[0] != "2.0":
            raise QasmError(f"unsupported OPENQASM version {args[0]}", line, col)
        elif kw in ("qreg", "creg"):
            if int(args[1]) < 1:
                raise QasmError(f"{kw} size must be >= 1", line, col)
            if kw in regs:
                raise QasmError(f"multiple {kw} declarations are not supported", line, col)
            regs[kw] = (args[0], int(args[1]))
        elif kw == "cx":
            c, t = index("qreg", args[0], args[1]), index("qreg", args[2], args[3])
            if c == t:
                raise QasmError(f"cx control and target coincide ({c})", line, col)
            gates.append(CNOT(c, t))
        elif kw in _ONE_QUBIT_KINDS:
            gates.append(OneQubit(kw, index("qreg", *args)))
        elif kw == "measure":
            gates.append(Measure(index("qreg", args[0], args[1]), index("creg", args[2], args[3])))

    if "qreg" not in regs:
        raise QasmError("missing qreg declaration")
    return Circuit(regs["qreg"][1], tuple(gates), regs["creg"][1] if "creg" in regs else None)


def write_qasm(circuit: Circuit) -> str:
    """Serialize to the QASM subset, one statement per line."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n}];",
        f"creg c[{circuit.clbits}];",
    ]
    for g in circuit.gates:
        if isinstance(g, CNOT):
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif isinstance(g, OneQubit):
            lines.append(f"{g.kind} q[{g.qubit}];")
        else:
            lines.append(f"measure q[{g.qubit}] -> c[{g.clbit}];")
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
    Single-qubit gates and measurements must act on device qubits.
    """
    oq = resolve_one_qubit_error(graph, one_q_error)
    f = 1.0
    for k, g in enumerate(circuit.gates):
        if isinstance(g, CNOT):
            if not graph.has_edge(g.control, g.target):
                raise ValueError(f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge")
            f *= 1.0 - graph.error(g.control, g.target)
        elif g.qubit not in graph.vertices:
            raise ValueError(f"gate {k}: qubit {g.qubit} is not on the device")
        elif isinstance(g, OneQubit):
            f *= 1.0 - oq
    return f


def monte_carlo_fidelity(circuit: Circuit, graph: CouplingGraph, shots: int, seed: int) -> float:
    """Monte-Carlo all-zeros fidelity of a CNOT-only circuit.

    Every CNOT applies its ideal classical action and then, with probability
    equal to its edge error, flips its control, its target or both, uniformly.
    Returns the fraction of shots that end in the all-zeros state.  Shots are
    bit-sliced, a device qubit's state being one int with bit s for shot s,
    and one ``random.Random(seed)`` draws every bit (README, "Monte-Carlo
    model").  Every gate must sit on a coupling edge, so the state is no
    wider than the device's ids, however wide the circuit's register.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not circuit.is_cnot_only():
        raise ValueError("Monte-Carlo fidelity is defined for CNOT-only circuits")
    if seed < 0:
        raise ValueError(f"Monte-Carlo seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    state = [0] * min(circuit.n, graph.width)
    for k, g in enumerate(circuit.gates):
        if not graph.has_edge(g.control, g.target):  # type: ignore[union-attr]
            raise ValueError(f"gate {k}: CNOT({g.control},{g.target}) is not a coupling edge")
        state[g.target] ^= state[g.control]
        # A shot faults when its 53-bit uniform, drawn top bit first, is below the threshold.
        threshold, bit = int(graph.error(g.control, g.target) * 2**53), 1 << 53
        fault, tied = 0, (1 << shots) - 1
        while tied and threshold & (bit - 1):  # some tied shot can still fall below
            bit >>= 1
            ones = tied & rng.getrandbits(shots)  # tied shots drawing a 1 here
            if threshold & bit:
                fault |= tied ^ ones
                tied = ones
            else:
                tied ^= ones
        # Two bits per faulty shot: 00 flips both, 01 the control, 10 the target, 11 redraws.
        while fault:
            a, b = rng.getrandbits(shots), rng.getrandbits(shots)
            settled = fault ^ (fault & a & b)
            state[g.control] ^= settled ^ (settled & a)
            state[g.target] ^= settled ^ (settled & b)
            fault ^= settled
    return (shots - reduce(or_, state, 0).bit_count()) / shots


# ---------------------------------------------------------------------------
# Mixed-circuit segmentation
# ---------------------------------------------------------------------------

def segment_runs(gates: Sequence[Gate]) -> list[tuple[str, tuple[Gate, ...]]]:
    """Split into maximal runs of CNOTs and runs of single-qubit/measure gates."""
    return [
        ("cnot" if is_cnot else "other", tuple(run))
        for is_cnot, run in groupby(gates, key=lambda g: isinstance(g, CNOT))
    ]


def relocate(gate: OneQubit | Measure, mapping) -> OneQubit | Measure:
    """An H/X/Z gate or a measurement on its mapped physical qubit; the classical bit stays."""
    return gate._replace(qubit=mapping.physical(gate.qubit))


def segment_and_synthesize(circuit: Circuit, graph: CouplingGraph, config=None, mapping=None):
    """Synthesize a mixed circuit by routing each maximal CNOT run separately.

    One mapping, searched for with ``config`` or the caller's once checked,
    serves every CNOT run; H/X/Z gates and measurements move to their mapped
    physical qubits, a measurement keeping its classical bit.  Returns the
    circuit over the device's qubits, runs in original order and with the
    input's classical register, and the mapping.
    """
    from .synth import _checked_mapping, _eliminate

    mapping = _checked_mapping(graph, circuit.n, config, mapping)
    out: list[Gate] = []
    for kind, run in segment_runs(circuit.gates):
        if kind == "cnot":
            m = ParityMatrix.from_circuit(run, circuit.n)  # always invertible
            out.extend(_eliminate(m, gf2_inverse(m.rows), graph, mapping).gates)  # type: ignore[arg-type]
        else:
            out.extend(relocate(g, mapping) for g in run)  # type: ignore[arg-type]
    return Circuit(graph.width, tuple(out), circuit.clbits), mapping
