"""The benchmark's workloads: input generation, the timed op, and its check.

Inputs come from the benchmark's own RNG, seeded by the workload seed, never
from cnotsynth's generators, so a change to those cannot change a workload.
cnotsynth is imported inside ``setup`` so that its import time counts as
set-up time.

Each workload has a fixed pool of ``pool_size`` distinct inputs, all made in
``setup``.  A run always does the first ``quality_ops`` of them, whose
outputs give the quality metrics and the output digest, and then keeps
going, pool permitting, until its time is up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import checker

#: Every workload runs on one device; this one has no Hamiltonian path.
#: grid(6,6) is left out: one default-flag mapping on it takes minutes.
GUADALUPE = "guadalupe"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _random_cnots(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(count):
        c = rng.randrange(n)
        t = rng.randrange(n - 1)
        out.append((c, t + (t >= c)))
    return out


def _device(graph, default_one_qubit_error: float) -> checker.Device:
    oq = graph.one_qubit_error
    return checker.Device.from_edges(
        graph.vertices, graph.edges(), default_one_qubit_error if oq is None else oq
    )


class Workload:
    name = ""
    quality_ops = 0
    pool_size = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check_op(self, i: int, output) -> checker.Quality:
        raise NotImplementedError

    def _record(self, i: int, gates, assign) -> None:
        if i < self.quality_ops:
            self.digest.update(repr((i, tuple(gates), tuple(assign))).encode())


class CliGuadalupe(Workload):
    """``cnotsynth synth`` in-process on fresh 16-qubit, 200-CNOT QASM files."""

    name = "cli-guadalupe"
    quality_ops = 40
    pool_size = 120
    qubits = 16
    cnots = 200

    def setup(self) -> None:
        from cnotsynth import cli
        from cnotsynth.arch import DEFAULT_ONE_QUBIT_ERROR

        self.cli = cli
        self.device = _device(cli.load_arch(GUADALUPE), DEFAULT_ONE_QUBIT_ERROR)
        rng = _rng(self.name, self.seed)
        self.inputs = []
        for i in range(self.pool_size):
            pairs = _random_cnots(rng, self.qubits, self.cnots)
            lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.qubits}];", f"creg c[{self.qubits}];"]
            lines.extend(f"cx q[{c}],q[{t}];" for c, t in pairs)
            path = os.path.join(self.workdir, f"in{i}.qasm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            rows = checker.logical_rows(pairs, self.qubits)
            self.inputs.append((path, str(rng.randrange(1 << 31)), rows))
        self.out_path = os.path.join(self.workdir, "out.qasm")
        self.map_path = os.path.join(self.workdir, "map.json")

    def run_op(self, i: int):
        path, seed, _ = self.inputs[i]
        argv = ["synth", path, "--arch", GUADALUPE, "--seed", seed,
                "--out", self.out_path, "--map-out", self.map_path, "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def check_op(self, i: int, output) -> checker.Quality:
        if output != 0:
            raise checker.CheckError(f"cnotsynth synth exited with {output}")
        with open(self.out_path, encoding="utf-8") as fh:
            gates = checker.parse_output_qasm(fh.read())
        with open(self.map_path, encoding="utf-8") as fh:
            assign = json.load(fh)["assign"]
        self._record(i, gates, assign)
        return checker.check_cnot_circuit(self.device, self.inputs[i][2], gates, assign)


class BatchDenseGrid8(Workload):
    """``synthesize`` of dense random 64x64 matrices on grid(8,8), fixed mapping."""

    name = "batch-dense-grid8"
    quality_ops = 60
    pool_size = 180
    side = 8

    def setup(self) -> None:
        import numpy as np

        import cnotsynth as cs
        from cnotsynth.arch import DEFAULT_ONE_QUBIT_ERROR

        n = self.side * self.side
        self.cs = cs
        self.graph = cs.builtin(f"grid({self.side},{self.side})")
        self.device = _device(self.graph, DEFAULT_ONE_QUBIT_ERROR)
        self.mapping = cs.optimize_mapping(self.graph, n, cs.TabuConfig(iterations=0))
        rng = _rng(self.name, self.seed)
        self.rows = []
        self.matrices = []
        while len(self.rows) < self.pool_size:
            rows = [rng.getrandbits(n) for _ in range(n)]
            if checker.rank(rows, n) != n:
                continue
            bits = np.array([[(r >> j) & 1 for j in range(n)] for r in rows], dtype=np.uint8)
            self.rows.append(rows)
            self.matrices.append(cs.ParityMatrix(bits))

    def run_op(self, i: int):
        return self.cs.synthesize(self.matrices[i], self.graph, mapping=self.mapping)

    def check_op(self, i: int, output) -> checker.Quality:
        gates = [("cx", g.control, g.target) for g in output.gates]
        assign = output.mapping.assign
        self._record(i, gates, assign)
        if tuple(assign) != self.mapping.assign:
            raise checker.CheckError("synthesize did not keep the given mapping")
        return checker.check_cnot_circuit(self.device, self.rows[i], gates, assign)


class BatchMixedGuadalupe(Workload):
    """``segment_and_synthesize`` of mixed H/X/Z/CNOT/measure circuits, fixed mapping."""

    name = "batch-mixed-guadalupe"
    quality_ops = 100
    pool_size = 300
    #: Fewer logical qubits than the device, so spare qubits serve as ancillas.
    qubits = 12
    runs = 40

    def setup(self) -> None:
        import cnotsynth as cs
        from cnotsynth.arch import DEFAULT_ONE_QUBIT_ERROR

        self.cs = cs
        self.graph = cs.builtin(GUADALUPE)
        self.device = _device(self.graph, DEFAULT_ONE_QUBIT_ERROR)
        self.mapping = cs.optimize_mapping(self.graph, self.qubits, cs.TabuConfig())
        rng = _rng(self.name, self.seed)
        self.sources = []
        self.circuits = []
        n = self.qubits
        for _ in range(self.pool_size):
            gates: list[tuple] = []
            for r in range(self.runs):
                if r:
                    for _ in range(rng.randint(1, 3)):
                        gates.append((rng.choice(("h", "x", "z")), rng.randrange(n)))
                gates.extend(("cx", c, t) for c, t in _random_cnots(rng, n, rng.randint(4, 24)))
            gates.extend(("measure", q) for q in range(n))
            self.sources.append(gates)
            self.circuits.append(cs.Circuit(n, tuple(_to_cnotsynth(cs, g) for g in gates)))

    def run_op(self, i: int):
        return self.cs.segment_and_synthesize(self.circuits[i], self.graph, mapping=self.mapping)

    def check_op(self, i: int, output) -> checker.Quality:
        out_circuit, _ = output
        gates = [_from_cnotsynth(self.cs, g) for g in out_circuit.gates]
        assign = self.mapping.assign
        self._record(i, gates, assign)
        return checker.check_mixed_circuit(self.device, self.qubits, self.sources[i], gates, assign)


def _to_cnotsynth(cs, gate: tuple):
    if gate[0] == "cx":
        return cs.CNOT(gate[1], gate[2])
    if gate[0] == "measure":
        return cs.Measure(gate[1])
    return cs.OneQubit(gate[0], gate[1])


def _from_cnotsynth(cs, gate) -> tuple:
    if isinstance(gate, cs.CNOT):
        return ("cx", gate.control, gate.target)
    if isinstance(gate, cs.Measure):
        return ("measure", gate.qubit)
    return (gate.kind, gate.qubit)


WORKLOADS = {cls.name: cls for cls in (CliGuadalupe, BatchDenseGrid8, BatchMixedGuadalupe)}
