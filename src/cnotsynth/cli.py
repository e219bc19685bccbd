"""Command-line interface: arch, synth, verify, bench, fidelity.

Exit codes: 0 success, 1 verification mismatch, 2 input error, 3 internal
invariant failure.  Every command is deterministic given its inputs and
``--seed``; the only exception is the wall-clock ``ms`` column in bench
reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    ArchError,
    CouplingGraph,
    articulation_points,
    builtin,
    has_hamiltonian_path,
    key_qubits,
    parse_arch,
)
from .circuit import (
    Circuit,
    QasmError,
    esp,
    monte_carlo_fidelity,
    parse_qasm,
    random_cnot_circuit,
    segment_and_synthesize,
    segment_runs,
    write_qasm,
)
from .circuit import depth as circuit_depth
from .gf2 import ParityMatrix
from .mapping import Mapping, TabuConfig, optimize_mapping
from .synth import gate_list_failure, synthesize, verification_failure

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    """User-facing input problem (bad file, bad flag value, unknown device)."""


def load_arch(name_or_path: str) -> CouplingGraph:
    """Resolve a built-in name or an architecture file path."""
    try:
        return builtin(name_or_path)
    except ArchError:
        pass
    path = Path(name_or_path)
    if not path.exists():
        raise InputError(f"unknown architecture and no such file: {name_or_path!r}")
    try:
        graph = parse_arch(path.read_text(encoding="utf-8"))
    except ArchError as exc:
        raise InputError(f"{name_or_path}: {exc}") from exc
    if graph.name is None:
        graph.name = path.name
    return graph


def _read_circuit(path: str) -> Circuit:
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    try:
        return parse_qasm(p.read_text(encoding="utf-8"))
    except QasmError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _derive_seed(seed: int, *key) -> int:
    digest = hashlib.blake2b(repr((seed, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _fmt(x: float | None, places: int = 6) -> str:
    return "" if x is None else f"{x:.{places}f}"


# ---------------------------------------------------------------------------
# arch
# ---------------------------------------------------------------------------

def cmd_arch(args: argparse.Namespace) -> int:
    graph = load_arch(args.arch)
    connected = graph.is_connected()
    cuts = sorted(articulation_points(graph)) if connected else None
    keys = sorted(key_qubits(graph)) if connected else None
    small = graph.num_vertices <= HAMILTONIAN_VERTEX_LIMIT
    ham = has_hamiltonian_path(graph) if connected and small else None
    if args.format == "json":
        payload = {
            "name": graph.name or args.arch,
            "qubits": graph.num_vertices,
            "edges": [[u, v, e] for u, v, e in graph.edges()],
            "connected": graph.is_connected(),
            "articulation_points": cuts,
            "key_qubits": keys,
            "hamiltonian_path": list(ham) if ham else None,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["u,v,error"]
        lines.extend(f"{u},{v},{e!r}" for u, v, e in graph.edges())
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"name: {graph.name or args.arch}",
            f"qubits: {graph.num_vertices}",
            "edges:",
        ]
        for u, v, e in graph.edges():
            lines.append(f"  {u} - {v}  error {e:.3e}")
        lines.append(f"connected: {'yes' if connected else 'no'}")
        if connected:
            lines.append(f"articulation points: {' '.join(map(str, cuts)) or '(none)'}")
            lines.append(f"key qubits: {' '.join(map(str, keys))}")
            if small:
                lines.append(f"hamiltonian path: {' '.join(map(str, ham)) if ham else 'none'}")
            else:
                lines.append("hamiltonian path: not computed (graph exceeds 32 qubits)")
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _mapping_payload(arch_spec: str, mapping: Mapping) -> str:
    payload = {"arch": arch_spec, "n": mapping.n, "assign": list(mapping.assign)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_synth(args: argparse.Namespace) -> int:
    graph = load_arch(args.arch)
    if not graph.is_connected():
        raise InputError(f"architecture {args.arch!r} is disconnected; synthesis needs a connected graph")
    circ = _read_circuit(args.input)
    if circ.n > graph.num_vertices:
        raise InputError(f"circuit has {circ.n} qubits but device has {graph.num_vertices}")
    config = TabuConfig(tabu_len=args.tabu_len, iterations=args.iterations, seed=args.seed)

    mapping = optimize_mapping(graph, circ.n, config)
    out_circuit, results = segment_and_synthesize(circ, graph, config, mapping=mapping)
    cnot_runs = [run for kind, run in segment_runs(circ.gates) if kind == "cnot"]
    for res, run in zip(results, cnot_runs):
        original = ParityMatrix.from_circuit([(g.control, g.target) for g in run], circ.n)
        failure = verification_failure(original, res)
        if failure is not None:
            print(f"internal verification failed: {failure}", file=sys.stderr)
            return EXIT_INTERNAL

    cnot_count = sum(r.cnot_count for r in results)
    metrics = {
        "cnot": cnot_count,
        "depth": circuit_depth(out_circuit),
        "esp": esp(out_circuit, graph),
        "mc_fidelity": None,
    }
    if args.shots > 0:
        if out_circuit.is_cnot_only():
            metrics["mc_fidelity"] = monte_carlo_fidelity(out_circuit, graph, args.shots, args.seed)
        else:
            raise InputError("--shots requires a CNOT-only circuit (Monte-Carlo model)")

    _write_text(args.out, write_qasm(out_circuit))
    if args.map_out:
        _write_text(args.map_out, _mapping_payload(args.arch, mapping))
    # Keep stdout clean for the circuit itself when no output file is given.
    stream = sys.stdout if args.out else sys.stderr
    if args.format == "json":
        print(json.dumps(metrics, sort_keys=True), file=stream)
    elif args.format == "csv":
        print("cnot,depth,esp,mc_fidelity", file=stream)
        print(
            f"{metrics['cnot']},{metrics['depth']},{_fmt(metrics['esp'])},{_fmt(metrics['mc_fidelity'])}",
            file=stream,
        )
    else:
        mc = _fmt(metrics["mc_fidelity"]) or "-"
        print(
            f"cnot={metrics['cnot']} depth={metrics['depth']} esp={_fmt(metrics['esp'])} mc_fidelity={mc}",
            file=stream,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    original = _read_circuit(args.original)
    synthesized = _read_circuit(args.synthesized)
    map_path = Path(args.mapping)
    if not map_path.exists():
        raise InputError(f"no such file: {args.mapping}")
    try:
        payload = json.loads(map_path.read_text(encoding="utf-8"))
        mapping = Mapping(tuple(int(v) for v in payload["assign"]))
        arch_spec = args.arch or payload["arch"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.mapping}: malformed mapping file ({exc})") from exc
    graph = load_arch(arch_spec)

    if not original.is_cnot_only() or not synthesized.is_cnot_only():
        raise InputError("verify compares CNOT-only circuits")
    n = original.n
    if mapping.n != n:
        raise InputError(f"mapping covers {mapping.n} qubits but original circuit has {n}")

    if not set(mapping.assign) <= graph.vertices:
        raise InputError(f"{args.mapping}: mapping uses qubits outside the device")
    for k, (c, t) in enumerate(synthesized.cnot_pairs()):
        if c not in graph.vertices or t not in graph.vertices:
            raise InputError(f"gate {k}: CNOT({c},{t}) uses a qubit outside the device")

    m_original = ParityMatrix.from_circuit(original.cnot_pairs(), n)
    failure = gate_list_failure(m_original, graph, mapping, synthesized.gates)
    if failure is not None:
        print(f"mismatch: {failure}")
        return EXIT_VERIFY
    print("equivalent")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

CSV_HEADER = "arch,n,input_gates,cnot,depth,esp,mc_fidelity,ms"


@dataclass
class BenchRow:
    arch: str
    n: int
    input_gates: int
    cnot: float
    depth: float
    esp: float
    mc_fidelity: float | None
    ms: float

    def csv(self, aggregate: bool = False) -> str:
        cnot = f"{self.cnot:.2f}" if aggregate else f"{int(self.cnot)}"
        dep = f"{self.depth:.2f}" if aggregate else f"{int(self.depth)}"
        return ",".join(
            [
                self.arch,
                str(self.n),
                str(self.input_gates),
                cnot,
                dep,
                _fmt(self.esp),
                _fmt(self.mc_fidelity),
                f"{self.ms:.3f}",
            ]
        )


def cmd_bench(args: argparse.Namespace) -> int:
    arch_names = [a.strip() for a in args.arch.split(",") if a.strip()]
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if tok:
            try:
                sizes.append(int(tok))
            except ValueError:
                raise InputError(f"bad size {tok!r}") from None
    if not arch_names or not sizes:
        raise InputError("bench needs at least one architecture and one size")
    if args.instances < 1:
        raise InputError("--instances must be >= 1")

    config = TabuConfig(tabu_len=args.tabu_len, iterations=args.iterations, seed=args.seed)
    rows: list[tuple[BenchRow, bool]] = []
    for name in arch_names:
        graph = load_arch(name)
        if not graph.is_connected():
            raise InputError(f"architecture {name!r} is disconnected")
        n = graph.num_vertices
        mapping = optimize_mapping(graph, n, config)
        for size in sizes:
            group: list[BenchRow] = []
            for j in range(args.instances):
                cseed = _derive_seed(args.seed, name, size, j)
                circ = random_cnot_circuit(n, size, cseed)
                m = ParityMatrix.from_circuit(circ.cnot_pairs(), n)
                t0 = time.perf_counter()
                res = synthesize(m, graph, config, mapping=mapping)
                ms = (time.perf_counter() - t0) * 1e3
                failure = verification_failure(m, res)
                if failure is not None:
                    print(f"internal verification failed ({name}, size {size}, instance {j}): {failure}", file=sys.stderr)
                    return EXIT_INTERNAL
                phys = res.physical_circuit()
                mc = monte_carlo_fidelity(phys, graph, args.shots, cseed) if args.shots > 0 else None
                group.append(
                    BenchRow(name, n, size, res.cnot_count, res.depth, esp(phys, graph), mc, ms)
                )
            rows.extend((r, False) for r in group)
            count = len(group)
            mean_mc = (
                sum(r.mc_fidelity for r in group) / count if args.shots > 0 else None  # type: ignore[misc]
            )
            rows.append(
                (
                    BenchRow(
                        f"{name}:mean",
                        n,
                        size,
                        sum(r.cnot for r in group) / count,
                        sum(r.depth for r in group) / count,
                        sum(r.esp for r in group) / count,
                        mean_mc,
                        sum(r.ms for r in group) / count,
                    ),
                    True,
                )
            )

    if args.format == "json":
        payload = [
            {
                "arch": r.arch,
                "n": r.n,
                "input_gates": r.input_gates,
                "cnot": r.cnot,
                "depth": r.depth,
                "esp": r.esp,
                "mc_fidelity": r.mc_fidelity,
                "ms": r.ms,
                "aggregate": agg,
            }
            for r, agg in rows
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "table":
        widths = [18, 4, 12, 8, 8, 10, 12, 10]
        header = CSV_HEADER.split(",")
        text_rows = [" ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r, agg in rows:
            cells = r.csv(agg).split(",")
            text_rows.append(" ".join(c.ljust(w) for c, w in zip(cells, widths)))
        text = "\n".join(text_rows) + "\n"
    else:
        text = CSV_HEADER + "\n" + "\n".join(r.csv(agg) for r, agg in rows) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def cmd_fidelity(args: argparse.Namespace) -> int:
    graph = load_arch(args.arch)
    circ = _read_circuit(args.input)
    try:
        analytic = esp(circ, graph, args.one_q_error)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    mc = None
    if args.shots > 0:
        if not circ.is_cnot_only():
            raise InputError("--shots requires a CNOT-only circuit (Monte-Carlo model)")
        mc = monte_carlo_fidelity(circ, graph, args.shots, args.seed)
    if args.format == "json":
        print(json.dumps({"esp": analytic, "mc_fidelity": mc, "shots": args.shots, "seed": args.seed}, sort_keys=True))
    else:
        mc_text = _fmt(mc) or "-"
        print(f"esp={_fmt(analytic)} mc_fidelity={mc_text} shots={args.shots} seed={args.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnotsynth",
        description="Noise-aware nearest-neighbor synthesis of CNOT circuits on coupling graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tabu_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--tabu-len", type=int, default=20, help="tabu table length (default 20)")
        p.add_argument("--iterations", type=int, default=50, help="tabu iterations (default 50)")

    p_arch = sub.add_parser("arch", help="inspect a built-in device or architecture file")
    p_arch.add_argument("arch", help="built-in name or file path")
    p_arch.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_arch.add_argument("--out", help="write the report to a file instead of stdout")
    p_arch.set_defaults(func=cmd_arch)

    p_synth = sub.add_parser("synth", help="synthesize a circuit onto an architecture")
    p_synth.add_argument("input", help="input QASM file")
    p_synth.add_argument("--arch", required=True)
    add_tabu_flags(p_synth)
    p_synth.add_argument("--shots", type=int, default=0, help="Monte-Carlo shots (0 = ESP only)")
    p_synth.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_synth.add_argument("--out", help="output QASM file (default stdout)")
    p_synth.add_argument("--map-out", help="write the logical-to-physical mapping as JSON")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="check a synthesized circuit against the original")
    p_verify.add_argument("original", help="original QASM file")
    p_verify.add_argument("synthesized", help="synthesized QASM file")
    p_verify.add_argument("mapping", help="mapping JSON produced by synth --map-out")
    p_verify.add_argument("--arch", help="override the architecture recorded in the mapping file")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="seeded random-circuit benchmark sweep")
    p_bench.add_argument("--arch", required=True, help="comma-separated architecture list")
    p_bench.add_argument("--sizes", required=True, help="comma-separated input gate counts")
    p_bench.add_argument("--instances", type=int, default=10, help="circuits per (arch, size)")
    add_tabu_flags(p_bench)
    p_bench.add_argument("--shots", type=int, default=0)
    p_bench.add_argument("--format", choices=["table", "csv", "json"], default="csv")
    p_bench.add_argument("--out", help="write the report to a file instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_fid = sub.add_parser("fidelity", help="fidelity estimates for a hardware-compliant circuit")
    p_fid.add_argument("input", help="QASM file over physical qubits")
    p_fid.add_argument("--arch", required=True)
    p_fid.add_argument("--shots", type=int, default=0)
    p_fid.add_argument("--seed", type=int, default=0)
    p_fid.add_argument("--one-q-error", type=float, default=None, help="override the single-qubit gate error")
    p_fid.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_fid.set_defaults(func=cmd_fidelity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ArchError, QasmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
