"""Command-line interface: arch, synth, verify, bench, fidelity.

Exit codes: 0 success, 1 verification mismatch, 2 input error, 3 internal
invariant failure.  Every command is deterministic given its inputs and
``--seed``; the only exception is the wall-clock ``ms`` column in bench
reports.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .arch import (
    HAMILTONIAN_VERTEX_LIMIT,
    ArchError,
    CouplingGraph,
    articulation_points,
    builtin,
    has_hamiltonian_path,
    mask_vertices,
    parse_arch,
)
from .circuit import (
    Circuit,
    QasmError,
    esp,
    gate_qubits,
    monte_carlo_fidelity,
    parse_qasm,
    random_cnot_circuit,
    segment_and_synthesize,
    write_qasm,
)
from .circuit import depth as circuit_depth
from .gf2 import ParityMatrix
from .mapping import Mapping, TabuConfig, derive_seed, mapping_failure, optimize_mapping
from .synth import circuit_failure, synthesize, verification_failure

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
    except ArchError as exc:
        builtin_error = exc
    path = Path(name_or_path)
    if not path.exists():
        raise InputError(f"no such file {name_or_path!r}, and not a built-in: {builtin_error}")
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


def _check_shots(shots: int, seed: int | None) -> None:
    """``seed`` is the sampler's seed, or ``None`` when the command derives its own."""
    if shots < 0:
        raise InputError(f"--shots must be >= 0, got {shots}")
    if shots > 0 and seed is not None and seed < 0:
        raise InputError(f"--seed must be >= 0 when --shots > 0, got {seed}")


def _cell(value: object, spec: str = ".6f") -> str:
    """One CSV or table cell: a float through ``spec``, ``None`` empty."""
    if value is None:
        return ""
    return format(value, spec) if isinstance(value, float) else str(value)


def _record_text(record: dict, fmt: str) -> str:
    """A flat record as one JSON line, a CSV header and row, or ``key=value`` pairs."""
    if fmt == "json":
        return json.dumps(record, sort_keys=True) + "\n"
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(map(_cell, record.values())) + "\n"
    return " ".join(f"{key}={_cell(value) or '-'}" for key, value in record.items()) + "\n"


def _metrics(circuit: Circuit, graph: CouplingGraph, shots: int, seed: int) -> dict:
    """The paper's figures of merit for a synthesized circuit: CNOT count,
    depth, ESP, and the Monte-Carlo fidelity when ``shots`` > 0."""
    return {
        "cnot": len(circuit.cnot_pairs()),
        "depth": circuit_depth(circuit),
        "esp": esp(circuit, graph),
        "mc_fidelity": monte_carlo_fidelity(circuit, graph, shots, seed) if shots > 0 else None,
    }


# ---------------------------------------------------------------------------
# arch
# ---------------------------------------------------------------------------

def cmd_arch(args: argparse.Namespace) -> int:
    graph = load_arch(args.arch)
    connected = graph.is_connected()
    cut_mask = articulation_points(graph) if connected else 0
    cuts = list(mask_vertices(cut_mask)) if connected else None
    keys = list(mask_vertices(graph.vertex_mask & ~cut_mask)) if connected else None
    small = graph.num_vertices <= HAMILTONIAN_VERTEX_LIMIT
    ham = has_hamiltonian_path(graph) if connected and small else None
    if args.format == "json":
        payload = {
            "name": graph.name or args.arch,
            "qubits": graph.num_vertices,
            "edges": [[u, v, e] for u, v, e in graph.edges()],
            "connected": connected,
            "articulation_points": cuts,
            "key_qubits": keys,
            "hamiltonian_path": "not computed" if connected and not small else list(ham) if ham else None,
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
                lines.append(f"hamiltonian path: not computed (graph exceeds {HAMILTONIAN_VERTEX_LIMIT} qubits)")
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
    _check_shots(args.shots, args.seed)
    graph = load_arch(args.arch)
    circ = _read_circuit(args.input)
    # The output is CNOT-only exactly when the input is, so refuse before the search.
    if args.shots > 0 and not circ.is_cnot_only():
        raise InputError("--shots requires a CNOT-only circuit (Monte-Carlo model)")
    config = TabuConfig(tabu_len=args.tabu_len, iterations=args.iterations, seed=args.seed)

    out_circuit, mapping = segment_and_synthesize(circ, graph, config)
    failure = circuit_failure(circ, out_circuit, graph, mapping)
    if failure is not None:
        print(f"internal verification failed: {failure}", file=sys.stderr)
        return EXIT_INTERNAL

    metrics = _metrics(out_circuit, graph, args.shots, args.seed)
    _write_text(args.out, write_qasm(out_circuit))
    if args.map_out:
        _write_text(args.map_out, _mapping_payload(args.arch, mapping))
    # Keep stdout clean for the circuit itself when no output file is given.
    stream = sys.stdout if args.out else sys.stderr
    stream.write(_record_text(metrics, args.format))
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
        assign, arch_spec = payload["assign"], args.arch or payload["arch"]
        if not isinstance(arch_spec, str) or type(assign) is not list or any(type(v) is not int for v in assign):
            raise TypeError("arch must be a string and assign a list of integers")
        mapping = Mapping(tuple(assign))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.mapping}: malformed mapping file ({exc})") from exc
    graph = load_arch(arch_spec)

    if (failure := mapping_failure(graph, mapping, original.n)) is not None:
        raise InputError(f"{args.mapping}: {failure}")
    for k, g in enumerate(synthesized.gates):
        if not set(gate_qubits(g)) <= graph.vertices:
            raise InputError(f"gate {k}: {g} uses a qubit outside the device")
    if synthesized.n > graph.width:
        raise InputError(f"synthesized circuit declares {synthesized.n} qubits, wider than the device's {graph.width}")

    failure = circuit_failure(original, synthesized, graph, mapping)
    if failure is None and synthesized.clbits != original.clbits:
        failure = f"classical register has {synthesized.clbits} bits, original has {original.clbits}"
    if failure is not None:
        print(f"mismatch: {failure}")
        return EXIT_VERIFY
    print("equivalent")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

#: (field, table width, float format) of each bench column, in order.
BENCH_COLUMNS = (
    ("arch", 18, ""),
    ("n", 4, ""),
    ("input_gates", 12, ""),
    ("cnot", 8, ".2f"),
    ("depth", 8, ".2f"),
    ("esp", 10, ".6f"),
    ("mc_fidelity", 12, ".6f"),
    ("ms", 10, ".3f"),
)
#: The fields that a ``name:mean`` row averages over its instances.
MEAN_FIELDS = ("cnot", "depth", "esp", "mc_fidelity", "ms")


def cmd_bench(args: argparse.Namespace) -> int:
    # Each instance samples with its own derived, non-negative seed.
    _check_shots(args.shots, None)
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
    rows: list[dict] = []
    for name in arch_names:
        graph = load_arch(name)
        n = graph.num_vertices
        mapping = optimize_mapping(graph, n, config)
        for size in sizes:
            group: list[dict] = []
            for j in range(args.instances):
                cseed = derive_seed(args.seed, name, size, j)
                circ = random_cnot_circuit(n, size, cseed)
                m = ParityMatrix.from_circuit(circ.cnot_pairs(), n)
                t0 = time.perf_counter()
                res = synthesize(m, graph, mapping=mapping)
                ms = (time.perf_counter() - t0) * 1e3
                failure = verification_failure(m, graph, mapping, res.gates)
                if failure is not None:
                    print(f"internal verification failed ({name}, size {size}, instance {j}): {failure}", file=sys.stderr)
                    return EXIT_INTERNAL
                metrics = _metrics(res.physical_circuit(), graph, args.shots, cseed)
                group.append({"arch": name, "n": n, "input_gates": size, **metrics, "ms": ms, "aggregate": False})
            mean = {
                key: None if group[0][key] is None else sum(row[key] for row in group) / len(group)
                for key in MEAN_FIELDS
            }
            rows.extend(group)
            rows.append({"arch": f"{name}:mean", "n": n, "input_gates": size, **mean, "aggregate": True})

    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        lines = [[field for field, _, _ in BENCH_COLUMNS]]
        lines.extend([_cell(row[field], spec) for field, _, spec in BENCH_COLUMNS] for row in rows)
        if args.format == "table":
            widths = [width for _, width, _ in BENCH_COLUMNS]
            text = "".join(" ".join(map(str.ljust, line, widths)) + "\n" for line in lines)
        else:
            text = "".join(",".join(line) + "\n" for line in lines)
    _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def cmd_fidelity(args: argparse.Namespace) -> int:
    _check_shots(args.shots, args.seed)
    graph = load_arch(args.arch)
    circ = _read_circuit(args.input)
    analytic = esp(circ, graph, args.one_q_error)
    mc = None
    if args.shots > 0:
        if not circ.is_cnot_only():
            raise InputError("--shots requires a CNOT-only circuit (Monte-Carlo model)")
        mc = monte_carlo_fidelity(circ, graph, args.shots, args.seed)
    record = {"esp": analytic, "mc_fidelity": mc, "shots": args.shots, "seed": args.seed}
    sys.stdout.write(_record_text(record, args.format))
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

    p_bench = sub.add_parser("bench", help="seeded random-circuit benchmark sweep", description=(
        "The ms column times synthesis alone; each device's mapping is searched once, before any timing."))
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
    except (ValueError, OSError) as exc:
        # InputError, ArchError and QasmError are ValueErrors too.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
