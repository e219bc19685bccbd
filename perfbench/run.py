"""cnotsynth benchmark: one CLI compile workload and two batch workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cnotsynth checkout.  Each workload runs in fresh
worker processes (``worker.py``), so cnotsynth's module caches start empty
and peak RSS belongs to that workload.  Timings are drift-normalized: see
``kernel.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds diagnostics, which are also written
with the metrics to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from kernel import K_NOMINAL_S  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
#: Set-up is timed in this many fresh processes (the measuring one included),
#: half of them before the measuring one and half after, so that the median
#: spans the run's length rather than one moment of the host.
SETUP_SAMPLES = 11
#: Everything must finish within this many seconds of the start.
DEADLINE_S = 170.0
TAIL_BEYOND = 10

#: Per-layer metrics are per op and read by name: ``*_calls`` and ``*_gates``
#: read the counter of that name, ``X_self_s`` the self seconds of span X,
#: other ``X_s`` its inclusive seconds, ``bench.*`` come from the untraced run,
#: and these are ratios of two counters (0 where the layer does not run).
LAYER_RATIOS = {
    "mapping.distinct_candidate_ratio": ("mapping.mapping_objective_calls", "mapping.initial_mapping_calls"),
    "arch.ham_found_ratio": ("arch.ham_found", "arch.has_hamiltonian_path_calls"),
    "synth.row_pass_skip_ratio": ("synth.row_pass_empty", "synth.eliminate_row_calls"),
    "steiner.tree_vertices_mean": ("steiner.tree_vertices", "steiner.tree_calls"),
    "steiner.steiner_points_mean": ("steiner.steiner_points", "steiner.tree_calls"),
    "gf2.solve_rows_mean": ("gf2.solve_rows", "gf2.solve_calls"),
}


class BenchError(RuntimeError):
    pass


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # Bytecode lives in the benchmark's own cache, whatever src/ holds,
        # and is written by an untimed warm-up worker before set-up is timed.
        PYTHONPYCACHEPREFIX=os.path.abspath(os.path.join(OUT_DIR, "pycache")),
    )
    return env


class Runner:
    def __init__(self, args: argparse.Namespace, start: float) -> None:
        self.args = args
        self.deadline = start + DEADLINE_S
        self.env = _child_env()
        self.count = 0

    def worker(self, mode: str, spans: str | None = None) -> dict:
        args = self.args
        self.count += 1
        path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{mode}-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds), "--result", path]
        if spans:
            cmd += ["--spans", spans]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, env=self.env, timeout=timeout, stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(path)
        return result


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND values beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} ops are too few for a tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    norm, raw = run["norm_s"], run["raw_s"]
    tail, tail_pct = _tail(norm)
    quality = run["quality"]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(norm),
        "latency_tail_s": tail,
        "throughput_per_s": len(norm) / math.fsum(norm),
        "peak_rss_mb": run["maxrss_kib"] / 1024.0,
        "pass_frac": 1.0 - run["failed"] / run["ops"],
        "cnot_mean": statistics.fmean(q[0] for q in quality),
        "depth_mean": statistics.fmean(q[1] for q in quality),
        "neg_log_esp_mean": statistics.fmean(q[2] for q in quality),
    }
    diagnostics = {
        "ops": run["ops"],
        "tail_percentile": tail_pct,
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_tail_s": _tail(raw)[0],
        "host_speed": K_NOMINAL_S / statistics.median(run["kernel_s"]),
        "k_nominal_s": K_NOMINAL_S,
        "setup_samples_s": setups,
        "output_digest": run["digest"],
    }
    return metrics, diagnostics


def _layer_value(name: str, trace: dict, ops: int) -> float:
    counts = trace["counts"]
    if name in LAYER_RATIOS:
        num, den = LAYER_RATIOS[name]
        return counts[num] / counts[den] if counts.get(den) else 0.0
    if name.endswith(("_calls", "_gates")):
        return counts.get(name, 0) / ops
    kind, span = ("self_s", name[: -len("_self_s")]) if name.endswith("_self_s") else ("total_s", name[:-2])
    if not name.endswith("_s") or span not in SPAN_NAMES:
        raise BenchError(f"per-layer metric {name} names no traced span")
    return trace[kind].get(span, 0.0) / ops


def _per_layer(names, traced: dict, untraced: dict) -> dict:
    metrics = {name: _layer_value(name, traced["trace"], traced["ops"])
               for name in names if not name.startswith("bench.")}
    first = untraced["norm_s"][: traced["ops"]]
    metrics["bench.host_speed"] = K_NOMINAL_S / statistics.median(untraced["kernel_s"])
    metrics["bench.raw_wall_s"] = statistics.median(untraced["raw_s"])
    metrics["bench.trace_overhead"] = math.fsum(traced["norm_s"]) / math.fsum(first)
    return metrics


def _declared(trace: int) -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join("src", "cnotsynth", "__init__.py")):
        raise BenchError("src/cnotsynth not found; run from the root of a cnotsynth checkout")
    units = _declared(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args, time.monotonic())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced = runner.worker("measure")
        traced = runner.worker("trace", spans=os.path.join(OUT_DIR, f"spans-{tag}.json"))
        if traced["digest"] != untraced["digest"]:
            raise BenchError("traced outputs differ from untraced outputs")
        metrics = _per_layer(units, traced, untraced)
        diagnostics = {"ops": traced["ops"], "counts": traced["trace"]["counts"],
                       "output_digest": traced["digest"]}
        attempted = untraced["ops"] + traced["ops"]
        failed = untraced["failed"] + traced["failed"]
    else:
        runner.worker("setup")  # warm-up: fills the bytecode cache, untimed
        setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        measured = runner.worker("measure")
        setups.append(measured["setup_s"])
        setups += [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
        metrics, diagnostics = _end_to_end(measured, setups)
        attempted, failed = measured["ops"], measured["failed"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "diagnostics": diagnostics}, fh, indent=1)
    return result, diagnostics


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result, diagnostics = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
