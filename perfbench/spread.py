"""Measure the benchmark's spread and write its baseline.

    python3 perfbench/spread.py [--out perfbench/baseline.json]

Run it from the root of a checkout.  It runs every workload of
``BENCHMARK.json`` with ``--trace 0`` over seeds 1-10 for its
``run_seconds``, then does the whole set a second time.  For each
end-to-end metric it gives both sets' medians and spreads: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  The raw wall-second latencies and the
host-speed factor get the same next to the normalized ones.  Each workload
then gets two ``--trace 1`` runs with seed ``TRACE_SEED``.  The script checks
that every run is correct, that both sets give the same output digests and
that the two traced runs give the same per-layer counts; it exits 1 if one
of these fails.  ``--out`` writes everything as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version

sys.dont_write_bytecode = True

from kernel import K_NOMINAL_S  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = range(1, 11)
TRACE_SEED = 7
#: Diagnostics whose spread is reported next to the end-to-end metrics.
RAW = ("raw_latency_p50_s", "raw_latency_tail_s", "host_speed")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    diag_line, result_line = proc.stdout.strip().splitlines()[-2:]
    print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr, flush=True)
    return json.loads(result_line), json.loads(diag_line)["diagnostics"]


def _values(rows: list[tuple[dict, dict]], name: str) -> list[float]:
    if name in RAW:
        return [d[name] for _, d in rows]
    return [r["metrics"][name]["value"] for r, _ in rows]


def _entry(first: list, second: list, traced: list, bounds: dict) -> dict:
    metrics = {}
    for name in [*bounds, *RAW]:
        a, b = _values(first, name), _values(second, name)
        metrics[name] = {
            "bound": bounds.get(name),
            "median": statistics.median(a),
            "spread": spread(a),
            "second_set_median": statistics.median(b),
            "second_set_spread": spread(b),
            "values": a,
            "second_set_values": b,
        }
    (t1, t1_diag), (t2, t2_diag) = traced
    digests = {str(seed): d["output_digest"] for seed, (_, d) in zip(SEEDS, first)}
    return {
        "correct": all(r["correct"] for r, _ in first + second + traced),
        "ops_per_run": [d["ops"] for _, d in first],
        "tail_percentile": [d["tail_percentile"] for _, d in first],
        "end_to_end": metrics,
        "output_digests": digests,
        "digests_match_second_set": digests == {str(s): d["output_digest"] for s, (_, d) in zip(SEEDS, second)},
        "per_layer": {k: v["value"] for k, v in t1["metrics"].items()},
        "trace_counts_identical": t1_diag["counts"] == t2_diag["counts"],
        "trace_digests_identical": t1_diag["output_digest"] == t2_diag["output_digest"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the report here as JSON")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [{w: [_run(w, seed, seconds, 0) for seed in SEEDS] for w in workloads} for _ in range(2)]
    report = {
        "about": "Two identical sets of ten --trace 0 runs (seeds 1-10) per workload, then two "
                 f"--trace 1 runs with seed {TRACE_SEED}, written by perfbench/spread.py. 'spread' is "
                 "(Q3 - Q1) / median over a set's ten runs, with quartiles from "
                 "statistics.quantiles(values, n=4). Timings are drift-normalized seconds; raw_* are "
                 "the same latencies in wall seconds. 'per_layer' is the first traced run's metrics.",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": version("numpy")},
        "k_nominal_s": K_NOMINAL_S,
        "run_seconds": seconds,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        traced = [_run(w, TRACE_SEED, seconds, 1) for _ in range(2)]
        entry = _entry(sets[0][w], sets[1][w], traced, bounds)
        report["workloads"][w] = entry
        for name, m in entry["end_to_end"].items():
            print(f"{w:22s} {name:20s} median {m['median']:.6g} / {m['second_set_median']:.6g}  "
                  f"spread {m['spread']:.4f} / {m['second_set_spread']:.4f}  bound {m['bound']}")
        checks = ("correct", "digests_match_second_set", "trace_counts_identical", "trace_digests_identical")
        print(w, " ".join(f"{c}={entry[c]}" for c in checks))
        ok = ok and all(entry[c] for c in checks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
