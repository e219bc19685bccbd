"""One benchmark process: set up one workload, then (unless only timing
set-up) run its closed loop of ops and write a JSON result file.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --result FILE [--spans FILE]

MODE is ``setup`` (time set-up only), ``measure`` (untraced ops for S
seconds, at least ``quality_ops`` of them) or ``trace`` (exactly
``quality_ops`` traced ops; the first op's spans go to ``--spans``).  One
client, one thread: each op starts when the previous one has been checked.
The reference kernel is timed before the first op and after every op; an
op's normalized seconds are its wall seconds times ``K_NOMINAL_S`` over the
mean of the two kernel timings around it.  Checks run outside the timed
region.  Run it from the root of a checkout, with ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

from kernel import K_NOMINAL_S, time_kernel


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where trace mode writes the logged spans (required there)")
    args = p.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        p.error("--mode trace needs --spans")
    return args


def _run_ops(wl, args, kernel_before: float) -> dict:
    import checker

    tracer = None
    run_op = wl.run_op
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run_op = tracer.wrap("bench.op", wl.run_op)
    kernels = [kernel_before]
    raw: list[float] = []
    norm: list[float] = []
    quality = []
    failed = 0
    start = time.perf_counter()
    i = 0
    while i < wl.pool_size:
        if i >= wl.quality_ops and (tracer is not None or time.perf_counter() - start >= args.seconds):
            break
        if tracer is not None:
            tracer.begin_op(i)
        output = None
        t0 = time.perf_counter()
        try:
            output = run_op(i)
        except Exception:
            traceback.print_exc()
        dt = time.perf_counter() - t0
        try:
            if output is None:
                raise checker.CheckError("op raised")
            q = wl.check_op(i, output)
            if i < wl.quality_ops:
                quality.append((q.cnot, q.depth, q.neg_log_esp))
        except Exception as exc:  # any malformed output fails the op, not the run
            print(f"op {i}: check failed: {exc!r}", file=sys.stderr)
            failed += 1
        kernels.append(time_kernel())
        factor = K_NOMINAL_S / ((kernels[-2] + kernels[-1]) / 2)
        raw.append(dt)
        norm.append(dt * factor)
        if tracer is not None:
            tracer.end_op(factor)
        i += 1
    out = {
        "ops": i,
        "failed": failed,
        "raw_s": raw,
        "norm_s": norm,
        "kernel_s": kernels,
        "quality": quality,
        "digest": wl.digest.hexdigest(),
    }
    if tracer is not None:
        out["trace"] = {"total_s": tracer.total_s, "self_s": tracer.self_s, "counts": tracer.counts}
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)), f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        time_kernel()
        k_pre = time_kernel()
        t0 = time.perf_counter()
        wl = cls(args.seed, workdir)
        wl.setup()
        setup_raw = time.perf_counter() - t0
        k_post = time_kernel()
        result = {
            "setup_raw_s": setup_raw,
            "setup_s": setup_raw * K_NOMINAL_S / ((k_pre + k_post) / 2),
        }
        if args.mode != "setup":
            result.update(_run_ops(wl, args, k_post))
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
