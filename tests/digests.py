"""The perfbench output digests that CI's ``digests`` job pins, and the one
command that records them.

    python3 tests/digests.py

runs every workload of ``BENCHMARK.json`` at seeds 1 and 2 from the root of
this checkout (``perfbench/run.py --seconds 1 --trace 0``), refuses a run
whose outputs the benchmark's checker rejected, and rewrites
``tests/golden_digests.json`` as ``{workload: {seed: digest}}``.  The job
runs this script and fails when ``git diff`` shows the file changed.
It needs numpy, as the benchmark does, and takes about a minute.  A change
that moves an output on purpose runs it and commits the file with the
goldens of ``tests/goldens.py``.  ``perfbench/baseline.json`` keeps its own
digests, which ``perfbench/spread.py`` records with the timings.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tests" / "golden_digests.json"
SEEDS = ("1", "2")


def digest(workload: str, seed: str) -> str:
    """The output digest of one short untraced run, whose outputs must pass the checker."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    *_, diagnostics, result = out.splitlines()
    if json.loads(result)["correct"] is not True:
        raise SystemExit(f"{workload} seed {seed}: the benchmark's checker rejected an output")
    return json.loads(diagnostics)["diagnostics"]["output_digest"]


def main() -> None:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    digests = {w: {seed: digest(w, seed) for seed in SEEDS} for w in workloads}
    PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{PATH.name}: {len(workloads)} workloads x {len(SEEDS)} seeds")


if __name__ == "__main__":
    main()
