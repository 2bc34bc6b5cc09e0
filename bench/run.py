#!/usr/bin/env python3
"""tableqa benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload qa-fixture --seed 1 --seconds 12 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file). Workloads, metrics and bounds are listed in
BENCHMARK.json and explained in bench/README.md.

The run makes its inputs from ``--seed`` under ``.bench_work/`` in the
checkout, runs the workload in a child process (``bench/worker.py``) so
that peak memory is that process's alone, and removes the inputs again.
The child may use every CPU, as the program's users do, so gains or losses
from ``pipeline-eval``'s thread pool show in ``eval_s``. Output: a
``machine`` line, the worker's ``fingerprint`` and ``samples`` lines, one
``metric`` line per metric, any failed checks, then the result as the
last line:

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a run with spans around the program's functions.
Exits non-zero, printing no result, when the program's sources are absent
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("qa-fixture", "qa-large", "train-eval")
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402


def machine_info() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg": loadavg}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tableqa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the worker is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/tableqa/__init__.py", "fixtures/manifest.txt")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tableqa checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info()), flush=True)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "qa-large":
            corpus.generate(args.seed, work / "corpus")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"metric {name:<48s} {m['value']:>14.6f} {m['unit']}")
    for problem in result["checks"]:
        print(f"check failed: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
