"""End-to-end benchmark of the MCBound serve and retrain paths over a real socket.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload serve_repeat --seed 1 --seconds 30 --trace 0

Workloads: ``serve_repeat``, ``serve_novel``, ``online_retrain`` (see
``BENCHMARK.json`` and ``e2ebench/BASELINE.md`` for why each exists).
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the per-layer
metrics from spans (``--trace 1``).  The line before it is the run's
report: settings, workload properties, end-to-end values (also on traced
runs, for the tracing overhead), failures and, when traced, the span
table.  ``--tiny`` runs a small trace and few requests (the self-test).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of a run, inside the checkout
WORK_DIR = ROOT / ".e2ebench-work"
WORKLOADS = ("serve_repeat", "serve_novel", "online_retrain")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small trace, few requests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # The client and every server it spawns share one CPU.  On the 2-vCPU
    # benchmark box the host took 10-22% of the guest's time as steal while
    # both vCPUs were busy, and about 1% while one was; host stalls then
    # swung serve throughput 2x from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, ROOT, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
