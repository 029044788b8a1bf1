"""Self-test of the benchmark: every workload at a tiny size, traced and not.

Runs the workloads of ``run.py`` (``BENCHMARK.json``'s and
``serve_novel``) and asserts that each run prints, as its last line,
exactly the metrics ``BENCHMARK.json`` declares for that mode
(end-to-end untraced, per-layer traced), each once and with its
declared unit, and that no request failed (``failed`` is 0, so
``success_ratio`` is 1).

Run from the root of a checkout:  python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        report = json.loads(out.stdout.strip().splitlines()[-2])
        errors.append(f"{where}: failed {result['failed']} of {result['attempted']}: "
                      f"{report['failures'][:5]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(expected.keys() - got.keys())}, "
                      f"extra {sorted(got.keys() - expected.keys())}, "
                      f"units {[n for n in expected.keys() & got.keys() if expected[n] != got[n]]}")
    if not trace and result["metrics"]["success_ratio"]["value"] != 1.0:
        errors.append(f"{where}: success_ratio is not 1")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
