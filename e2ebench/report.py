"""Per-layer report: each workload untraced and traced, as Markdown.

For every workload this runs ``run.py`` once with ``--trace 0`` and once
with ``--trace 1`` on the same seed and prints the end-to-end metrics of
both runs with the tracing overhead (traced - untraced), the per-layer
metrics, the span table (total and self time per request kind) and the
workload's properties.

Run from the root of a checkout:

    python3 e2ebench/report.py --seed 2024 --seconds 30 > report.md
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    report, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def section(workload: str, seed: int, seconds: float) -> list[str]:
    plain_report, plain = run(workload, seed, seconds, 0)
    traced_report, traced = run(workload, seed, seconds, 1)
    lines = [f"### {workload}", ""]
    lines += [f"Untraced run: {plain['attempted']} requests, {plain['failed']} failed; "
              f"traced run: {traced['attempted']} requests, {traced['failed']} failed. "
              f"Host steal share {plain_report['host_steal_share']:.3f} / "
              f"{traced_report['host_steal_share']:.3f}.", ""]
    lines += ["| end-to-end metric | unit | untraced | traced | overhead |", "|---|---|---|---|---|"]
    for name, m in plain["metrics"].items():
        t = traced_report["end_to_end"][name]
        lines.append(f"| {name} | {m['unit']} | {m['value']:.4g} | {t:.4g} | {t - m['value']:+.3g} |")
    lines += ["", "| per-layer metric | unit | value |", "|---|---|---|"]
    lines += [f"| {n} | {m['unit']} | {m['value']:.4g} |" for n, m in traced["metrics"].items()]
    for kind, table in traced_report["spans"].items():
        requests = table.pop("requests")
        lines += ["", f"Spans of `{kind}` requests ({requests}), per request:", "",
                  "| span | calls | total ms | self ms |", "|---|---|---|---|"]
        lines += [f"| {name} | {e['calls_per_request']:.3g} | {e['total_ms']:.4g} | {e['self_ms']:.4g} |"
                  for name, e in table.items()]
    props = dict(plain_report["properties"])
    windows = props.pop("retrain_windows")
    lines += ["", "Properties: " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                                          for k, v in props.items())]
    lines += ["Retrain windows (day: rows / distinct strings): " + ", ".join(
        f"{w['now_day']}: {w['rows']}/{w['distinct_strings']}" for w in windows), ""]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    for workload in WORKLOADS:
        print("\n".join(section(workload, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
