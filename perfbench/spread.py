#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartiles as a share
of the median, the figure a run-to-run bound must cover. Each run is
untraced and measures for the run_seconds of BENCHMARK.json. Runs are made
one after another, never in parallel. Example, from the checkout root:

    python3 perfbench/spread.py --workloads shuffle wreath oracle --seeds 1 2 3 4 5

The per-run results and the summary are written to
.perfbench-out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["shuffle", "wreath", "oracle"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            runs[workload].append({"seed": seed, **result})
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs[workload]]) for name in names
        }
        for name, s in summary[workload].items():
            print(f"  {workload:<8} {name:<16} median={s['median']:.4f} iqr_share={s['iqr_share']:.4f}")
    out = ROOT / ".perfbench-out" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
