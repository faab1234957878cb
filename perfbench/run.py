#!/usr/bin/env python3
"""Route-pair benchmark for supermolien.

Times, from outside the package, the route comparisons users run: the
shuffle battery, direct wreath sums against plethysm with collation, and
Molien series against Reynolds-projector ranks. Run it from the root of a
checkout:

    python3 perfbench/run.py --workload shuffle --seed 42 --seconds 33 --trace 0

One process works through one case at a time (a closed loop, no threads).
With ``--trace 0`` it measures set-up time in separate child processes,
then repeats the workload's case list in passes until ``--seconds`` are
used (at least MIN_PASSES passes) and reports the end-to-end metrics.
Times are scaled to a reference host speed (see ``speed.py``). With
``--trace 1`` it runs an untraced, a traced and another untraced pass and
reports the per-layer metrics. Every case compares its two routes and
hashes what it computed; a route mismatch, an exception, or a digest that
differs from ``perfbench/digests.json`` counts as a failure and makes the
exit code 1.
The last line of standard output is the JSON result; the full record,
with the machine it ran on, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import START_REFERENCE, START_REFERENCE_S, Stretch, reference_s, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
DIGESTS = BENCH_DIR / "digests.json"

MIN_PASSES = 4
SETUP_PROBES = 11
PINNED_SEED = 42
# Child process for one set-up sample: interpreter start, import, fixture
# loading and group closure. It prints the monotonic clock, which Linux
# shares between processes, when the first case is ready.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import cases\n"
    "cases.build_cases({workload!r}, {seed})\n"
    "print(time.monotonic_ns())\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("largest_case_s", "s"),
    ("peak_rss_mib", "MiB"),
)

def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- machine record -------------------------------------------------------------


def _git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# -- measuring ------------------------------------------------------------------


def _child_ready_s(code: str) -> float:
    """Seconds from starting ``python -c code`` until it prints the
    monotonic clock."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child process failed:\n{proc.stderr}")
    return (int(proc.stdout.strip().splitlines()[-1]) - t0) / 1e9


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another,
    each as wall time and scaled by the speed.START_REFERENCE children
    started just before and just after it."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    samples = []
    ref = _child_ready_s(START_REFERENCE)
    for _ in range(SETUP_PROBES):
        wall = _child_ready_s(code)
        ref_after = _child_ready_s(START_REFERENCE)
        samples.append(
            {"wall_s": wall, "scaled_s": scaled(wall, ref, ref_after, START_REFERENCE_S)}
        )
        ref = ref_after
    return samples


def run_pass(cases, probe: bool = False) -> dict:
    """Run every case once, each timed as a speed.Stretch (probed inside
    when ``probe``). Returns the summed wall time of the cases (the
    reference runs left out), the same scaled to the reference speed, and
    per-case outcomes."""
    outcomes = []
    unit = reference_s()
    for case in cases:
        with Stretch(unit, probe) as stretch:
            try:
                ok, payload = case.run()
                error = None
            except Exception:  # a case failing must not stop the others
                ok, payload, error = False, None, traceback.format_exc()
        unit = stretch.unit_after
        outcomes.append([case, ok, stretch.wall_s, stretch.scaled_s, payload, error])
    return {
        "total_s": sum(o[2] for o in outcomes),
        "scaled_s": sum(o[3] for o in outcomes),
        "cases": [
            {
                "name": case.name,
                "seconds": wall,
                "scaled_s": scaled_s,
                "ok": ok,
                "digest": None if payload is None else _digest(payload),
                "error": error,
            }
            for case, ok, wall, scaled_s, payload, error in outcomes
        ],
    }


def check_passes(workload: str, seed: int, cases, passes: list[dict]) -> list[dict]:
    """Per-case verdicts over all passes. A run fails when it raised, when
    its routes disagreed, or when its digest differs from the pinned one;
    a seeded case on an unpinned seed must repeat its first digest."""
    pinned = json.loads(DIGESTS.read_text())
    fixed = pinned["fixed"].get(workload, {})
    seeded = pinned[f"seed{PINNED_SEED}"].get(workload, {})
    verdicts = []
    for k, case in enumerate(cases):
        runs = [p["cases"][k] for p in passes]
        if not case.seeded:
            expected = fixed.get(case.name, "none pinned")
        elif seed == PINNED_SEED:
            expected = seeded.get(case.name, "none pinned")
        else:
            expected = runs[0]["digest"]
        problems = []
        for r in runs:
            if r["error"]:
                problems.append(r["error"])
            elif not r["ok"]:
                problems.append("routes disagree")
            elif r["digest"] != expected:
                problems.append(f"digest {r['digest']} != expected {expected}")
        scaled_s = [r["scaled_s"] for r in runs]
        verdicts.append(
            {
                "name": case.name,
                "ok": not problems,
                "failed_passes": len(problems),
                "digest": runs[0]["digest"],
                "median_s": statistics.median(scaled_s),
                "samples_s": scaled_s,
                "wall_median_s": statistics.median(r["seconds"] for r in runs),
                "problems": problems,
            }
        )
    return verdicts


# -- main -------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("shuffle", "wreath", "oracle"))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    machine = machine_record()
    if not (SRC / "supermolien" / "__init__.py").is_file():
        print(f"perfbench: no supermolien sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases as case_lists  # imports supermolien from SRC

    cases = case_lists.build_cases(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cases": [c.name for c in cases],
    }

    if args.trace:
        from tracer import Tracer

        # Untraced passes on both sides of the traced one, so that drift in
        # machine speed during the run biases the overhead ratio less. No
        # pass is probed, so no reference run lands inside a span.
        before = run_pass(cases)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cases)
        finally:
            tracer.uninstall()
        after = run_pass(cases)
        passes = [before, traced, after]
        untraced_s = (before["total_s"] + after["total_s"]) / 2
        metrics = tracer.layer_metrics(traced["total_s"], untraced_s)
        record["trace_report"] = tracer.report(traced["total_s"], untraced_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans_json(), separators=(",", ":")))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = measure_setup(args.workload, args.seed)
        passes = []
        start, last = time.perf_counter(), 0.0
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + last <= args.seconds
        ):
            p0 = time.perf_counter()
            passes.append(run_pass(cases, probe=True))
            last = time.perf_counter() - p0
        record["setup_samples"] = setup
        record["pass_totals_s"] = [p["total_s"] for p in passes]
        record["pass_scaled_s"] = [p["scaled_s"] for p in passes]

    verdicts = check_passes(args.workload, args.seed, cases, passes)
    attempted = len(cases) * len(passes)
    failed = sum(v["failed_passes"] for v in verdicts)
    correct = failed == 0
    if not args.trace:
        largest = case_lists.LARGEST_CASE[args.workload]
        values = {
            "setup_s": statistics.median(p["scaled_s"] for p in setup),
            "total_s": sum(v["median_s"] for v in verdicts),
            "largest_case_s": next(v["median_s"] for v in verdicts if v["name"] == largest),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    machine["loadavg_1m_end"] = os.getloadavg()[0]
    record.update(
        machine=machine,
        passes=len(passes),
        verdicts=verdicts,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        metrics=metrics,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} cases={len(cases)} record={out_path.relative_to(ROOT)}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    for v in verdicts:
        status = "ok" if v["ok"] else "FAIL " + "; ".join(v["problems"])[:500]
        print(f"# case {v['name']:<34} median_s={v['median_s']:.4f} "
              f"wall_median_s={v['wall_median_s']:.4f} {status}")
    if args.trace:
        rep = record["trace_report"]
        print(f"# trace overhead_ratio={rep['overhead_ratio']:.3f} spans={rep['spans']} "
              f"self_sum_s={rep['self_sum_s']:.4f} + unwrapped_s={rep['unwrapped_s']:.4f} "
              f"= traced total_s={rep['traced_total_s']:.4f} "
              f"unwrapped_share={rep['unwrapped_share']:.5f} nesting_errors={rep['nesting_errors']} "
              f"consistent={rep['consistent']}")
        for row in rep["top_self_s"]:
            print(f"# top {row['span']:<44} self_s={row['self_s']:.4f} calls={row['calls']}")
    print(f"# metric fail_ratio {failed / attempted} ratio")
    for name, m in metrics.items():
        print(f"# metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
