"""Tests of the benchmark itself: exact trace counts, tracing that leaves
results unchanged, and the correctness gate.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
They use the cheapest cases of each workload, so they take a few seconds.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import cases  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import supermolien.linalg as linalg  # noqa: E402
import supermolien.superalgebra as superalgebra  # noqa: E402
import tracer as tracer_module  # noqa: E402
from supermolien.linalg import QMatrix  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "shuffle": ("closure-trivial-0-1-r4-i4", "generation-trivial-0-1-n3-i3", "supercommutation-1-1"),
    "wreath": ("routes-s3-sign-scalar-dq8", "collate-trivial-1-1-N3-dq6"),
    "oracle": ("oracle-s2-s2-theta-n2-dq6",),
}
EXACT = ("calls", "labels", "cells", "pairs", "term_pairs", "monomials", "dim_sum")


def small_cases(workload: str, seed: int = run.PINNED_SEED) -> list:
    built = cases.build_cases(workload, seed)
    return [c for c in built if c.name in SMALL[workload]]


def traced_pass(case_list):
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(case_list)
    finally:
        tracer.uninstall()
    return tracer, result


def test_traced_counts_repeat_exactly():
    for workload in SMALL:
        case_list = small_cases(workload)
        first_tracer, first = traced_pass(case_list)
        second_tracer, second = traced_pass(case_list)
        m1 = first_tracer.layer_metrics(first["total_s"], first["total_s"])
        m2 = second_tracer.layer_metrics(second["total_s"], second["total_s"])
        exact = [name for name in m1 if name.rsplit(".", 1)[1] in EXACT]
        assert len(exact) == 24
        assert {k: m1[k] for k in exact} == {k: m2[k] for k in exact}
        assert first_tracer.counts == second_tracer.counts
        assert any(m1[k]["value"] for k in exact), workload


def test_tracing_leaves_digests_unchanged():
    for workload in SMALL:
        case_list = small_cases(workload)
        untraced = run.run_pass(case_list)
        _, traced = traced_pass(case_list)
        verdicts = run.check_passes(workload, run.PINNED_SEED, case_list, [untraced, traced])
        assert all(v["ok"] for v in verdicts), verdicts
        assert [c["digest"] for c in untraced["cases"]] == [c["digest"] for c in traced["cases"]]


def test_uninstall_restores_every_binding():
    original = superalgebra.super_mul
    tracer = Tracer()
    tracer.install()
    try:
        assert superalgebra.super_mul is not original
        assert sys.modules["supermolien"].super_mul is superalgebra.super_mul
    finally:
        tracer.uninstall()
    assert superalgebra.super_mul is original
    assert sys.modules["supermolien"].super_mul is original


def test_consistency_check_holds_on_a_traced_pass():
    tracer, traced = traced_pass(small_cases("wreath"))
    report = tracer.report(traced["total_s"], traced["total_s"])
    assert report["consistent"], report["unwrapped_share"]
    assert report["nesting_errors"] == 0
    assert report["spans"] == sum(row["calls"] for row in report["layers"].values())


def test_consistency_check_fails_on_a_missed_call():
    # Bound before the tracer is installed, so its calls get no span, as if
    # the tracer had failed to rebind it.
    untraced_charpoly = linalg.charpoly_det
    m = QMatrix(12, 12, [(3 * i + 7 * j) % 5 - 2 for i in range(12) for j in range(12)])

    def missed():
        for _ in range(20):
            untraced_charpoly(m)
        return True, None

    tracer, traced = traced_pass(small_cases("wreath") + [cases.Case("missed", missed)])
    report = tracer.report(traced["total_s"], traced["total_s"])
    assert report["unwrapped_share"] > tracer_module.MAX_UNWRAPPED_SHARE
    assert not report["consistent"]


def test_consistency_check_fails_on_a_span_outside_its_parent():
    tracer, traced = traced_pass(small_cases("wreath"))
    child = next(i for i, parent in enumerate(tracer.parents) if parent >= 0)
    tracer.ends[child] = tracer.ends[tracer.parents[child]] + 1
    report = tracer.report(traced["total_s"], traced["total_s"])
    assert report["nesting_errors"] == 1
    assert not report["consistent"]


def test_identity_counter_matches_a_full_check():
    G = cases.seeded_group(3)
    check = tracer_module._IdentityCheck()
    for g in G.elements * 2:
        expected = g.g0 == QMatrix.identity(G.r0) and g.g1 == QMatrix.identity(G.r1)
        assert check(g) == expected
    assert sum(map(check, G.elements)) == 1


def test_seeded_group_is_reproducible_and_bounded():
    for seed in range(20):
        G = cases.seeded_group(seed)
        assert G.to_json_dict() == cases.seeded_group(seed).to_json_dict()
        assert 2 <= G.order <= cases.SEEDED_GROUP_MAX_ORDER
        assert G.r0 <= 2 and G.r1 <= 2


def test_gate_fails_on_mismatch_exception_and_unpinned_digest():
    def wrong():
        return False, {"series": 1}

    def broken():
        raise ZeroDivisionError("boom")

    def unpinned():
        return True, {"series": 2}

    fakes = [
        cases.Case("routes-s3-sign-scalar-dq8", wrong),
        cases.Case("collate-trivial-1-1-N3-dq6", broken),
        cases.Case("routes-s3-s2-theta-dq6", unpinned),
    ]
    passes = [run.run_pass(fakes), run.run_pass(fakes)]
    verdicts = run.check_passes("wreath", run.PINNED_SEED, fakes, passes)
    assert [v["failed_passes"] for v in verdicts] == [2, 2, 2]
    assert verdicts[0]["problems"][0] == "routes disagree"
    assert "ZeroDivisionError" in verdicts[1]["problems"][0]
    assert verdicts[2]["problems"][0].startswith("digest ")


def test_times_are_scaled_by_the_reference_runs_around_them():
    assert speed.scaled(2.0, speed.UNIT_S, speed.UNIT_S) == 2.0
    # Reference runs twice as slow as nominal around a stretch: the host ran
    # at half speed, so the stretch would take half as long at nominal speed.
    assert speed.scaled(2.0, 2 * speed.UNIT_S, 2 * speed.UNIT_S) == 1.0
    for probe in (False, True):
        result = run.run_pass(small_cases("wreath"), probe=probe)
        assert result["total_s"] == sum(c["seconds"] for c in result["cases"])
        assert result["scaled_s"] == sum(c["scaled_s"] for c in result["cases"])
        assert all(c["scaled_s"] > 0 for c in result["cases"])


def test_probed_stretch_leaves_the_probes_out_of_its_wall_time():
    t0 = time.perf_counter_ns()
    with speed.Stretch(speed.reference_s(), probe=True) as stretch:
        busy_until = time.perf_counter() + 4.5 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < busy_until:
            pass
    outer = (time.perf_counter_ns() - t0) / 1e9
    assert len(stretch.marks) == 4
    probes = sum(end - start for start, end, _ in stretch.marks) / 1e9
    # The busy loop watches the clock, so the probes shorten the work in it.
    assert stretch.wall_s + probes == pytest.approx(4.5 * speed.PROBE_INTERVAL_S, rel=0.05)
    assert stretch.wall_s + probes < outer
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
