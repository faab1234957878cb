"""The benchmark's contract with the package.  perfbench/cases.py and
perfbench/run.py, imported as they are, build every workload that
BENCHMARK.json declares, and the cheapest fixed case and the seeded-group
case of each pass run.run_pass and the digest gate run.check_passes.  The
seeded group is built through the QMatrix constructor and its generators
reach the digest through the dense g0 and g1 views, so a change that
breaks either, or moves any pinned digest, fails here and not only in the
benchmark."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402
import run  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# the fixed case of each workload with the least wall time at seed 42
CHEAPEST = {
    "shuffle": "supercommutation-1-1",
    "wreath": "routes-s3-sign-scalar-dq8",
    "oracle": "oracle-s2-s2-theta-n2-dq6",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cheapest_and_seeded_cases_pass_the_digest_gate(workload):
    built = cases.build_cases(workload, run.PINNED_SEED)
    chosen = [c for c in built if c.name == CHEAPEST[workload] or c.name.startswith("seeded-")]
    assert [c.seeded for c in chosen] == [False, True]
    verdicts = run.check_passes(workload, run.PINNED_SEED, chosen, [run.run_pass(chosen)])
    assert [(v["name"], v["problems"]) for v in verdicts] == [(c.name, []) for c in chosen]
