"""The benchmark's contract with the package.  perfbench/cases.py and
perfbench/run.py, imported as they are, build every workload that
BENCHMARK.json declares, and the cheapest fixed case and the seeded-group
case of each pass run.run_pass and the digest gate run.check_passes, once
plainly and once under the tracer of `perfbench/run.py --trace 1`, which
reads package names as it installs and must put every binding back.  The
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
import tracer  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# the fixed case of each workload with the least wall time at seed 42
CHEAPEST = {
    "shuffle": "supercommutation-1-1",
    "wreath": "routes-s3-sign-scalar-dq8",
    "oracle": "oracle-s2-s2-theta-n2-dq6",
}


def chosen_cases(workload):
    built = cases.build_cases(workload, run.PINNED_SEED)
    chosen = [c for c in built if c.name == CHEAPEST[workload] or c.name.startswith("seeded-")]
    assert [c.seeded for c in chosen] == [False, True]
    return chosen


def assert_gate_passes(workload, chosen, passes):
    verdicts = run.check_passes(workload, run.PINNED_SEED, chosen, passes)
    assert [(v["name"], v["problems"]) for v in verdicts] == [(c.name, []) for c in chosen]


def package_bindings():
    """Each name bound in a supermolien module, and on each class such a
    module binds, keyed by where it is bound."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "supermolien" or mod_name.startswith("supermolien."):
            for attr, value in vars(mod).items():
                out[mod_name, attr] = value
                if isinstance(value, type):
                    out.update(((mod_name, attr, key), v) for key, v in vars(value).items())
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cheapest_and_seeded_cases_pass_the_digest_gate(workload):
    chosen = chosen_cases(workload)
    assert_gate_passes(workload, chosen, [run.run_pass(chosen)])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cases_pass_the_digest_gate_and_restore_bindings(workload):
    chosen = chosen_cases(workload)
    before = package_bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = run.run_pass(chosen)
    finally:
        spans.uninstall()
    after = package_bindings()
    assert spans.starts, "the traced pass recorded no span"
    assert_gate_passes(workload, chosen, [traced])
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
