"""The benchmark's contract with the package.  perfbench/cases.py and
perfbench/run.py, imported as they are, build every workload that
BENCHMARK.json declares, and the cheapest fixed case and the seeded-group
case of each pass run.run_pass and the digest gate run.check_passes, once
plainly and once under the tracer of `perfbench/run.py --trace 1`, which
reads package names as it installs and must put every binding back.  The
seeded group is built through the QMatrix constructor and its generators
reach the digest through the dense g0 and g1 views, so a change that
breaks either, or moves any pinned digest, fails here and not only in the
benchmark.  Every package name that perfbench's cases, its tests and its
tracer's METHODS read must resolve, so a deletion under src/ that would
break a benchmark run or a perfbench test fails here too."""

import ast
import importlib
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


def imported_module(name):
    """The module of that dotted name, or None if no module has it."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def package_reads(tree):
    """(line, dotted name) of each supermolien name a module reads: each
    name imported from a supermolien module, and each attribute chain read
    through a name bound to a supermolien module."""
    modules = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "supermolien":
                    # import a.b binds a, and import a.b as c binds a.b
                    modules[a.asname or "supermolien"] = a.name if a.asname else "supermolien"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "supermolien":
            for a in node.names:
                name = f"{node.module}.{a.name}"
                reads.append((node.lineno, name))
                if imported_module(name) is not None:
                    modules[a.asname or a.name] = name
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.append((node.lineno, ".".join([modules[node.id], *reversed(chain)])))
    return reads


def resolves(dotted):
    """Whether a dotted name resolves: its longest module prefix, then
    attributes of it."""
    parts = dotted.split(".")
    k = len(parts)
    while (value := imported_module(".".join(parts[:k]))) is None:
        k -= 1
    for attr in parts[k:]:
        if not hasattr(value, attr):
            return False
        value = getattr(value, attr)
    return True


@pytest.mark.parametrize("source", ["cases.py", "tests/test_perfbench.py"])
def test_perfbench_package_names_resolve(source):
    reads = package_reads(ast.parse((ROOT / "perfbench" / source).read_text()))
    assert reads
    assert [(line, name) for line, name in reads if not resolves(name)] == []


@pytest.mark.parametrize("layer,cls_name,meth", tracer.METHODS)
def test_tracer_methods_resolve(layer, cls_name, meth):
    # the tracer wraps cls.__dict__[meth], so the method is the class's own
    cls = getattr(importlib.import_module(f"supermolien.{layer}"), cls_name)
    assert meth in vars(cls)
