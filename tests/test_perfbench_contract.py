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
break a benchmark run or a perfbench test fails here too.  Conversely,
every public module-level function or class of the package has a reader:
a module of src/ other than __init__.py, the package's __all__, or
perfbench's cases or tests, so a name that only tests call is a dead name
and fails here."""

import ast
import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import supermolien  # noqa: E402
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


PERFBENCH_READERS = ("cases.py", "tests/test_perfbench.py")


@pytest.mark.parametrize("source", PERFBENCH_READERS)
def test_perfbench_package_names_resolve(source):
    reads = package_reads(ast.parse((ROOT / "perfbench" / source).read_text()))
    assert reads
    assert [(line, name) for line, name in reads if not resolves(name)] == []


@pytest.mark.parametrize("layer,cls_name,meth", tracer.METHODS)
def test_tracer_methods_resolve(layer, cls_name, meth):
    # the tracer wraps cls.__dict__[meth], so the method is the class's own
    cls = getattr(importlib.import_module(f"supermolien.{layer}"), cls_name)
    assert meth in vars(cls)


def source_reads(tree):
    """Every name a module of the package reads: each name loaded, each
    attribute read and each name imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def dead_public_names(sources, exported, perfbench_reads):
    """(module, line, name) of each public module-level function or class
    in the {module: source} map that no module but __init__ reads by name,
    that is not in exported, and that perfbench does not read as
    supermolien.module.name.  A module's own __all__ lists strings, which
    are not reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(source_reads(tree) for module, tree in trees.items() if module != "__init__"))
    benched = {tuple(name.split(".")[1:3]) for name in perfbench_reads}
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | exported
        and (module, node.name) not in benched
    )


def test_dead_name_checker_flags_only_names_without_a_reader():
    sources = {
        "__init__": "from .a import exported, only_in_init\n__all__ = ['exported']\n",
        "a": (
            "__all__ = ['listed']\n"
            "def exported(): pass\n"
            "def only_in_init(): pass\n"
            "def listed(): pass\n"
            "def imported(): pass\n"
            "def benched(): pass\n"
            "class Spare: pass\n"
            "def _private(): pass\n"
            "def caller(): return called()\n"
        ),
        "b": "from .a import imported\nimport x\ny = x.attribute\ndef attribute(): pass\ndef called(): pass\n",
        "c": "def benched(): pass\n",
    }
    found = dead_public_names(sources, {"exported"}, ["supermolien.a.benched", "supermolien.a"])
    assert found == [
        ("a", 3, "only_in_init"),
        ("a", 4, "listed"),
        ("a", 7, "Spare"),
        ("a", 9, "caller"),
        ("c", 1, "benched"),
    ]


def test_every_public_name_has_a_reader():
    package = ROOT / "src" / "supermolien"
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    reads = [
        name
        for source in PERFBENCH_READERS
        for _, name in package_reads(ast.parse((ROOT / "perfbench" / source).read_text()))
    ]
    dead = dead_public_names(sources, set(supermolien.__all__), reads)
    found = [f"{module}:{line}: {name}" for module, line, name in dead]
    assert not found, "public names that nothing under src/ or perfbench reads:\n" + "\n".join(found)
