"""Source hygiene with the standard library only: no module under src/,
scripts/ or tests/ imports a name at module level that it never uses, no
module-level private function, class or constant of the package goes
unreferenced by the rest of src/, the one Molien sum is made only by
super_molien, no module under src/ makes a tuple through tuple.__new__,
and every Class.attr of the package's classes named in a
docstring or comment under src/, or in README, resolves.  An import written "name as name" is an
explicit re-export, as type checkers read it, and counts as used."""

import ast
import dataclasses
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import tokenize

import supermolien

ROOT = pathlib.Path(__file__).resolve().parents[1]


def module_files():
    """Every module under src/, scripts/ and tests/, except the __init__.py
    files, whose imports are re-exports."""
    return sorted(
        p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
    )


def top_level_imports(tree):
    """(bound name, line) of each import in the module body, including
    those under a top-level if or try; from __future__, * and explicit
    re-exports (name as name) are skipped."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    yield alias.asname or alias.name, node.lineno


def annotations(tree):
    """Every annotation node: of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere in the module, including inside string
    annotations such as -> "Substitution", and the names listed in
    __all__."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval")) if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in top_level_imports(tree) if name not in used)


def private_definitions(tree):
    """(name, line) of each private name bound in the module body by def,
    class or assignment: one leading underscore, not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def referenced_names(tree):
    """used_names plus every attribute read (module._name) and every name
    imported from another module."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unreferenced_private_names(sources):
    """(module, line, name) of each private definition in the {module:
    source} map that no module of the map reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set().union(*map(referenced_names, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in referenced
    )


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from typing import Sequence\n"
        "from fractions import Fraction as Fraction\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "import pickle\n"
        "pickle = None\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return os.path.sep, json\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "F"), (11, "pickle")]


def test_no_unused_module_level_imports():
    found = {
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in module_files()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not found, "unused imports:\n" + "\n".join(sorted(found))


def test_private_name_checker_flags_only_unreferenced_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_unused_table: dict = {}\n"
            "__all__ = ['f']\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    return 1\n"
            "class _Spare:\n"
            "    pass\n"
            "def f(x: '_Hint'):\n"
            "    return _helper()\n"
            "class _Hint:\n"
            "    pass\n"
        ),
        "b": "from a import _shared\nimport a\nx = a._attr\n",
        "c": "def _shared():\n    pass\ndef _attr():\n    pass\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", 2, "_unused_table"),
        ("a", 6, "_orphan"),
        ("a", 8, "_Spare"),
    ]


def test_no_unreferenced_private_names_in_the_package():
    package = ROOT / "src" / "supermolien"
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in sorted(package.rglob("*.py"))}
    found = [f"{module}:{line}: {name}" for module, line, name in unreferenced_private_names(sources)]
    assert not found, "private names no other line of src/ reads:\n" + "\n".join(found)


def constructions(sources, cls):
    """(module, enclosing qualified name, line) of each call of cls, by its
    name or as an attribute, in the {module: source} map; a call at module
    level is enclosed by "<module>"."""
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == cls or getattr(func, "attr", None) == cls:
                    found.append((module, scope, child.lineno))
            visit(module, child, inner)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return sorted(found)


def test_construction_checker_finds_every_call():
    sources = {
        "a": "class _MolienSum:\n    pass\ndef super_molien():\n    return _MolienSum(1, 2)\n",
        "b": (
            "import a\n"
            "class Action:\n"
            "    def feed(self):\n"
            "        return [a._MolienSum(0, 0)]\n"
            "made = a._MolienSum\n"
            "spare = made(0, 0), _MolienSum(1, 1)\n"
        ),
    }
    assert constructions(sources, "_MolienSum") == [
        ("a", "super_molien", 4),
        ("b", "<module>", 6),
        ("b", "Action.feed", 4),
    ]


def test_molien_sum_is_made_only_by_super_molien():
    # one Molien entry point: a second route that made its own sum would
    # be a second code path for the same series
    paths = module_files() + [ROOT / "src" / "supermolien" / "__init__.py"]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    found = [(module, scope) for module, scope, _ in constructions(sources, "_MolienSum")]
    assert found == [("src/supermolien/molien.py", "super_molien")]


def tuple_new_uses(sources):
    """(module, line) of each tuple.__new__ in the {module: source} map,
    called or bound to a name for a later call."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and getattr(node.value, "id", None) == "tuple"
            ):
                found.append((module, node.lineno))
    return sorted(found)


def test_tuple_new_checker_finds_every_use():
    sources = {
        "a": "class Pair(tuple):\n    pass\ndef make(x, t):\n    return tuple.__new__(Pair, (x, t))\n",
        "b": (
            "def build(parts):\n"
            "    new = tuple.__new__\n"
            "    return [new(tuple, p) for p in parts]\n"
            "plain = tuple((1, 2)), object.__new__(object), (1, 2)\n"
        ),
    }
    assert tuple_new_uses(sources) == [("a", 4), ("b", 2)]


def test_no_tuple_subclass_instances_are_made_under_src():
    # a monomial is the plain pair (xpart, theta): a kernel that made
    # tuple-subclass instances again would pay for one per term image
    paths = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    assert tuple_new_uses(sources) == []


def package_classes():
    """{name: class} of every class defined in a module of the package;
    __main__, which runs the CLI, is not imported."""
    classes = {}
    for info in pkgutil.iter_modules(supermolien.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"supermolien.{info.name}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                classes[name] = cls
    return classes


def docs_and_comments(source):
    """The docstrings and the comments of a module's source, as one text."""
    tree = ast.parse(source)
    parts = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    parts += [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    return "\n".join(parts)


def stale_names(text, classes):
    """Each Class.attr in text, Class one of the classes, that names no
    attribute of the class, no dataclass field and no slot."""
    stale = set()
    for name, attr in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", text):
        cls = classes.get(name)
        if cls is None or hasattr(cls, attr):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        slots = {s for c in cls.__mro__ for s in getattr(c, "__slots__", ())}
        if attr not in fields | slots:
            stale.add(f"{name}.{attr}")
    return sorted(stale)


def test_stale_name_checker_flags_only_missing_attributes():
    classes = package_classes()
    text = (
        "WreathElement.sigma and WreathElement.substitution, a field and a property;\n"
        "Permutation.images, a slot; GroupAction.from_wreath and Substitution.one_term;\n"
        "a sentence ending in GroupAction. The next, and w.columns on no class.\n"
        "Stale: WreathElement.columns and GroupAction._trusted."
    )
    assert stale_names(text, classes) == ["GroupAction._trusted", "WreathElement.columns"]


def test_class_attributes_named_in_docs_resolve():
    # every Class.attr named in a docstring or comment under src/, or in
    # README, names an attribute, a dataclass field or a slot of the class
    classes = package_classes()
    texts = {
        str(p.relative_to(ROOT)): docs_and_comments(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src").rglob("*.py"))
    }
    texts["README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    found = [f"{where}: {name}" for where, text in texts.items() for name in stale_names(text, classes)]
    assert not found, "names of no attribute:\n" + "\n".join(found)
