"""Source hygiene with the standard library only: no module under src/,
scripts/ or tests/ imports a name at module level that it never uses, and
no module-level private function, class or constant of the package goes
unreferenced by the rest of src/.  An import written "name as name" is an
explicit re-export, as type checkers read it, and counts as used."""

import ast
import pathlib

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
