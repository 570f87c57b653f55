"""Source hygiene: every import in src/hopfqexp is used, and each one is
from the standard library or hopfqexp itself.

A standard-library AST scan.  A name counts as used when the module
reads it, names it in a quoted annotation, or lists it in ``__all__``;
an import line marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfqexp"


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            quoted += [a.annotation for a in args if a.annotation] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for ann in filter(None, quoted):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = _used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def foreign_imports(path: Path) -> list[str]:
    """Imports, function-local ones included, from outside the standard library."""
    allowed = set(sys.stdlib_module_names) | {"hopfqexp"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:  # relative imports stay inside hopfqexp
            continue
        found += [f"{path.name}:{node.lineno}: {m}" for m in modules
                  if m.split(".")[0] not in allowed]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    assert foreign_imports(path) == []


ROOT = SRC.parent.parent


def _referenced_names() -> set[str]:
    """Every name read, imported or quoted in src, tests, scripts or perfbench.

    A string constant that is an identifier counts, because perfbench
    looks the functions it wraps up by name.
    """
    names: set[str] = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    names.add(node.value)
    return names


def unreferenced_definitions() -> list[str]:
    """Top-level functions and non-dunder methods of src/hopfqexp that no
    code names anywhere: dead definitions."""
    referenced = _referenced_names()
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [(node, "")]
            if isinstance(node, ast.ClassDef):
                defs = [(d, f"{node.name}.") for d in node.body]
            found += [f"{path.name}:{d.lineno}: {owner}{d.name}" for d, owner in defs
                      if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (d.name.startswith("__") and d.name.endswith("__"))
                      and d.name not in referenced]
    return found


def test_no_dead_definitions():
    assert unreferenced_definitions() == []
