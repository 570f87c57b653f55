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


#: where outside data becomes an algebra: the checked constructor may be
#: called in these functions only (io.py anywhere); every construction
#: inside the package goes through `HopfAlgebraData._trusted`
CHECKED_CALLERS = {("presets.py", "group_algebra_from_table"), ("presets.py", "trivial")}
#: attributes an algebra's tables hang on, never assigned after it is built
TABLES = {"mult", "comult", "counit", "antipode", "name", "grouplike_vectors"}


def _scoped(node: ast.AST, scope: tuple = ()):
    """(names of the enclosing classes and functions, node) for every node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield inner, child
        yield from _scoped(child, inner)


def boundary_violations(filename: str, source: str) -> list[str]:
    """Calls of the checked constructor outside io.py and CHECKED_CALLERS,
    and assignments to a table attribute (or into one, ``H.mult[k] = v``)
    of anything but ``self`` in its own ``__init__`` or ``_store``."""
    found = []
    for scope, node in _scoped(ast.parse(source)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (name == "HopfAlgebraData" and filename != "io.py"
                    and (filename, scope[:1] and scope[0]) not in CHECKED_CALLERS):
                found.append(f"{where}: HopfAlgebraData(...) in {'.'.join(scope)}")
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while any(isinstance(t, (ast.Tuple, ast.List)) for t in targets):
            targets = [e for t in targets
                       for e in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])]
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in TABLES and not (
                    isinstance(target.value, ast.Name) and target.value.id == "self"
                    and scope[-1:] in (("__init__",), ("_store",))):
                found.append(f"{where}: assigns .{target.attr}")
    return found


def test_outside_data_is_checked_once_and_built_tables_are_never_reassigned():
    found = [v for path in sorted(SRC.glob("*.py"))
             for v in boundary_violations(path.name, path.read_text())]
    assert found == []


def test_boundary_check_names_what_it_forbids():
    source = ("def dual_group_algebra(H):\n"
              "    H.name = 'x'\n"
              "    H.mult[(0, 1)] = {}\n"
              "    H.counit, H.antipode = (), []\n"
              "    return HopfAlgebraData('x', 1, 1, ['1'], {}, [1], [{}], [1], [{}])\n")
    assert boundary_violations("presets.py", source) == [
        "presets.py:2: assigns .name", "presets.py:3: assigns .mult",
        "presets.py:4: assigns .counit", "presets.py:4: assigns .antipode",
        "presets.py:5: HopfAlgebraData(...) in dual_group_algebra"]
    allowed = ("class Tables:\n"
               "    def __init__(self):\n"
               "        self.name, self.mult = 'x', {}\n"
               "def read(doc):\n"
               "    return HopfAlgebraData(**doc)\n")
    assert boundary_violations("io.py", allowed) == []


#: the free decoder that `scalars._Ring.unpack` replaced, and its cache
RING_DECODERS = {"unpack", "_unpacking"}


def ring_format_leaks(filename: str, source: str) -> list[str]:
    """Outside scalars.py, a modulus built as (1 << ...) - 1, or an import of
    a decoder of packed ints: the packed ring's format belongs to `_Ring`."""
    if filename == "scalars.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.LShift)
                and isinstance(node.left.left, ast.Constant) and node.left.left.value == 1
                and isinstance(node.right, ast.Constant) and node.right.value == 1):
            found.append(f"{where}: (1 << ...) - 1")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{where}: imports {alias.name}" for alias in node.names
                      if alias.name.rpartition(".")[2] in RING_DECODERS]
    return found


def test_the_packed_ring_format_stays_in_scalars():
    found = [v for path in sorted(SRC.glob("*.py"))
             for v in ring_format_leaks(path.name, path.read_text())]
    assert found == []


def test_ring_format_check_names_what_it_forbids():
    source = ("from .scalars import _ring, unpack\n"
              "modulus = (1 << width * m) - 1\n"
              "masks = [sum(1 << s for s in row) for row in rows]\n"
              "shift, modulus = _ring(width, m).shift, _ring(width, m).modulus\n")
    assert ring_format_leaks("qexp.py", source) == [
        "qexp.py:1: imports unpack", "qexp.py:2: (1 << ...) - 1"]
    assert ring_format_leaks("scalars.py", source) == []
