"""No module of the package imports a private name from another: a helper
that two modules need is public in one of them, or lives where it is used.
Every name a module imports is referenced in it, no module imports
``dataclasses``, ``hashlib`` is only a fallback, the modules import one
another without a cycle, ``heyting`` imports only ``core`` and ``errors``,
only ``identities`` binds the tables a formula reads, and no function has
two module-level names."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import skewbench

SOURCES = sorted(Path(skewbench.__file__).parent.glob("*.py"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        internal = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "skewbench"
        )
        if internal:
            found += [
                f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert _private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    from .heyting import _arrow_by_candidates\n")
    assert _private_imports(bad) == ["line 2: from .heyting import _arrow_by_candidates"]


def _absolute_imports(tree: ast.AST):
    """(node, module) for each module an ``import`` or an absolute
    ``from ... import`` in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, node.module


def _dataclass_imports(path: Path) -> list[str]:
    """The imports of ``dataclasses``.  Defining a dataclass ``exec``s each
    of its generated methods, in every process that loads the module, so
    the records derive from ``core.Record`` instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"line {node.lineno}: {m}" for node, m in _absolute_imports(tree) if m.split(".")[0] == "dataclasses"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclass_import(path):
    assert _dataclass_imports(path) == []


def test_the_check_sees_a_dataclass_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from dataclasses import dataclass, replace\n"
        "from .core import Record\n"
        "def f(r):\n"
        "    import dataclasses as dc, os\n"
        "    return dc.replace(r)\n"
    )
    assert _dataclass_imports(bad) == ["line 1: dataclasses", "line 4: dataclasses"]


def _hashlib_imports(path: Path) -> list[str]:
    """The imports of ``hashlib`` or ``_hashlib`` outside an ``except
    ImportError`` handler.  ``_hashlib`` maps OpenSSL's libcrypto, a
    command's largest resident cost, and CPython's built-in SHA-256 gives
    the input digest without it; hashlib is only its fallback."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    fallback = {
        id(node)
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and getattr(handler.type, "id", None) == "ImportError"
        for stmt in handler.body
        for node in ast.walk(stmt)
    }
    return [
        f"line {node.lineno}: {m}"
        for node, m in _absolute_imports(tree)
        if m.split(".")[0] in ("hashlib", "_hashlib") and id(node) not in fallback
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hashlib_import(path):
    assert _hashlib_imports(path) == []


def test_the_check_sees_a_hashlib_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import hashlib\n"
        "def f(data):\n"
        "    from _hashlib import openssl_sha256\n"
        "    try:\n"
        "        from _sha256 import sha256\n"
        "    except ImportError:\n"
        "        from hashlib import sha256\n"
        "    return sha256(data), openssl_sha256(data), hashlib\n"
    )
    assert _hashlib_imports(bad) == ["line 1: hashlib", "line 3: _hashlib"]


def _relative_imports(path: Path) -> set[str]:
    """The sibling modules ``path`` imports, at module level or inside a
    function, outside ``TYPE_CHECKING`` blocks, which never run."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    unchecked = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and id(node) not in unchecked:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
    return found


def _import_cycles(paths) -> list[tuple[str, ...]]:
    """The sets of modules that reach one another through imports, each
    sorted, for every module on a cycle."""
    graph = {path.stem: _relative_imports(path) for path in paths}
    reach = {}
    for start in graph:
        seen, stack = set(), [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[start] = seen
    return sorted({tuple(sorted(m for m in reach[s] if s in reach[m])) for s in graph if s in reach[s]})


def test_the_imports_make_no_cycle():
    assert _import_cycles(SOURCES) == []


def test_the_check_sees_an_import_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from .b import g\ndef f():\n    return g()\n")
    (tmp_path / "b.py").write_text("def g():\n    from .a import f\n    return f\n")
    (tmp_path / "c.py").write_text(
        "from typing import TYPE_CHECKING\nfrom . import a\nif TYPE_CHECKING:\n    from .d import D\n"
    )
    (tmp_path / "d.py").write_text("from .c import a\n")
    assert _import_cycles(sorted(tmp_path.glob("*.py"))) == [("a", "b")]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(path: Path) -> list[str]:
    """The imported names never referenced in the module, a name in a
    (quoted) annotation or a ``TYPE_CHECKING`` block included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {}  # name -> the line importing it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(a.asname or a.name): node.lineno for a in node.names if a.name != "*"})
    trees = [tree] + [
        ast.parse(note.value, mode="eval")
        for note in _annotations(tree)
        if isinstance(note, ast.Constant) and isinstance(note.value, str)
    ]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from .core import Algebra, leq_matrix\n"
        "if TYPE_CHECKING:\n"
        "    from .models import Poset\n"
        "def f(A: 'Algebra') -> 'Poset':\n"
        "    import os\n"
        "    return np\n"
    )
    assert _unused_imports(bad) == ["line 3: leq_matrix", "line 7: os"]


def _scope_functions(func) -> list:
    """The functions defined in ``func``'s own scope, not in a nested one."""
    found, stack = [], list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _closure_cycles(path: Path) -> list[str]:
    """The nested functions that name themselves or a function nested
    beside them.  Such a function holds the cell of its own name, or of a
    sibling's, so each call of the outer function leaves a reference cycle
    that only the cyclic collector frees, and the CLI runs without it."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _scope_functions(func)
            names = {f.name for f in nested}
            for f in nested:
                named = {node.id for node in ast.walk(f) if isinstance(node, ast.Name)} & names
                found += [(f.lineno, f"{func.name}.{f.name} names {name}") for name in sorted(named)]
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_makes_a_closure_cycle(path):
    assert _closure_cycles(path) == []


def test_the_check_sees_a_closure_cycle(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def parse(tokens):\n"
        "    def atom():\n"
        "        return term() if tokens else 0\n"
        "    def term():\n"
        "        return atom()\n"
        "    if tokens:\n"
        "        def walk(t):\n"
        "            return [walk(c) for c in t]\n"
        "    def leaf():\n"
        "        return tokens\n"
        "    return term(), walk(tokens), leaf(), sorted(tokens, key=lambda t: leaf())\n"
    )
    assert _closure_cycles(bad) == [
        "line 2: parse.atom names term",
        "line 4: parse.term names atom",
        "line 7: parse.walk names walk",
    ]


# the tables an algebra carries, which run_identity reads from it
_CARRIED = {"m", "j", "r", "leq", "pre"}


def _side_channels(path: Path) -> list[str]:
    """The imports and calls of ``bind`` outside ``identities``, and the
    calls of ``run_identity`` that pass a table the algebra carries.  Only
    ``identities`` decides which tables a formula reads, so a verdict
    cached on an algebra is the verdict of that algebra's tables."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and path.stem != "identities":
            found += [f"line {node.lineno}: imports bind" for alias in node.names if alias.name == "bind"]
        elif isinstance(node, ast.Call):
            func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if func == "bind" and path.stem != "identities":
                found.append(f"line {node.lineno}: calls bind")
            elif func == "run_identity":
                found += [
                    f"line {node.lineno}: run_identity passes {kw.arg}" for kw in node.keywords if kw.arg in _CARRIED
                ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_identities_binds_the_tables_of_a_formula(path):
    assert _side_channels(path) == []


def test_the_check_sees_a_side_channel(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .identities import bind, run_identity\n"
        "from . import identities\n"
        "def f(A, t):\n"
        "    run_identity('SHA', A, d=t, pre=t)\n"
        "    return identities.bind(A, d=t)\n"
    )
    assert _side_channels(bad) == [
        "line 1: imports bind",
        "line 4: run_identity passes pre",
        "line 5: calls bind",
    ]


def test_heyting_imports_only_core_and_errors():
    # at module level and inside functions: `model upsets` loads it for the
    # adjunction alone, and the arrow constructions need nothing more
    (heyting,) = (path for path in SOURCES if path.stem == "heyting")
    assert _relative_imports(heyting) == {"core", "errors"}


def _aliases(module) -> list[str]:
    """The module-level names that bind a function object another name of
    ``module`` binds too.  The bench tracer names a span after the last such
    name, so an alias would take the function's metrics with it."""
    names: dict[int, list[str]] = {}
    for name, value in vars(module).items():
        if inspect.isfunction(value):
            names.setdefault(id(value), []).append(name)
    return [" = ".join(group) for group in names.values() if len(group) > 1]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__main__"], ids=lambda p: p.name)
def test_no_function_has_two_module_level_names(path):
    name = "skewbench" if path.stem == "__init__" else f"skewbench.{path.stem}"
    assert _aliases(importlib.import_module(name)) == []


def test_the_check_sees_an_alias():
    bad = types.ModuleType("bad")
    exec("from os.path import join, split\ndef f():\n    pass\ndef g():\n    pass\nh = f\nglue = join\n", vars(bad))
    assert _aliases(bad) == ["join = glue", "f = h"]
