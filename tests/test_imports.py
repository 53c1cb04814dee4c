"""No module of the package imports a private name from another: a helper
that two modules need is public in one of them, or lives where it is used."""

import ast
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
