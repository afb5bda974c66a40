"""No module under ``src/repro`` imports a name at top level that it never
uses.

An AST scan, not a linter (none is a dependency): a name bound by a
top-level ``import`` or ``from ... import`` must occur somewhere in the
module as a name -- in code or in an annotation, quoted or not.  Names
listed in ``__all__`` are exempt, and so are package ``__init__`` modules,
whose imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Each name a top-level import binds -> its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    """``(name, line)`` of each top-level import of ``path`` never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree) | _exported(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "from itertools import chain as _chain\n"
        "__all__ = ['_chain']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    assert unused_imports(mod) == [("os", 2)]
