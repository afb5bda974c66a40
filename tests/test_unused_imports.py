"""No module under ``src/repro`` imports a name at top level that it never
uses, or imports again inside a function what it imports at top level.

An AST scan, not a linter (none is a dependency): a name bound by a
top-level ``import`` or ``from ... import`` must be read somewhere in the
module -- in code or in an annotation, quoted or not.  Names
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
    """Every name the module reads, quoted annotations included (a name
    only assigned to, such as a dataclass field, is not read)."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
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


def _import_keys(nodes) -> dict:
    """``(module, level, name)`` of each object the import statements
    ``nodes`` bring in (``name`` None for a plain ``import``) -> its line."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.setdefault((alias.name, 0, None), node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.setdefault((node.module, node.level, alias.name),
                               node.lineno)
    return out


def repeated_imports(path: Path) -> list:
    """``(name, line)`` of each function-level import of an object the
    module already imports at top level (under any local name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = _import_keys(tree.body)
    inner = _import_keys(
        node
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    return sorted((name or module, line)
                  for (module, level, name), line in inner.items()
                  if (module, level, name) in top)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_function_level_import_repeats_a_top_level_one(path):
    assert repeated_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "from itertools import chain as _chain\n"
        "from dataclasses import field\n"
        "__all__ = ['_chain']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
        "class C:\n"
        "    field: int\n"
    )
    assert unused_imports(mod) == [("field", 5), ("os", 2)]


def test_scan_finds_a_repeated_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import os\n"
        "from ..core import types as T\n"
        "from ..core.prelude import SchedulingError\n"
        "def f():\n"
        "    from ..core.prelude import SchedulingError as SE\n"
        "    from ..core.prelude import Sym\n"
        "    import os.path\n"
        "    return SE, Sym, os, T\n"
        "class C:\n"
        "    def g(self):\n"
        "        from ..core import types as T\n"
        "        return T\n"
    )
    assert repeated_imports(mod) == [("SchedulingError", 5), ("types", 11)]
