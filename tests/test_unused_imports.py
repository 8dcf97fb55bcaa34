"""Every name a ``src/repro`` module imports is used in it.

A static AST scan: an import binds a name, and the module must load that
name somewhere — in code, in an annotation, in a quoted annotation or type
argument (``Callable[["WorkflowSession", int], None]``) or in ``__all__``.
Package ``__init__.py`` files re-export what they import and are skipped; an
import that stays for its side effect says so with ``# noqa: F401`` on its
line.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_call_census import parse

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree: ast.Module, lines: list) -> dict:
    """``name -> line`` of every name an import statement binds, less
    ``__future__`` features and imports marked ``# noqa: F401``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.setdefault(name, node.lineno)
    return bound


def _names_in(expression: ast.AST) -> set:
    """The names an expression loads, reading a string in it as a quoted
    annotation."""
    found = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= {name.id for name in ast.walk(quoted)
                      if isinstance(name, ast.Name)}
    return found


def _used(tree: ast.Module) -> set:
    """The names a module loads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _names_in(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in(node.annotation)
        elif isinstance(node, ast.Subscript):
            used |= _names_in(node.slice)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)}
    return used


def unused_imports(tree: ast.Module, lines: list, module: str) -> list:
    """``module:line name`` of each imported name the module ``tree`` (of
    source ``lines``) never uses."""
    used = _used(tree)
    return [f"{module}:{line} {name}" for name, line
            in _imported(tree, lines).items() if name not in used]


def test_every_imported_name_is_used():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            module = path.relative_to(PACKAGE.parent).as_posix()
            found += unused_imports(parse(path), path.read_text().splitlines(),
                                    module)
    assert found == []


def test_the_scan_sees_code_annotations_quotes_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Callable, Dict, List, Optional, TYPE_CHECKING\n"
        "from dataclasses import dataclass, field\n"
        "import json  # noqa: F401 - imported for its side effect\n"
        "if TYPE_CHECKING:\n"
        "    from pkg import Session, Other, Exported\n"
        "Hook = Callable[['Session', int], None]\n"
        "__all__ = ['Exported']\n"
        "def f(x: Dict[str, int]) -> Optional[int]:\n"
        "    y: List[int] = []\n"
        "    return np.sum(y)\n")
    assert unused_imports(ast.parse(source), source.splitlines(), "m.py") == [
        "m.py:2 os", "m.py:5 dataclass", "m.py:5 field", "m.py:8 Other"]
