"""Keeps the public surface to what something other than the tests uses.

A module-level function or class of ``bitextkit`` whose name has no leading
underscore must be named somewhere else: imported by name or read as an
attribute in the package or a demo, loaded as a bare name elsewhere in its
own module, or mentioned in README.md or pyproject.toml. Decorated
functions (the click commands) are reached through their decorators and
are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bitextkit"


def _loaded_names(nodes) -> set:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_public_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "demos").glob("*.py"))]
    named = set()
    for tree in [*trees.values(), *demos]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    docs = (ROOT / "README.md").read_text(encoding="utf-8") + (ROOT / "pyproject.toml").read_text(encoding="utf-8")

    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef) and node.decorator_list:
                continue
            if node.name in named or node.name in _loaded_names(n for n in tree.body if n is not node):
                continue
            if re.search(rf"\b{node.name}\b", docs):
                continue
            unused.append(f"{path.relative_to(PACKAGE)}::{node.name}")
    assert unused == [], f"public names that nothing outside the tests uses: {unused}"
