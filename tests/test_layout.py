"""Layout guard: every definition in the package is used by the package.

A top-level function, class or module constant, or a method, that nothing in
src/stopout refers to outside its own definition is code only the tests run.
It goes, or it earns a line in ALLOWED saying why it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "stopout"

ALLOWED = {
    "load_model": "reads a saved model file back; the model-file replay test checks eval.tsv against it",
    "apply_model": "scores rows with a loaded model file, the other half of that replay",
    "load_manifest": "parses manifest.tsv, the run's own description; kept as the reader of that format",
    "roc_points": "the sweep route's operating points, checked by acceptance 01",
}


def _definitions(tree: ast.Module):
    """(name, is_method, node) for each top-level definition and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True, item) for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            yield from ((target.id, False, node) for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, False, node


def _references(tree: ast.Module):
    """(name, is_attribute, line) for every name read and attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno
        elif isinstance(node, ast.alias) and node.name != "*":
            yield node.name, False, node.lineno


def unreferenced() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [(name, attr, path, line) for path, tree in trees.items() for name, attr, line in _references(tree)]
    unused = []
    for path, tree in trees.items():
        for name, is_method, node in _definitions(tree):
            if name.startswith("__") or name in ALLOWED:
                continue
            used = any(
                ref == name and (attr or not is_method)
                and not (ref_path == path and node.lineno <= line <= node.end_lineno)
                for ref, attr, ref_path, line in refs
            )
            if not used:
                unused.append(f"{path}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_by_the_package():
    assert unreferenced() == []


def test_allowed_names_are_still_defined():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    assert set(ALLOWED) <= {name for tree in trees for name, _, _ in _definitions(tree)}
