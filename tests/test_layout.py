"""Layout guard: every definition in the package is used by the package.

A top-level function, class or module constant, or a method, that nothing in
src/stopout refers to outside its own definition is code only the tests run.
It goes, or it earns a line in ALLOWED saying why it stays. Likewise a
parameter with a default that no call in src/stopout passes is a knob only
the tests turn: it becomes a constant, or it earns a line in UNPASSED. And a
dataclass field that no code in src/stopout reads is state only the tests
look at: it goes, or it earns a line in UNREAD. An entry in any of the three
lists must still be needed, or it goes too. Only tsv.py reads a
file, so there is one home for how a file's lines end; a function elsewhere
that reads one earns a line in READERS. Finally, the model layers take
flatten's float64 arrays as they are: no function there passes a parameter
to np.asarray.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "stopout"

ALLOWED: dict[str, str] = {}

# function.parameter -> why a default no call in the package passes stays settable
UNPASSED = {
    "main.argv": "None reads sys.argv, as the stopout console script does; the tests pass a list",
}

# Class.field -> why a dataclass field no code in the package reads stays
UNREAD: dict[str, str] = {}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


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


def unreferenced(allowed: dict[str, str] = ALLOWED) -> list[str]:
    trees = _trees()
    refs = [(name, attr, path, line) for path, tree in trees.items() for name, attr, line in _references(tree)]
    unused = []
    for path, tree in trees.items():
        for name, is_method, node in _definitions(tree):
            if name.startswith("__") or name in allowed:
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
    # and still unreferenced: once the package uses a name, its entry is stale
    assert set(ALLOWED) <= {entry.split()[-1] for entry in unreferenced(allowed={})}


def _defaulted(func: ast.FunctionDef):
    """(position or None for keyword-only, name) of each parameter with a default."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    yield from ((i, positional[i].arg) for i in range(first, len(positional)))
    yield from ((None, a.arg) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None)


def unpassed(allowed: dict[str, str] = UNPASSED) -> list[str]:
    """function.parameter for each default that no call in src/stopout passes.

    A call is matched to a function by name. It passes a parameter by keyword,
    by position, or through *args (the positional ones) or **kwargs (all).
    """
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, position: int | None, name: str, bound: bool) -> bool:
        if any(k.arg is None or k.arg == name for k in call.keywords):
            return True
        if position is None:
            return False
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return position - bound < len(call.args)  # a method call binds self first

    missing = []
    for tree in trees.values():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args.posonlyargs + func.args.args
            bound = bool(args) and args[0].arg in ("self", "cls")
            for position, name in _defaulted(func):
                key = f"{func.name}.{name}"
                if key not in allowed and not any(
                    passes(call, position, name, bound) for call in calls.get(func.name, [])
                ):
                    missing.append(key)
    return missing


def test_every_default_is_passed_by_the_package():
    assert unpassed() == []


def test_unpassed_parameters_still_have_defaults():
    # and still unpassed: once a call in the package passes one, its entry is stale
    assert set(UNPASSED) <= set(unpassed(allowed={}))


def _decorator_name(node: ast.expr) -> str | None:
    """dataclass for both @dataclass and @dataclass(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else None


def _dataclass_fields(tree: ast.Module):
    """(class, field, line) for each annotated field of a @dataclass class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name, node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def unread_fields(allowed: dict[str, str] = UNREAD) -> list[str]:
    """Class.field for each dataclass field no attribute read in src/stopout takes.

    A read is matched to a field by name alone, as calls are matched above.
    """
    trees = _trees()
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path}:{line} {cls}.{name}"
        for path, tree in trees.items() for cls, name, line in _dataclass_fields(tree)
        if name not in read and f"{cls}.{name}" not in allowed
    ]


def test_every_dataclass_field_is_read_by_the_package():
    assert unread_fields() == []


def test_unread_fields_are_still_fields():
    # and still unread: once the package reads one, its entry is stale
    assert set(UNREAD) <= {entry.split()[-1] for entry in unread_fields(allowed={})}


# file:function -> why a function outside tsv.py reads a file
READERS = {
    "cli.py:sha256_file": "hashes the run's own output files, by name, for the manifest; it parses no text",
}


def _reads(call: ast.Call) -> bool:
    """read_text, read_bytes, or open / Path.open without a write mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    positional = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]  # open(path, mode), Path.open(mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"] + positional
    return not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax") for m in modes)


def file_readers() -> set[str]:
    """file:function (or file:<module>) for each top-level definition outside tsv.py that reads a file."""
    return {
        f"{path}:{getattr(node, 'name', '<module>')}"
        for path, tree in _trees().items() if path != "tsv.py"
        for node in tree.body for call in ast.walk(node) if isinstance(call, ast.Call) and _reads(call)
    }


def test_only_tsv_reads_files():
    assert file_readers() == set(READERS)


# flatten makes X and y as float64 ndarrays; the modules that take them from it use them as they are
MODEL_LAYERS = ("dataset_builder.py", "evaluator.py", "importance.py", "logistic_model.py")


def parameter_conversions() -> list[str]:
    """file:line np.asarray(parameter) for each np.asarray of a parameter inside a function of MODEL_LAYERS."""
    trees, found = _trees(), set()  # a set: a nested function's calls are walked again from the one around it
    for path in MODEL_LAYERS:
        for func in ast.walk(trees[path]):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
            found |= {
                (path, call.lineno, call.args[0].id) for call in ast.walk(func)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "asarray"
                and call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in params
            }
    return [f"{path}:{line} np.asarray({name})" for path, line, name in sorted(found)]


def test_model_layers_take_their_arrays_as_they_are():
    assert parameter_conversions() == []
