"""Every public function, class and method in src/eegid has a caller, and
every defaulted parameter of a src/eegid function is passed by some call.

A public name counts as used when it appears as a name, an attribute or an
imported name anywhere in src/eegid or scripts/.  A defaulted parameter
counts as passed when a call in src/eegid or scripts/ to a function of that
name passes it by keyword or by position, or passes *args or **kwargs there.
Every annotated field of a class in src/eegid is read as an attribute
somewhere in src/eegid or scripts/: a field that is only stored is state
nobody uses.
Tests do not count: code that only tests call belongs in tests/oracles.py,
tests/edf_tools.py or tests/synth.py, and a knob that only tests set is an
option nobody uses.

The benchmark's tracer wraps package functions by module and name, so every
one of its targets must still exist.
"""

import ast
import importlib
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eegid"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# public names kept without a caller, each with the reason
ALLOWED = {
    "svm.train_binary_smo": "the single-problem view of the lockstep solver; acceptance "
                            "criterion 3 and the solver tests audit KKT conditions and "
                            "dual optimality through it",
}

# defaulted parameters that no call passes, each with the reason
ALLOWED_DEFAULTS = {
    "cli.main.argv": "the entry point: the console script reads sys.argv, and "
                     "in-process callers such as bench/child.py pass an argument list",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree, module):
    """(qualified name, bare name) of public top-level defs and methods."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _parsed_callers():
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}


def unreferenced_names():
    trees = _parsed_callers()
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    return sorted(
        qualified
        for path, tree in trees.items() if path.parent == PACKAGE
        for qualified, name in _public_definitions(tree, path.stem)
        if name not in used and qualified not in ALLOWED
    )


def _defaulted_parameters(node, prefix, in_class=False):
    """(qualified parameter, function name, call position or None, parameter
    name) for every defaulted parameter of the functions under `node`, at any
    depth.  A method's call position does not count `self`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}.{child.name}", in_class=True)
        elif isinstance(child, _FUNCTIONS):
            qualified = f"{prefix}.{child.name}"
            a = child.args
            positional = a.posonlyargs + a.args
            skip = 1 if in_class else 0
            for position in range(len(positional) - len(a.defaults), len(positional)):
                yield (f"{qualified}.{positional[position].arg}", child.name,
                       position - skip, positional[position].arg)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{qualified}.{arg.arg}", child.name, None, arg.arg
            yield from _defaulted_parameters(child, qualified)


def _calls(tree):
    """(callee name, positional count, keyword names) of every call; a
    starred argument counts as every position and ** as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        yield name, math.inf if starred else len(node.args), keywords


def unpassed_defaults():
    trees = _parsed_callers()
    calls = {}
    for tree in trees.values():
        for name, n_positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((n_positional, keywords))
    return sorted(
        qualified
        for path, tree in trees.items() if path.parent == PACKAGE
        for qualified, function, position, param in _defaulted_parameters(tree, path.stem)
        if qualified not in ALLOWED_DEFAULTS
        and not any(param in keywords or None in keywords
                    or position is not None and n_positional > position
                    for n_positional, keywords in calls.get(function, ()))
    )


def _annotated_fields(tree, module):
    """(qualified name, field name) of the annotated fields of every class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id


def unread_fields():
    trees = _parsed_callers()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        qualified
        for path, tree in trees.items() if path.parent == PACKAGE
        for qualified, name in _annotated_fields(tree, path.stem)
        if name not in read
    )


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults() == []


def test_every_field_is_read():
    assert unread_fields() == []


def test_allowed_names_still_exist():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {qualified for module, tree in trees.items()
               for qualified, _ in _public_definitions(tree, module)}
    assert set(ALLOWED) <= defined
    defaulted = {qualified for module, tree in trees.items()
                 for qualified, *_ in _defaulted_parameters(tree, module)}
    assert set(ALLOWED_DEFAULTS) <= defaulted


def _tracer_targets():
    """The (module, attribute) pairs in bench/tracer.py's TARGETS, read from
    its source without running it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_tracer_targets_exist():
    targets = _tracer_targets()
    assert targets
    assert [f"{module}.{attr}" for module, attr in targets
            if not hasattr(importlib.import_module(module), attr)] == []
