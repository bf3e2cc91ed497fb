"""Every public function, class and method in src/eegid has a caller.

A public name counts as used when it appears as a name, an attribute or an
imported name anywhere in src/eegid or scripts/.  Tests do not count: code
that only tests call belongs in tests/oracles.py or tests/edf_tools.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eegid"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# public names kept without a caller, each with the reason
ALLOWED = {
    # the single-problem view of the lockstep solver; acceptance criterion 3
    # and the solver tests audit KKT conditions and dual optimality through it
    "svm.train_binary_smo",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def unreferenced_names():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    return sorted(
        qualified
        for path, tree in trees.items() if path.parent == PACKAGE
        for qualified, name in _public_definitions(tree, path.stem)
        if name not in used and qualified not in ALLOWED
    )


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_allowed_names_still_exist():
    defined = {qualified for path in PACKAGE.glob("*.py")
               for qualified, _ in _public_definitions(ast.parse(path.read_text()),
                                                        path.stem)}
    assert ALLOWED <= defined
