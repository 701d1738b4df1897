"""Every function, class and method in `src/semiform` has a caller there.

Code that only tests call belongs with the tests.  A definition counts as
used when its name is read somewhere in the package, outside its own body
and outside `__init__.py`, as a bare name or as an attribute.  The check
matches names, not types: any read of `.step` keeps every `step` method.
"""

import ast
from collections import Counter

from conftest import ROOT

PACKAGE = ROOT / "src" / "semiform"

# hooks that something outside the package calls by name
CALLED_FROM_OUTSIDE = {
    "cli._Parser.error": "argparse calls it to report a bad command line",
}


def _names_read(tree) -> Counter:
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree, module: str):
    """(qualified name, node) of every def and class, nested ones too."""
    todo = [(module, tree)]
    while todo:
        prefix, parent = todo.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = f"{prefix}.{node.name}"
                yield qual, node
                todo.append((qual, node))
            else:
                todo.append((prefix, node))


def unused_definitions(package=PACKAGE) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    read: Counter = Counter()
    for tree in trees.values():
        read += _names_read(tree)
    unused = []
    for module, tree in trees.items():
        for qual, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if read[name] - _names_read(node)[name] <= 0:
                unused.append(qual)
    return sorted(unused)


def test_every_definition_has_a_caller_in_src():
    unused = set(unused_definitions())
    extra = sorted(unused - set(CALLED_FROM_OUTSIDE))
    assert not extra, f"no caller in src/semiform, move or delete: {extra}"
    # an allowlisted hook that is gone, or now called inside, leaves the list
    assert set(CALLED_FROM_OUTSIDE) <= unused
