"""Every function and method of the package, private ones included, has a
caller inside it; dunder methods, which Python calls, are exempt.

Code that only the tests or the benchmark call belongs with them.  Calls
are matched by name (receivers are untyped), so a method counts as called
when any attribute of that name is read in `src/`.  A definition reading
its own name in its body, bare or through an attribute chain rooted at
`self` (`self.f`, or `self.k.f`, which delegates to the same-named method
of another object), is recursion and does not count.
"""

import ast
from collections import Counter
from pathlib import Path

import buildinglab

SOURCES = sorted(Path(buildinglab.__file__).parent.rglob("*.py"))

# Public names no code in the package calls, each kept on purpose.
ALLOWED = {
    # the benchmark's entry point to the Moufang transitivity check
    "moufang_transitivity_check",
}


def _names_read(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _rooted_at_self(expr):
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return isinstance(expr, ast.Name) and expr.id == "self"


def _recursive_reads(node):
    """Reads of the definition's own name in its body: bare, or through an
    attribute chain rooted at self."""
    return sum(
        isinstance(sub, ast.Name) and sub.id == node.name
        or isinstance(sub, ast.Attribute) and sub.attr == node.name
        and _rooted_at_self(sub.value)
        for sub in ast.walk(node))


def _defs(tree, private):
    """(qualified name, def node) for each module-level function and each
    method, private classes included, whose name is private or public as
    asked; dunders are neither."""
    def wanted(name):
        return (not (name.startswith("__") and name.endswith("__"))
                and name.startswith("_") == private)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if wanted(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and wanted(member.name):
                    yield f"{node.name}.{member.name}", member


def _uncalled(private):
    """The qualified names of the definitions no code in src/ calls."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES]
    reads = Counter(name for tree in trees for name in _names_read(tree))
    return {qual for tree in trees for qual, node in _defs(tree, private)
            if reads[node.name] == _recursive_reads(node)}


def test_every_public_definition_has_a_caller_in_src():
    assert _uncalled(private=False) == ALLOWED


def test_every_private_definition_has_a_caller_in_src():
    # a helper only the tests call, such as an oracle, lives in the tests
    assert _uncalled(private=True) == set()
