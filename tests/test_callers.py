"""Every public function and method of the package has a caller inside it.

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


def _public_defs(tree):
    """(qualified name, def node) for each public module-level function and
    each public method, private classes included."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES]
    reads = Counter(name for tree in trees for name in _names_read(tree))
    uncalled = set()
    for tree in trees:
        for qual, node in _public_defs(tree):
            if reads[node.name] == _recursive_reads(node):
                uncalled.add(qual)
    assert uncalled == ALLOWED
