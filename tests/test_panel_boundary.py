"""Only chambers.py reads the panel tables or the delta-row triples,
branches on the violations a delta row records, or picks with itemgetter.

ChamberComplex owns its panels and its delta rows: other modules ask it
for panel ids, members, masks and images, for a chamber's delta row and
for its automorphism test, and pick entries through chambers._picker, the
one place that handles one index and none.  The B2 verdict, read from
row_violations, is given by chambers.py alone.
"""

import ast
from pathlib import Path

import buildinglab

SOURCES = sorted(Path(buildinglab.__file__).parent.rglob("*.py"))
OWNED = {"panel_of", "panels", "_delta_from", "row_violations",
         "itemgetter"}


def _owned_names_used(tree):
    """Each read of .panel_of, .panels, ._delta_from, .row_violations or
    .itemgetter, and each itemgetter imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in OWNED:
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names
                        if alias.name == "itemgetter")


def _uses_by_module():
    return {path.name: set(_owned_names_used(
                ast.parse(path.read_text(), filename=str(path))))
            for path in SOURCES}


def test_the_scan_sees_the_owner():
    assert _uses_by_module()["chambers.py"] == OWNED


def test_no_other_module_reads_the_panel_tables_or_itemgetter():
    uses = _uses_by_module()
    del uses["chambers.py"]
    assert {name: found for name, found in uses.items() if found} == {}
