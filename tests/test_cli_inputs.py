"""cli.py only parses and dispatches: the library decides its own inputs.

ChamberComplex range-checks a base chamber, SchubertCoordinates spells a
word and refuses one that is not reduced, and the sampled reports refuse
fewer than one sample.  So cli.py calls no element_from_word and compares
neither args.base nor args.samples.
"""

import ast
from pathlib import Path

import buildinglab

CLI = Path(buildinglab.__file__).parent / "cli.py"


def _input_rules(tree):
    """Each call of element_from_word, and each comparison that reads
    args.base or args.samples."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name == "element_from_word":
                yield name
        elif isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if (isinstance(operand, ast.Attribute)
                        and operand.attr in ("base", "samples")
                        and isinstance(operand.value, ast.Name)
                        and operand.value.id == "args"):
                    yield f"args.{operand.attr}"


def test_the_scan_sees_each_rule():
    source = ("w = W.element_from_word(letters)\n"
              "if not 0 <= args.base < cx.size: pass\n"
              "if args.samples < 1: pass\n")
    assert sorted(_input_rules(ast.parse(source))) == [
        "args.base", "args.samples", "element_from_word"]


def test_cli_decides_no_input_rule():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    assert list(_input_rules(tree)) == []
