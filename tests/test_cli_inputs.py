"""cli.py only parses and dispatches: the library decides its own inputs.

ChamberComplex range-checks a base chamber, SchubertCoordinates spells a
word and refuses one that is not reduced, and the sampled reports refuse
fewer than one sample.  So cli.py calls no element_from_word and compares
neither args.base nor args.samples.

Argparse decides which options an action takes: each action's parser
declares exactly the `args` attributes its handler branch reads, so an
option the action would ignore is a usage error.
"""

import argparse
import ast
from pathlib import Path

import buildinglab
from buildinglab import cli

CLI = Path(buildinglab.__file__).parent / "cli.py"
# every leaf parser takes these, and main reads them
COMMON = {"seed", "json_only"}


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


def _reads(node):
    """The attributes read off `args` below node."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}


def _branch_action(stmt):
    """x for a top-level `if args.action == "x":` block that returns."""
    if (isinstance(stmt, ast.If) and not stmt.orelse
            and isinstance(stmt.body[-1], ast.Return)
            and isinstance(stmt.test, ast.Compare)
            and _reads(stmt.test.left) == {"action"}
            and isinstance(stmt.test.ops[0], ast.Eq)
            and isinstance(stmt.test.comparators[0], ast.Constant)):
        return stmt.test.comparators[0].value
    return None


def _reads_by_action(handler, actions):
    """{action: options read on its path through the handler}: the block of
    `if args.action == "x": ... return` is x's alone, and every other
    statement is on the path of each action not yet returned."""
    pending = list(actions) or [None]
    out = {action: set() for action in pending}
    for stmt in handler.body:
        action = _branch_action(stmt)
        for key in [action] if action is not None else pending:
            out[key] |= _reads(stmt) - {"action"} - COMMON
        if action is not None:
            pending.remove(action)
    return out


def _declared():
    """{handler name: {action: option dests}} from the built parser; a
    command without actions has the one action None."""
    def dests(parser):
        return {a.dest for a in parser._actions
                if not isinstance(a, argparse._HelpAction)}

    def subparsers(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    out = {}
    for command in subparsers(cli._build_parser()).values():
        leaves = subparsers(command) or {None: command}
        out[command.get_default("handler").__name__] = {
            action: dests(leaf) - COMMON for action, leaf in leaves.items()}
    return out


def _handlers():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")}


def test_the_scan_splits_reads_by_action():
    source = ("def cmd_x(args):\n"
              "    field = parse(args.field)\n"
              "    if args.action == 'a':\n"
              "        return args.radius, args.seed\n"
              "    return args.depth\n")
    handler = ast.parse(source).body[0]
    assert _reads_by_action(handler, ["a", "b"]) == {
        "a": {"field", "radius"}, "b": {"field", "depth"}}


def test_the_scan_sees_every_handler():
    # each command's handler is a cmd_* function that reads args only
    # through its attributes, and every cmd_* function is some command's
    declared, handlers = _declared(), _handlers()
    assert sorted(declared) == sorted(handlers) and len(handlers) == 7
    assert sum(len(actions) for actions in declared.values()) == 14
    for handler in handlers.values():
        bare = [n for n in ast.walk(handler)
                if isinstance(n, ast.Name) and n.id == "args"]
        attributes = [n for n in ast.walk(handler)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and n.value.id == "args"]
        assert len(bare) == len(attributes)
        assert _reads(handler)


def test_each_action_declares_exactly_the_options_it_reads():
    handlers = _handlers()
    for name, declared in _declared().items():
        assert _reads_by_action(handlers[name], declared) == declared, name
