"""The benchmark's three workloads, as fixed op lists derived from a seed.

An op is (label, call, check): `call()` is the timed part and returns the
raw output; `check(raw)` runs outside the timed region and returns
(payload, ok), where `payload` is what the cross-PYTHONHASHSEED digest
covers.  CLI ops go through `buildinglab.cli.main(argv)` with stdout
captured, so argument parsing and JSON encoding are timed; library ops
are used only where no subcommand pins the input.

Why each workload exists (the layer it loads, and the change it guards):

fields       -- localfield, projline and btree: Hua recovery, Iwasawa
                decompositions, tree balls, boundary orbits and a valuation
                filtration, including the char-2 Frobenius path (F4((t)))
                and precision-skipped samples.  No chamber complex is
                built.  A field-kernel change shows its gain here; it is
                the no-change control for Coxeter and root-search changes.
buildings    -- coxeter and chambers: Coxeter enumeration (H3, A4, D4),
                axiom verification, Schubert coordinates, plus about 300
                small root-group searches.  A Coxeter-table change shows
                its gain here; a search change must not slow the easy
                searches.
root_groups  -- moufang: three pathological automorphism searches on the
                base apartments of PG(2,4) and W(3), mu elements, fitted
                parametrizations, product stabilizers, commutators.  A
                root-search change shows its gain here.

What the seed moves: every CLI `--seed` (the projline, iwasawa and
filtration sample streams), and the `--base` chamber of `building coords`.
Fixed, whatever the seed: `coxeter`, `bt tree`, `bt boundary`, `building
verify` (the library samples its pairs with its own seed 0), the Moufang
check on PG2:q=3, and the whole root_groups workload, whose searches take
no random input.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from buildinglab import chambers, cli, localfield, moufang

INPUTS = Path(__file__).resolve().parent / "inputs"

# Coxeter orders of the shipped matrices, a known answer for each.
COXETER_ORDERS = {"H3": 120, "A4": 120, "D4": 192}


def _flag_count(spec: str) -> int:
    """Chambers of a flag geometry, by the counting formula."""
    if spec.startswith("PG2:q="):
        q = int(spec.split("=")[1])
        return (q * q + q + 1) * (q + 1)
    if spec == "Aflags:n=3,q=2":
        return 1 * 3 * 7 * 15
    raise ValueError(spec)


def cli_op(argv, expected_ids, extra=lambda results: True):
    """An op running one CLI subcommand; it passes when the exit code is 0,
    no check failed, the check ids are exactly `expected_ids` and
    `extra(results)` holds."""
    argv = list(argv) + ["--json-only"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(raw):
        code, text = raw
        report = json.loads(text)
        report.pop("wall_time_seconds")
        ids = [c["id"] for c in report["checks"]]
        ok = (code == 0 and report["checks_failed"] == 0
              and ids == expected_ids and extra(report["results"]))
        return report, ok

    return " ".join(argv[:-1]), call, check


def _ok_field(raw):
    return raw, raw["ok"] is True


# ---------------------------------------------------------------------------

def fields_ops(seed: int, small: bool = False):
    rng = random.Random(seed)
    scale = 10 if small else 1
    radius = 5 if small else 9
    top = 2 if small else 6

    def s():
        return str(rng.randrange(1, 10**6))

    def recover(spec, samples):
        n = samples // scale
        return cli_op(
            ["projline", "recover", "--field", spec, "--samples", str(n),
             "--seed", s()],
            ["recovered_operations_match"],
            lambda r: r["checked"] == n)

    ops = [
        recover("F9", 2000),
        recover("Qp:p=5,prec=12", 2000),
        recover("Laurent:q=3,prec=8", 2000),
        recover("Laurent:q=4,prec=8", 1000),
        cli_op(["bt", "iwasawa", "--field", "Qp:p=5,prec=8",
                "--samples", str(2000 // scale), "--seed", s()],
               ["iwasawa_decompositions"]),
        cli_op(["bt", "iwasawa", "--field", "Laurent:q=3,prec=8",
                "--samples", str(1000 // scale), "--seed", s()],
               ["iwasawa_decompositions"]),
        # a ball of radius r in the (q+1)-regular tree, q = 3
        cli_op(["bt", "tree", "--field", "Qp:p=3,prec=10",
                "--radius", str(radius)],
               ["ball_shape"],
               lambda r: r["tree"]["vertex_count"]
               == 1 + 4 * (3 ** radius - 1) // 2),
        cli_op(["bt", "boundary", "--field", "Laurent:q=4,prec=8",
                "--depth", "2" if small else "3"],
               ["boundary_single_orbit"]),
        # every filtration step has index q = 3
        cli_op(["moufang", "filtration", "--field", "Laurent:q=3,prec=8",
                "--from", "0", "--to", str(top), "--seed", s()],
               ["filtration_indices"],
               lambda r: r["indices"] == [3] * (top + 1)),
    ]
    return ops


def buildings_ops(seed: int, small: bool = False):
    rng = random.Random(seed)

    def coxeter(name):
        return cli_op(
            ["coxeter", "--matrix", os.path.relpath(INPUTS / f"{name}.txt"),
             "--poincare"],
            ["system_enumerated", "poincare_palindromic",
             "poincare_counts_elements"],
            lambda r: r["order"] == COXETER_ORDERS[name])

    def verify(spec, pairs):
        return cli_op(
            ["building", "verify", "--geometry", spec],
            ["B3_thickness", "B2_w_consistency", "B1_apartments"],
            lambda r: r["axiom_report"]["B1_apartments"]["pairs_checked"]
            == pairs)

    def coords(spec, order):
        base = rng.randrange(_flag_count(spec))
        return cli_op(
            ["building", "coords", "--geometry", spec, "--base", str(base)],
            ["coordinates_roundtrip"],
            lambda r: len(r["coordinates"]) == order)

    if small:
        return [
            coxeter("H3"),
            verify("PG2:q=2", 21 * 21),
            coords("PG2:q=3", 6),
            cli_op(["moufang", "check", "--geometry", "PG2:q=2", "--mu",
                    "--commutators"],
                   ["moufang_transitivity", "mu_unique:PG2:q=2",
                    "mu_product_formula:PG2:q=2",
                    "product_stabilizers:PG2:q=2",
                    "commutator_containments:PG2:q=2"]),
            _transitivity_op("W:q=2", 20),
        ]
    return [
        coxeter("H3"),
        coxeter("A4"),
        coxeter("D4"),
        verify("PG2:q=4", 105 * 105),
        verify("W:q=3", 12_000),
        coords("PG2:q=5", 6),
        coords("Aflags:n=3,q=2", 24),
        cli_op(["moufang", "check", "--geometry", "PG2:q=3", "--mu",
                "--commutators"],
               ["moufang_transitivity", "mu_unique:PG2:q=3",
                "mu_product_formula:PG2:q=3", "product_stabilizers:PG2:q=3",
                "commutator_containments:PG2:q=3"]),
        _transitivity_op("W:q=3", 300),
    ]


def _transitivity_op(spec, roots):
    def call():
        cx = chambers.build_flag_building(spec)
        return moufang.moufang_transitivity_check(cx, exhaustive=True,
                                                  root_limit=roots)

    def check(raw):
        return raw, raw["ok"] is True and raw["roots_checked"] == roots

    return f"moufang_transitivity_check {spec}", call, check


def root_groups_ops(seed: int, small: bool = False):
    del seed  # the root-group searches take no random input
    if small:
        return (_frame_ops("PG2:q=2", with_group_checks=False)
                + _frame_ops("W:q=2", with_group_checks=True))
    return (_frame_ops("PG2:q=4", with_group_checks=False)
            + _frame_ops("W:q=3", with_group_checks=True))


def _frame_ops(spec, with_group_checks):
    """Ops on one MoufangFrame; they share it through `state`, in order."""
    state = {}

    def build():
        state["frame"] = moufang.MoufangFrame(
            chambers.build_flag_building(spec))
        return state["frame"]

    def check_frame(frame):
        payload = {"circuit": frame.circuit, "edges": frame.edge_chambers}
        return payload, len(frame.circuit) == 2 * frame.n

    ops = [(f"MoufangFrame {spec}", build, check_frame)]

    def root_group_op(i):
        def call():
            return state["frame"].root_group(i)

        def check(group):
            frame = state["frame"]
            return group, (len(group) == frame.q
                           and frame.identity in group)
        return f"root_group {spec} {i}", call, check

    n = 3 if spec.startswith("PG2") else 4
    ops += [root_group_op(i) for i in range(2 * n)]

    def mu_call():
        frame = state["frame"]
        return [moufang.mu_element(frame, u, 1)
                for u in frame.root_group(1) if u != frame.identity]

    def mu_check(mus):
        frame = state["frame"]
        ok = (len(mus) == frame.q - 1
              and all(frame.is_reflection_through(g, 1) for g in mus))
        return mus, ok

    ops.append((f"mu_element {spec}", mu_call, mu_check))

    def fit_call():
        frame = state["frame"]
        return moufang.fit_parametrization(
            frame, localfield.finite_field(frame.q), 1)

    def fit_check(fit):
        labels = moufang.orbit_labeling_check(state["frame"], fit["x"], 1)
        return {"fit": fit, "labels": labels}, labels["ok"]

    ops.append((f"fit_parametrization {spec}", fit_call, fit_check))
    if not with_group_checks:
        return ops

    def stabilizer_op(i, j):
        return (
            f"product_stabilizer_check {spec} {i} {j}",
            lambda: moufang.product_stabilizer_check(state["frame"], i, j),
            _ok_field)

    ops += [stabilizer_op(i, j)
            for j in range(0, n - 2) for i in range(1, n - j + 1)]
    ops.append((
        f"commutator_containment_check {spec}",
        lambda: moufang.commutator_containment_check(state["frame"]),
        _ok_field))
    ops.append((
        f"quadrangle_identity_check {spec}",
        lambda: moufang.quadrangle_identity_check(
            state["frame"], localfield.finite_field(state["frame"].q)),
        _ok_field))
    return ops


WORKLOADS = {
    "fields": fields_ops,
    "buildings": buildings_ops,
    "root_groups": root_groups_ops,
}
