"""Command-line front end.

Every subcommand prints one JSON report on standard output and a short
prose summary on standard error, and exits 0 when all checks passed,
1 when a check failed, and 2 on usage errors.  A run stopped by
PrecisionExhausted, SearchBudgetExceeded, BoundExceeded or NotFound
prints a report with no checks and an error {class, message} instead,
and exits 3.  --seed governs the sampled streams of the commands that
read it; two library draws keep seeds of their own, the pairs of
`building verify` (chambers.PAIR_SEED) and the root groups the Moufang
check searches again (moufang.CROSS_CHECK_SEED).  Reports are
reproducible byte for byte apart from the wall-time field.  Handlers
parse and dispatch; the library decides its own inputs (base chamber,
reduced word, sample count).  Each handler imports the layers it runs:
compiling the others would be a large share of a short command's cold
start.

    buildinglab coxeter --matrix FILE [--poincare]
    buildinglab field classify --field SPEC
    buildinglab field eval --field SPEC --expr LITERAL
    buildinglab projline hua --field SPEC --x LIT --y LIT
    buildinglab projline recover --field SPEC [--samples N]
    buildinglab building verify --geometry SPEC
    buildinglab building cells --geometry SPEC [--base C]
    buildinglab building coords --geometry SPEC [--base C] [--word W]
    buildinglab moufang check --geometry SPEC [--mu] [--commutators]
    buildinglab moufang filtration --field SPEC [--from K] [--to K]
    buildinglab bt tree --field SPEC [--radius R] [--dot FILE]
    buildinglab bt iwasawa --field SPEC [--samples N]
    buildinglab bt boundary --field SPEC [--depth D]
    buildinglab all [--profile quick|full]

Each also takes --seed N and --json-only.  An option an action does not
read is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import (
    BoundExceeded,
    BuildinglabError,
    InvalidSpec,
    NotFound,
    PrecisionExhausted,
    SearchBudgetExceeded,
)

SCHEMA = "buildinglab-report/1"
DEFAULT_SEED = 1

# failures a well-formed command can meet while it runs: they get a report
# and exit 3, where a usage error exits 2 with none
RUN_ERRORS = (PrecisionExhausted, SearchBudgetExceeded, BoundExceeded,
              NotFound)


def _check(checks: list, cid: str, ok: bool, witness=None) -> bool:
    entry = {"id": cid, "ok": bool(ok)}
    if witness is not None and not ok:
        entry["witness"] = witness
    checks.append(entry)
    return bool(ok)


_IWASAWA_DRAWS = ("samples", "verified", "exhausted")


def _sampled_witness(report: dict, counts: tuple, failures):
    """The `failures` witness when a sampled run failed somewhere, else the
    draw `counts` of a run that stopped at its redraw cap with none
    failed."""
    return failures if report["failures"] else {
        key: report[key] for key in counts}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, checks)

def cmd_coxeter(args):
    from .coxeter import CoxeterSystem, parse_coxeter_matrix

    try:
        with open(args.matrix, encoding="utf-8") as fh:
            matrix = parse_coxeter_matrix(fh.read())
    except UnicodeDecodeError:
        raise InvalidSpec(f"{args.matrix} is not UTF-8 text") from None
    system = CoxeterSystem(matrix)
    results = {
        "rank": system.rank,
        "order": system.order,
        "longest_length": system.length[system.longest],
        "decomposable": system.is_decomposable(),
    }
    checks = []
    bad = system.relation_violation()
    _check(checks, "system_enumerated", bad is None,
           bad and dict(zip(("element", "i", "j"), bad)))
    if args.poincare:
        poincare = system.poincare_polynomial()
        results["poincare"] = poincare
        _check(checks, "poincare_palindromic",
               poincare == poincare[::-1], {"poincare": poincare})
        _check(checks, "poincare_counts_elements",
               sum(poincare) == system.order,
               {"sum": sum(poincare), "order": system.order})
    return results, checks


def cmd_field(args):
    from .localfield import INFINITY, classify, parse_element, parse_field_spec

    field = parse_field_spec(args.field)
    checks = []
    if args.action == "classify":
        results = {"classification": classify(field)}
        _check(checks, "classified", True)
        return results, checks
    element = parse_element(field, args.expr)
    valuation = field.valuation(element)
    results = {
        "field": field.describe(),
        "expr": args.expr,
        "element": field.element_json(element),
        "formatted": field.format_element(element),
        "valuation": "inf" if valuation == INFINITY else int(valuation),
    }
    _check(checks, "parsed", True)
    return results, checks


def cmd_projline(args):
    from .localfield import parse_field_spec
    from .projline import (format_point, is_inf, parse_point, pl_eq, pl_inv,
                           recovery_check, triple_product)

    field = parse_field_spec(args.field)
    checks = []
    if args.action == "hua":
        x = parse_point(field, args.x)
        y = parse_point(field, args.y)
        value, held = triple_product(field, x, y)
        results = {
            "field": field.describe(),
            "x": format_point(field, x),
            "y": format_point(field, y),
            "triple_product": format_point(field, value),
        }
        if not is_inf(x) and not is_inf(y):
            direct = field.mul(field.mul(x, y), x)
            results["direct_product"] = format_point(field, direct)
            agree = held and not is_inf(value) and field.eq(value, direct)
            _check(checks, "identity_matches_product", agree,
                   {**results, "identity_held": held})
        else:
            # Hua's inversion identity (x y x)^-1 = x^-1 y^-1 x^-1, which
            # the conventions at inf must respect
            inverse = pl_inv(field, value)
            inverted, held_inverted = triple_product(
                field, pl_inv(field, x), pl_inv(field, y))
            held = held and held_inverted
            _check(checks, "computed",
                   held and pl_eq(field, inverse, inverted),
                   {"inverse_of_product": format_point(field, inverse),
                    "product_of_inverses": format_point(field, inverted),
                    "identity_held": held})
        return results, checks
    report = recovery_check(field, args.samples, args.seed)
    results = {
        "recovery": report,
        "checked": report["pairs_compared"],
        "failures": report["failures"],
    }
    _check(checks, "recovered_operations_match", report["ok"],
           _sampled_witness(report, ("pairs_compared", "skipped"),
                            {"failures": report["failures"]}))
    return results, checks


def cmd_building(args):
    from .chambers import (build_flag_building, cell_decomposition_report,
                           verify_building_axioms)

    cx = build_flag_building(args.geometry)
    checks = []
    results = {"geometry": args.geometry, "chambers": cx.size}
    if args.action == "verify":
        report = verify_building_axioms(cx)
        results["axiom_report"] = report
        _check(checks, "B3_thickness", report["B3_thickness"]["ok"],
               report["B3_thickness"])
        _check(checks, "B2_w_consistency", report["B2_w_consistency"]["ok"],
               report["B2_w_consistency"])
        _check(checks, "B1_apartments", report["B1_apartments"]["ok"],
               report["B1_apartments"])
        return results, checks
    if args.action == "cells":
        report = cell_decomposition_report(cx, args.base)
        results["cells"] = {
            "".join(map(str, row["word"])) or "e": row["size"]
            for row in report["cells"]}
        results["cell_report"] = report
        _check(checks, "size_law", report["size_law_ok"], report["cells"])
        _check(checks, "partition_covers", report["covers_all_chambers"],
               {"total": report["total"], "chambers": cx.size})
        _check(checks, "every_cell_nonempty", report["every_w_nonempty"])
        return results, checks
    words = cx.coxeter.words
    if args.word is not None:
        # the empty word names the identity cell
        letters = args.word.split(",") if args.word else []
        try:
            words = [[int(tok) for tok in letters]]
        except ValueError:
            raise InvalidSpec(f"word letters must be integers, got "
                              f"{args.word!r}") from None
    rows = [cx.schubert_coordinates(args.base, word).verify()
            for word in words]
    results["coordinates"] = rows
    failed = [r for r in rows if not r["bijective"]]
    _check(checks, "coordinates_roundtrip", not failed, failed)
    return results, checks


def _moufang_mu_block(frame, checks, label):
    """mu uniqueness and the product formula from one fit, which computes
    mu once for each nontrivial u in U_1; a mu that fails is the cause of
    the fit's NotFound."""
    from .localfield import finite_field
    from .moufang import fit_parametrization, orbit_labeling_check

    unique = True
    witness = None
    try:
        fit = fit_parametrization(frame, finite_field(frame.q), 1)
        labels = orbit_labeling_check(frame, fit["x"], 1)
        formula_ok = labels["ok"]
        info = {"mu_unique": unique, "formula_ok": True,
                "orbit_labels": labels["labels"]}
    except NotFound as exc:
        if exc.__cause__ is not None:
            unique = False
            witness = str(exc.__cause__)
        formula_ok = False
        info = {"mu_unique": unique, "formula_ok": False, "error": str(exc)}
    _check(checks, f"mu_unique:{label}", unique, witness)
    _check(checks, f"mu_product_formula:{label}", formula_ok, info)
    return info


def _moufang_commutator_block(frame, checks, label):
    from .localfield import finite_field
    from .moufang import (commutator_containment_check,
                          product_stabilizer_check, quadrangle_identity_check)

    n = frame.n
    stab_rows = []
    stabs_ok = True
    for j in range(0, n - 2):
        for i in range(1, n - j + 1):
            row = product_stabilizer_check(frame, i, j)
            stab_rows.append(row)
            stabs_ok = stabs_ok and row["ok"]
    _check(checks, f"product_stabilizers:{label}", stabs_ok,
           [r for r in stab_rows if not r["ok"]])
    containment = commutator_containment_check(frame)
    _check(checks, f"commutator_containments:{label}", containment["ok"],
           containment["pairs"])
    info = {"stabilizers": stab_rows, "containments": containment}
    if n == 4:
        quad = quadrangle_identity_check(frame, finite_field(frame.q))
        info["quadrangle_identity"] = quad
        _check(checks, f"quadrangle_identity:{label}", quad["ok"], quad)
    return info


def _moufang_block(spec, checks, transitivity_id, mu, commutators):
    """Transitivity and the optional mu and commutator blocks on one frame,
    so each root group is searched once."""
    from .chambers import build_flag_building
    from .moufang import MoufangFrame

    frame = MoufangFrame(build_flag_building(spec))
    trans = frame.transitivity_check()
    _check(checks, transitivity_id, trans["ok"], trans["failures"])
    block = {"transitivity": trans}
    if mu:
        block["mu"] = _moufang_mu_block(frame, checks, spec)
    if commutators:
        block["commutators"] = _moufang_commutator_block(frame, checks, spec)
    return block


def cmd_moufang(args):
    checks = []
    if args.action == "filtration":
        from .btree import filtration_indices
        from .localfield import parse_field_spec

        field = parse_field_spec(args.field)
        report = filtration_indices(field, args.k_lo, args.k_hi,
                                    seed=args.seed)
        results = {"filtration": report, "indices": report["indices"]}
        _check(checks, "filtration_indices", report["ok"], report["levels"])
        return results, checks
    block = _moufang_block(args.geometry, checks, "moufang_transitivity",
                           args.mu, args.commutators)
    trans = block["transitivity"]
    results = {
        "geometry": args.geometry,
        "roots_checked": trans["roots_checked"],
        "orbit_counts": trans["apartments_per_root"],
        **block,
    }
    return results, checks


def cmd_bt(args):
    from .btree import (boundary_transitivity_check, build_tree_ball,
                        iwasawa_report)
    from .localfield import parse_field_spec

    field = parse_field_spec(args.field)
    checks = []
    if args.action == "tree":
        ball = build_tree_ball(field, args.radius)
        report = ball.report()
        results = {"tree": report}
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(ball.dot())
            results["dot_file"] = args.dot
        _check(checks, "ball_shape", report["ok"], report)
        return results, checks
    if args.action == "iwasawa":
        report = iwasawa_report(field, args.samples, args.seed)
        results = {"iwasawa": report}
        _check(checks, "iwasawa_decompositions", report["ok"],
               _sampled_witness(report, _IWASAWA_DRAWS, report["failures"]))
        return results, checks
    report = boundary_transitivity_check(field, args.depth)
    results = {"boundary": report}
    _check(checks, "boundary_single_orbit", report["ok"], report)
    return results, checks


# ---------------------------------------------------------------------------
# the acceptance bundle

def run_all(profile: str, seed: int):
    from .btree import (boundary_transitivity_check, build_tree_ball,
                        cone_correspondence_report, filtration_indices,
                        iwasawa_report)
    from .chambers import build_flag_building, cell_decomposition_report
    from .localfield import parse_field_spec
    from .projline import recovery_check

    samples = 100 if profile == "quick" else 1000
    checks: list = []
    results: dict = {"profile": profile, "sample_cap": samples}

    cells = {}
    for spec, total in (("PG2:q=2", 21), ("PG2:q=3", 52), ("W:q=2", 45)):
        cx = build_flag_building(spec)
        report = cell_decomposition_report(cx, 0)
        coord_fail = []
        for word in cx.coxeter.words:
            row = cx.schubert_coordinates(0, word).verify()
            if not row["bijective"]:
                coord_fail.append(row)
        ok = (cx.size == total and report["size_law_ok"]
              and report["covers_all_chambers"]
              and report["every_w_nonempty"] and not coord_fail)
        cells[spec] = {"chambers": cx.size, "expected": total,
                       "size_law_ok": report["size_law_ok"],
                       "coordinate_failures": coord_fail}
        _check(checks, f"schubert:{spec}", ok, cells[spec])
    results["schubert"] = cells

    recovery = {}
    for spec in ("F7", "F4", "Qp:p=5,prec=8", "Laurent:q=3,prec=8"):
        field = parse_field_spec(spec)
        report = recovery_check(field, samples, seed)
        recovery[spec] = report
        _check(checks, f"hua_recovery:{spec}", report["ok"], report)
    results["hua_recovery"] = recovery

    moufang = {}
    specs = ("PG2:q=2", "PG2:q=3", "W:q=2")
    if profile == "full":
        specs += ("PG2:q=4", "W:q=3")
    for spec in specs:
        moufang[spec] = {"mu": None, **_moufang_block(
            spec, checks, f"moufang_transitivity:{spec}",
            mu=spec.startswith("PG2"), commutators=True)}
    results["moufang"] = moufang

    filtration = {}
    for spec in ("Qp:p=2,prec=8", "Qp:p=5,prec=8", "Laurent:q=3,prec=8"):
        field = parse_field_spec(spec)
        report = filtration_indices(field, 0, 3, seed=seed)
        filtration[spec] = report
        _check(checks, f"filtration:{spec}", report["ok"], report["levels"])
    results["filtration"] = filtration

    q5 = parse_field_spec("Qp:p=5,prec=8")
    iwasawa = iwasawa_report(q5, samples, seed)
    results["iwasawa"] = iwasawa
    _check(checks, "iwasawa:Q5", iwasawa["ok"], _sampled_witness(
        iwasawa, _IWASAWA_DRAWS, iwasawa["failures"]))

    boundary = {}
    for p in (2, 3, 5):
        field = parse_field_spec(f"Qp:p={p},prec=8")
        rows = []
        ok = True
        for depth in (1, 2, 3, 4):
            report = boundary_transitivity_check(field, depth)
            rows.append(report)
            ok = ok and report["ok"]
        boundary[f"q={p}"] = rows
        _check(checks, f"boundary_transitivity:q={p}", ok,
               [r for r in rows if not r["ok"]])
    results["boundary_transitivity"] = boundary

    trees = {}
    for p in (2, 3):
        field = parse_field_spec(f"Qp:p={p},prec=8")
        ball_rows = [build_tree_ball(field, r).report() for r in range(5)]
        cone = cone_correspondence_report(field, depth=4,
                                          pairs=min(samples, 200), seed=seed)
        trees[f"q={p}"] = {"balls": ball_rows, "cone": cone}
        _check(checks, f"tree_balls:q={p}", all(b["ok"] for b in ball_rows),
               [b for b in ball_rows if not b["ok"]])
        _check(checks, f"cone_correspondence:q={p}", cone["ok"], cone)
    results["tree_geometry"] = trees

    return results, checks


def cmd_all(args):
    return run_all(args.profile, args.seed)


# ---------------------------------------------------------------------------
# parser and dispatch

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One parser per action, with exactly the options its branch reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomness (default 1)")
    common.add_argument("--json-only", action="store_true",
                        help="suppress the prose summary on stderr")
    field = argparse.ArgumentParser(add_help=False, parents=[common])
    field.add_argument("--field", required=True, help="field spec, e.g. F9, "
                       "Qp:p=5,prec=8, Laurent:q=3,prec=8")
    geometry = argparse.ArgumentParser(add_help=False, parents=[common])
    geometry.add_argument("--geometry", required=True,
                          help="PG2:q=<n> | W:q=<n> | Aflags:n=<k>,q=<n>")

    parser = argparse.ArgumentParser(
        prog="buildinglab",
        description="Spherical buildings, Moufang root groups, local "
                    "fields, and Bruhat-Tits trees, with JSON reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def actions(name, handler, summary, **parents):
        """Each action's parser, on its parent's options."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        leaves = p.add_subparsers(dest="action", required=True)
        return [leaves.add_parser(action, parents=[parent])
                for action, parent in parents.items()]

    p = sub.add_parser("coxeter", parents=[common],
                       help="enumerate a Coxeter system from a matrix file")
    p.add_argument("--matrix", required=True,
                   help="file with one space-separated matrix row per line")
    p.add_argument("--poincare", action="store_true",
                   help="include the length generating polynomial")
    p.set_defaults(handler=cmd_coxeter)

    _, evaluate = actions("field", cmd_field,
                          "inspect a finite or local field",
                          classify=field, eval=field)
    evaluate.add_argument("--expr", required=True, help="element literal")

    hua, recover = actions("projline", cmd_projline,
                           "projective-line identities and field recovery",
                           hua=field, recover=field)
    hua.add_argument("--x", required=True, help="point literal")
    hua.add_argument("--y", required=True, help="point literal")
    recover.add_argument("--samples", type=int, default=100)

    _, cells, coords = actions(
        "building", cmd_building, "chamber complexes of flag geometries",
        verify=geometry, cells=geometry, coords=geometry)
    for p in (cells, coords):
        p.add_argument("--base", type=int, default=0,
                       help="base chamber index")
    coords.add_argument("--word", help="comma-separated reduced word")

    check, filtration = actions("moufang", cmd_moufang,
                                "root groups, mu elements, filtrations",
                                check=geometry, filtration=field)
    check.add_argument("--mu", action="store_true",
                       help="fit parametrizations and verify the mu formula")
    check.add_argument("--commutators", action="store_true",
                       help="product stabilizers and commutator containments")
    filtration.add_argument("--from", dest="k_lo", type=int, default=0,
                            help="first filtration level")
    filtration.add_argument("--to", dest="k_hi", type=int, default=3,
                            help="last filtration level")

    tree, iwasawa, boundary = actions(
        "bt", cmd_bt, "Bruhat-Tits tree over a local field",
        tree=field, iwasawa=field, boundary=field)
    tree.add_argument("--radius", type=int, default=3)
    tree.add_argument("--dot", help="write the ball as graphviz to this file")
    iwasawa.add_argument("--samples", type=int, default=100)
    boundary.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("all", parents=[common],
                       help="run the full acceptance bundle")
    p.add_argument("--profile", choices=["quick", "full"], default="quick")
    p.set_defaults(handler=cmd_all)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    error = None
    try:
        results, checks = args.handler(args)
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        results, checks = {}, []
        error = {"class": type(exc).__name__, "message": str(exc)}
    except (BuildinglabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [c for c in checks if not c["ok"]]
    report = {
        "schema": SCHEMA,
        "command": " ".join(argv),
        "seed": args.seed,
        "checks_run": len(checks),
        "checks_passed": len(checks) - len(failed),
        "checks_failed": len(failed),
        "checks": checks,
        "failures": failed,
        "results": results,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
    }
    if error is not None:
        report["error"] = error
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    if error is not None:
        return 3
    if not args.json_only:
        status = "ok" if not failed else "FAILED"
        print(f"buildinglab {args.command}: "
              f"{report['checks_passed']}/{report['checks_run']} checks "
              f"passed ({status}, {report['wall_time_seconds']}s)",
              file=sys.stderr)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
