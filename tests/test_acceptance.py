"""Acceptance checks.

Nine independent criteria, each printing a single pass/fail line.  Run
with `pytest -v` (names carry the criterion number) or `pytest -s` to see
the lines directly.
"""

import json
import subprocess
import sys
import time

from buildinglab.btree import (
    boundary_transitivity_check,
    build_tree_ball,
    cone_correspondence_report,
    cone_vs_ultrametric,
    filtration_indices,
    iwasawa_report,
    normalize_end,
)
from buildinglab.chambers import (
    build_flag_building,
    cell_decomposition_report,
)
from buildinglab.localfield import finite_field, parse_field_spec
from buildinglab.moufang import (
    MoufangFrame,
    commutator_containment_check,
    fit_parametrization,
    moufang_transitivity_check,
    mu_element,
    product_stabilizer_check,
)
from buildinglab.projline import recovery_check

CATALOG = (("PG2:q=2", 21), ("PG2:q=3", 52), ("W:q=2", 45))


def _emit(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_schubert_cells_and_coordinates():
    started = time.perf_counter()
    problems = []
    totals = {}
    for spec, expected_total in CATALOG:
        cx = build_flag_building(spec)
        totals[spec] = cx.size
        if cx.size != expected_total:
            problems.append(f"{spec}: {cx.size} chambers != {expected_total}")
        report = cell_decomposition_report(cx, 0)
        if not (report["size_law_ok"] and report["covers_all_chambers"]
                and report["every_w_nonempty"]):
            problems.append(f"{spec}: cell law violated")
        for word in cx.coxeter.words:
            row = cx.schubert_coordinates(0, word).verify()
            if not row["bijective"]:
                problems.append(f"{spec}: coordinates fail at {row['word']}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _emit(1, not problems,
          f"cells q^l(w), totals {totals}, all coordinates bijective, "
          f"{elapsed:.2f}s" if not problems else "; ".join(problems))


def test_criterion_2_hua_recovery():
    started = time.perf_counter()
    problems = []
    checked = {}
    for spec in ("F7", "F4", "Qp:p=5,prec=8", "Laurent:q=3,prec=8"):
        field = parse_field_spec(spec)
        report = recovery_check(field, 1000, seed=11)
        checked[spec] = report["pairs_compared"]
        if not report["ok"]:
            problems.append(f"{spec}: {report['failures'][:2]}")
        if report["pairs_compared"] < 1000:
            problems.append(f"{spec}: only {report['pairs_compared']} pairs")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _emit(2, not problems,
          f"recovered product == native on {checked} pairs "
          f"(with xy=0 and xy=-1 forced), {elapsed:.2f}s"
          if not problems else "; ".join(problems))


def test_criterion_3_moufang_simple_transitivity():
    problems = []
    summary = {}
    for spec, _ in CATALOG:
        cx = build_flag_building(spec)
        report = moufang_transitivity_check(cx, exhaustive=True)
        # one order per measured panel parameter
        orders = sorted(set(cx.thickness))
        summary[spec] = (report["roots_checked"], report["group_orders"])
        if not report["ok"]:
            problems.append(f"{spec}: {report['failures'][:2]}")
        if report["group_orders"] != orders:
            problems.append(
                f"{spec}: orders {report['group_orders']} != {orders}")
    _emit(3, not problems,
          f"every root group simply transitive, (roots, |U|): {summary}"
          if not problems else "; ".join(problems))


def test_criterion_4_product_groups_equal_stabilizers():
    problems = []
    ran = 0
    for spec, _ in CATALOG:
        frame = MoufangFrame(build_flag_building(spec))
        n = frame.n
        for j in range(0, n - 2):
            for i in range(1, n - j + 1):
                row = product_stabilizer_check(frame, i, j)
                ran += 1
                if not row["ok"]:
                    problems.append(f"{spec} (i={i}, j={j}): {row}")
        containment = commutator_containment_check(frame)
        if not containment["ok"]:
            problems.append(f"{spec}: containments {containment['pairs']}")
    _emit(4, not problems,
          f"{ran} product groups equal their pointwise stabilizers "
          "(all valid index ranges, exhaustive)"
          if not problems else "; ".join(problems))


def test_criterion_5_mu_uniqueness_and_product_formula():
    problems = []
    mu_count = 0
    for spec in ("PG2:q=2", "PG2:q=3"):
        frame = MoufangFrame(build_flag_building(spec))
        for i in range(1, 2 * frame.n + 1):
            for u in frame.root_group(i):
                if u == frame.identity:
                    continue
                try:
                    mu_element(frame, u, i)
                    mu_count += 1
                except Exception as exc:
                    problems.append(f"{spec} root {i}: {exc}")
        try:
            fit_parametrization(frame, finite_field(frame.q), 1)
        except Exception as exc:
            problems.append(f"{spec}: product formula: {exc}")
    _emit(5, not problems,
          f"{mu_count} unique mu elements; mu(x(t)) = x'(1/t) x(t) x'(1/t) "
          "holds under the fitted parametrizations"
          if not problems else "; ".join(problems))


def test_criterion_6_filtration_indices():
    problems = []
    indices = {}
    for spec in ("Qp:p=2,prec=8", "Qp:p=5,prec=8", "Laurent:q=3,prec=8"):
        field = parse_field_spec(spec)
        report = filtration_indices(field, -2, 3, seed=5)
        indices[spec] = report["indices"]
        if not report["ok"]:
            problems.append(f"{spec}: {report['levels']}")
    _emit(6, not problems,
          f"[U_k : U_(k+1)] = q on k in [-2, 3]: {indices}"
          if not problems else "; ".join(problems))


def test_criterion_7_iwasawa_and_boundary_transitivity():
    problems = []
    field = parse_field_spec("Qp:p=5,prec=8")
    report = iwasawa_report(field, 1000, seed=9)
    if not (report["ok"] and report["verified"] == 1000):
        problems.append(f"iwasawa: {report['verified']} verified, "
                        f"{report['exhausted']} exhausted, "
                        f"{report['failures'][:2]}")
    orbits = {}
    for p in (2, 3, 5):
        f = parse_field_spec(f"Qp:p={p},prec=8")
        for depth in (1, 2, 3, 4):
            b = boundary_transitivity_check(f, depth)
            orbits[(p, depth)] = b["orbit_count"]
            if not b["ok"]:
                problems.append(f"boundary q={p} depth={depth}: {b}")
    _emit(7, not problems,
          f"1000/1000 Iwasawa decompositions verified over Q5; boundary "
          f"orbit count 1 at all depths 1-4 for q in (2, 3, 5)"
          if not problems else "; ".join(problems))


def test_criterion_8_tree_balls_and_cone_correspondence():
    problems = []
    sizes = {}
    for p in (2, 3):
        field = parse_field_spec(f"Qp:p={p},prec=8")
        for r in range(5):
            report = build_tree_ball(field, r).report()
            sizes[(p, r)] = report["vertex_count"]
            if not report["ok"]:
                problems.append(f"ball q={p} r={r}: {report}")
            if report["vertex_count"] != report["expected_count"]:
                problems.append(f"ball q={p} r={r}: size mismatch")
        cone = cone_correspondence_report(field, depth=5, pairs=150, seed=3)
        if not cone["ok"]:
            problems.append(f"cone q={p}: {cone['failures'][:2]}")
        x = normalize_end(field, field.zero, field.one)
        for m in range(5):
            y = normalize_end(field, field.uniformizer_power(m), field.one)
            agreements = [cone_vs_ultrametric(field, x, y, d)[0]
                          for d in range(1, 7)]
            if agreements != sorted(agreements):
                problems.append(f"q={p}: agreement not monotone: {agreements}")
            if agreements[-1] != m:
                problems.append(
                    f"q={p}: offset wrong at nu={m}: {agreements[-1]}")
    _emit(8, not problems,
          f"ball sizes match 1+(q+1)(q^r-1)/(q-1) for q in (2, 3), r <= 4; "
          "ray agreement = min(valuation, depth) on all sampled pairs"
          if not problems else "; ".join(problems))


def test_criterion_9_deterministic_quick_run():
    started = time.perf_counter()
    outs = []
    problems = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "buildinglab.cli", "all",
             "--profile", "quick", "--seed", "1", "--json-only"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr[:200]}")
            break
        report = json.loads(proc.stdout)
        report.pop("wall_time_seconds")
        outs.append(json.dumps(report, sort_keys=True))
    elapsed = time.perf_counter() - started
    if len(outs) == 2 and outs[0] != outs[1]:
        problems.append("reports differ between runs")
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _emit(9, not problems,
          f"two quick runs identical modulo timing, {elapsed:.2f}s total"
          if not problems else "; ".join(problems))
