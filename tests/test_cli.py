"""Exit codes, report schema, and determinism of the command line tool."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from buildinglab import btree, cli, geometries, localfield, moufang
from buildinglab.coxeter import CoxeterSystem
from buildinglab.errors import NotFound, PrecisionExhausted


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_coxeter_matrix_file(tmp_path, capsys):
    path = tmp_path / "b2.txt"
    path.write_text("1 4\n4 1\n")
    code, report, err = run(
        ["coxeter", "--matrix", str(path), "--poincare"], capsys)
    assert code == 0
    assert report["schema"] == "buildinglab-report/1"
    assert report["results"]["order"] == 8
    assert report["results"]["longest_length"] == 4
    assert report["results"]["poincare"] == [1, 2, 2, 2, 1]
    assert report["checks_failed"] == 0
    assert "coxeter" in err


def test_coxeter_infinite_matrix_is_bound_exceeded(tmp_path, capsys):
    # affine A~2 passes the default element bound in about a second
    path = tmp_path / "affine_a2.txt"
    path.write_text("1 3 3\n3 1 3\n3 3 1\n")
    code, report, err = run(["coxeter", "--matrix", str(path)], capsys)
    assert code == 3
    assert report["error"]["class"] == "BoundExceeded"
    assert "enumeration passed 100000 elements" in report["error"]["message"]
    assert report["checks"] == [] and report["checks_run"] == 0
    assert "enumeration passed 100000 elements" in err


def test_coxeter_matrix_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    assert cli.main(["coxeter", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path} is not UTF-8 text" in captured.err


def test_coxeter_broken_table_fails_relation_check(tmp_path, monkeypatch,
                                                   capsys):
    class Broken(CoxeterSystem):
        def __init__(self, matrix):
            super().__init__(matrix)
            row = self.right[3]
            row[0], row[1] = row[1], row[0]
    monkeypatch.setattr("buildinglab.coxeter.CoxeterSystem", Broken)
    path = tmp_path / "b2.txt"
    path.write_text("1 4\n4 1\n")
    code, report, _ = run(["coxeter", "--matrix", str(path)], capsys)
    assert code == 1
    assert report["failures"][0]["id"] == "system_enumerated"
    assert set(report["failures"][0]["witness"]) == {"element", "i", "j"}


def test_field_classify_and_eval(capsys):
    code, report, _ = run(["field", "classify", "--field", "F8"], capsys)
    assert code == 0
    assert report["results"]["classification"]["characteristic"] == 2

    code, report, _ = run(
        ["field", "eval", "--field", "Laurent:q=3,prec=8",
         "--expr", "t^-2+2*t"], capsys)
    assert code == 0
    assert report["results"]["valuation"] == -2


def test_field_eval_requires_expr(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["field", "eval", "--field", "F7"])
    assert exc.value.code == 2
    assert "--expr" in capsys.readouterr().err


@pytest.mark.parametrize("command, unread", [
    ("bt tree --field Q2", "--samples 5"),
    ("bt iwasawa --field Q5", "--depth 2"),
    ("moufang check --geometry PG2:q=2", "--field Q5"),
    ("moufang filtration --field Q5", "--mu"),
    ("building cells --geometry PG2:q=2", "--word 0"),
    ("projline hua --field F7 --x 1 --y 2", "--samples 3"),
    ("field classify --field F7", "--expr 1"),
])
def test_option_the_action_does_not_read_is_usage_error(command, unread,
                                                        capsys):
    # each action takes exactly the options its branch reads
    with pytest.raises(SystemExit) as exc:
        cli.main(f"{command} {unread}".split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread}" in captured.err


@pytest.mark.parametrize("argv", [
    ["field", "classify", "--field", "F257"],
    ["field", "classify", "--field", "Q257"],
    ["field", "classify", "--field", "Laurent:q=257,prec=8"],
    ["field", "classify", "--field", "Qp:p=5,prec=1025"],
    ["field", "classify", "--field", "Laurent:q=3,prec=1025"],
    ["building", "verify", "--geometry", "PG2:q=257"],
])
def test_field_sizes_past_the_bounds_are_usage_errors(argv, capsys):
    # q (or p) at most 256 and precision at most 1024, refused before a
    # table is built
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "256" in captured.err or "1024" in captured.err


@pytest.mark.parametrize("spec", ["F256", "Q251", "Qp:p=5,prec=1024",
                                  "Laurent:q=256,prec=1024"])
def test_fields_at_the_bounds_build_quickly(spec, capsys):
    localfield.finite_field.cache_clear()
    code, report, _ = run(["field", "classify", "--field", spec], capsys)
    assert code == 0
    assert report["wall_time_seconds"] < 1.0


def test_projline_hua_matches_direct_product(capsys):
    code, report, _ = run(
        ["projline", "hua", "--field", "Q5", "--x", "5", "--y", "2"], capsys)
    assert code == 0
    check = report["checks"][0]
    assert check["id"] == "identity_matches_product"
    assert check["ok"]

    code, report, _ = run(
        ["projline", "hua", "--field", "F7", "--x", "3", "--y", "5"], capsys)
    assert code == 0
    results = report["results"]
    assert results["triple_product"] == results["direct_product"] == "3"


def test_projline_hua_with_infinity(capsys):
    code, report, _ = run(
        ["projline", "hua", "--field", "F7", "--x", "inf", "--y", "2"],
        capsys)
    assert code == 0
    assert report["results"]["x"] == "inf"


@pytest.mark.parametrize("field, x", [("Qp:p=5,prec=6", "2"),
                                      ("Qp:p=5,prec=6", "-3"),
                                      ("Laurent:q=3,prec=5", "t^2+t^-1")])
@pytest.mark.parametrize("y, product, check_id", [
    ("0", "0", "identity_matches_product"), ("inf", "inf", "computed")])
def test_projline_hua_at_exact_zero_and_infinity(field, x, y, product,
                                                 check_id, capsys):
    # the identity cancels every known digit here; the product is the
    # defining one, checked by the identity's terms
    code, report, _ = run(["projline", "hua", "--field", field, "--x", x,
                           "--y", y], capsys)
    assert code == 0
    assert report["results"]["triple_product"] == product
    assert report["checks"] == [{"id": check_id, "ok": True}]


def test_projline_hua_at_exact_zero_fails_with_its_terms(monkeypatch,
                                                         capsys):
    # 0^-1 moved to 1: the defining value 0 still equals the direct
    # product, and the identity's terms catch it
    from buildinglab import projline

    original = projline.pl_inv

    def zero_to_one(field, x):
        return (field.one if not projline.is_inf(x) and field.is_zero(x)
                else original(field, x))
    monkeypatch.setattr(projline, "pl_inv", zero_to_one)
    code, report, _ = run(["projline", "hua", "--field", "Qp:p=5,prec=6",
                           "--x", "2", "--y", "0"], capsys)
    assert code == 1
    witness = report["failures"][0]["witness"]
    assert witness["triple_product"] == witness["direct_product"] == "0"
    assert witness["identity_held"] is False


def _hua_checks_at_infinity(field, capsys):
    """(x, y, check) of `projline hua` on every pair of F_q + {inf} with a
    point at infinity."""
    points = ["inf"] + [str(c) for c in range(int(field[1:]))]
    out = []
    for x in points:
        for y in points:
            if "inf" in (x, y):
                _, report, _ = run(["projline", "hua", "--field", field,
                                    "--x", x, "--y", y], capsys)
                out.append((x, y, report["checks"][0]))
    return out


@pytest.mark.parametrize("field", ["F4", "F5", "F9"])
def test_projline_hua_at_infinity_checks_the_inversion_identity(field,
                                                                 capsys):
    # the check keeps its id, and holds on every pair
    for _, _, check in _hua_checks_at_infinity(field, capsys):
        assert check == {"id": "computed", "ok": True}


def test_hua_inversion_check_catches_a_wrong_convention(monkeypatch,
                                                        capsys):
    from buildinglab import projline

    original = projline.pl_inv

    def inf_to_one(field, x):
        return field.one if projline.is_inf(x) else original(field, x)

    monkeypatch.setattr(projline, "pl_inv", inf_to_one)
    failed = [(x, y) for x, y, check in _hua_checks_at_infinity("F5", capsys)
              if not check["ok"]]
    assert failed and all("inf" in pair for pair in failed)


def test_projline_recover(capsys):
    code, report, _ = run(
        ["projline", "recover", "--field", "F9", "--samples", "40",
         "--seed", "7"], capsys)
    assert code == 0
    assert report["results"]["checked"] >= 40
    assert report["results"]["failures"] == []
    assert report["seed"] == 7


def test_projline_recover_at_the_redraw_cap_names_its_draws(capsys):
    # one p-adic digit: most sampled pairs cancel every known digit
    code, report, _ = run(
        ["projline", "recover", "--field", "Qp:p=2,prec=1", "--samples",
         "50"], capsys)
    assert code == 1
    recovery = report["results"]["recovery"]
    assert recovery["pairs_compared"] < 50
    assert recovery["skipped"] > 0
    assert recovery["failures"] == []
    assert report["failures"][0]["witness"] == {
        "pairs_compared": recovery["pairs_compared"],
        "skipped": recovery["skipped"]}


def test_building_verify_reports_three_axioms(capsys):
    code, report, _ = run(
        ["building", "verify", "--geometry", "PG2:q=2"], capsys)
    assert code == 0
    ids = {c["id"] for c in report["checks"]}
    assert ids == {"B1_apartments", "B2_w_consistency", "B3_thickness"}
    assert report["results"]["chambers"] == 21


def test_building_cells_json_shape(capsys):
    code, report, _ = run(
        ["building", "cells", "--geometry", "PG2:q=2"], capsys)
    assert code == 0
    cells = report["results"]["cells"]
    assert cells["e"] == 1
    assert cells["010"] == 8
    assert sum(cells.values()) == 21


def test_building_coords_single_word(capsys):
    code, report, _ = run(
        ["building", "coords", "--geometry", "PG2:q=3",
         "--word", "0,1,0"], capsys)
    assert code == 0
    rows = report["results"]["coordinates"]
    assert len(rows) == 1
    assert rows[0]["cell_size"] == 27
    assert rows[0]["bijective"]


def test_building_coords_all_words(capsys):
    code, report, _ = run(
        ["building", "coords", "--geometry", "W:q=2"], capsys)
    assert code == 0
    rows = report["results"]["coordinates"]
    assert len(rows) == 8
    assert all(r["bijective"] for r in rows)


def test_building_coords_run_along_the_given_word(capsys):
    # 1,0,1 and 0,1,0 spell the same element; the report follows the word
    code, report, _ = run(
        ["building", "coords", "--geometry", "PG2:q=2",
         "--word", "1,0,1"], capsys)
    assert code == 0
    [row] = report["results"]["coordinates"]
    assert row["word"] == [1, 0, 1]
    assert row["cell_size"] == 8 and row["bijective"]


def test_building_coords_empty_word_is_the_identity_cell(capsys):
    code, report, _ = run(
        ["building", "coords", "--geometry", "PG2:q=2", "--word", ""], capsys)
    assert code == 0
    [row] = report["results"]["coordinates"]
    assert row["word"] == [] and row["cell_size"] == 1 and row["bijective"]


def test_building_verify_reads_no_base(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["building", "verify", "--geometry", "PG2:q=2",
                  "--base", "99"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --base 99" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    pytest.param([action, "--base", base], "base chamber",
                 id=f"{base}-{action}")
    for base in ("99", "-1") for action in ("cells", "coords")] + [
    pytest.param(["coords", "--word", "0,x"], "word letters", id="word-0,x"),
    pytest.param(["coords", "--word", ","], "word letters", id="word-,"),
    pytest.param(["coords", "--word", "0,0"], "not reduced", id="word-0,0")])
def test_building_base_out_of_range_is_usage_error(args, message, capsys):
    # also a --word that is not a reduced word of integer letters
    code = cli.main(["building", *args, "--geometry", "PG2:q=2"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("geometry, message, code", [
    pytest.param(geometry, message, code, id=f"{geometry}-{message}")
    for geometry, message, code in [
        ("PG2:q=3,n=7", "takes each of q once", 2),
        ("PG2:q=2,q=3", "takes each of q once", 2),
        ("W:q=7", "flag count passed 2000", 3)]])
def test_bad_or_oversized_geometry_is_usage_error(geometry, message, code,
                                                  capsys):
    # a malformed spec is a usage error; one past the bound gets a report
    assert cli.main(["building", "cells", "--geometry", geometry]) == code
    assert message in capsys.readouterr().err


def test_geometry_help_names_every_family(capsys):
    # the help is a literal, so that parsing loads no layer; a family row
    # added without it fails here
    with pytest.raises(SystemExit):
        cli.main(["building", "verify", "-h"])
    text = " ".join(capsys.readouterr().out.split())
    for head, (names, _) in geometries.FAMILIES.items():
        params = ",".join(rf"{k}=<\w+>" for k in names)
        assert re.search(rf"(^|\W){head}:{params}", text), head


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spec", ["W:q=64", "Aflags:n=20,q=2"])
def test_top_layer_past_the_bound_stops_under_a_memory_cap(spec):
    # about 1.7e7 lines of PG(3, 64) and 2.1e6 hyperplanes of F_2^21: the
    # build must stop at the bound before it lists the top layer
    proc = subprocess.run(
        [sys.executable, "-m", "buildinglab.cli", "building", "verify",
         "--geometry", spec, "--json-only"],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_cap_address_space,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert proc.returncode == 3, proc.stderr[-500:]
    error = json.loads(proc.stdout)["error"]
    assert error["class"] == "BoundExceeded"
    assert error["message"] == f"flag count passed 2000 for {spec}"


@pytest.mark.parametrize("argv", [
    ["projline", "recover", "--field", "F7"],
    ["bt", "iwasawa", "--field", "Q5"],
], ids=["recover", "iwasawa"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_usage_error(argv, samples, capsys):
    assert cli.main([*argv, "--samples", samples]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_moufang_check_full(capsys):
    code, report, _ = run(
        ["moufang", "check", "--geometry", "PG2:q=2", "--mu",
         "--commutators"], capsys)
    assert code == 0
    assert report["results"]["roots_checked"] == 84
    assert report["results"]["orbit_counts"] == [2]
    assert report["results"]["mu"]["mu_unique"]
    ids = [c["id"] for c in report["checks"]]
    assert "mu_product_formula:PG2:q=2" in ids
    assert "commutator_containments:PG2:q=2" in ids


def test_moufang_check_searches_each_group_once(monkeypatch, capsys):
    searches = []
    search = moufang.find_automorphisms

    def counted(cx, forced=None, vertex_fixes=frozenset()):
        searches.append((frozenset((forced or {}).items()), vertex_fixes))
        return search(cx, forced, vertex_fixes)
    monkeypatch.setattr(moufang, "find_automorphisms", counted)
    code, report, _ = run(
        ["moufang", "check", "--geometry", "PG2:q=2", "--mu",
         "--commutators"], capsys)
    assert code == 0
    # six base root groups, four conjugated groups cross-checked by a
    # direct search, three stabilizers; the other 15 of the 21 root
    # interiors (one per chamber) get their groups by conjugation
    assert len(searches) == len(set(searches)) == 13


def test_moufang_check_computes_each_mu_once(monkeypatch, capsys):
    calls = []
    mu = moufang.mu_element

    def counted(frame, u, i):
        calls.append((u, i))
        return mu(frame, u, i)
    monkeypatch.setattr(moufang, "mu_element", counted)
    code, report, _ = run(
        ["moufang", "check", "--geometry", "PG2:q=4", "--mu"], capsys)
    assert code == 0 and report["results"]["mu"]["mu_unique"]
    assert len(calls) == len(set(calls)) == 3


def test_moufang_check_names_a_failed_mu(monkeypatch, capsys):
    def missing(frame, u, i):
        raise NotFound(f"no mu element over root {i}")
    monkeypatch.setattr(moufang, "mu_element", missing)
    code, report, _ = run(
        ["moufang", "check", "--geometry", "PG2:q=2", "--mu"], capsys)
    assert code == 1
    failed = {f["id"]: f["witness"] for f in report["failures"]}
    assert failed["mu_unique:PG2:q=2"] == "no mu element over root 1"
    assert not failed["mu_product_formula:PG2:q=2"]["mu_unique"]


def test_full_profile_checks_larger_moufang_geometries(capsys):
    code, report, _ = run(["all", "--profile", "full"], capsys)
    assert code == 0
    moufang_block = report["results"]["moufang"]
    assert set(moufang_block) == {"PG2:q=2", "PG2:q=3", "W:q=2",
                                  "PG2:q=4", "W:q=3"}
    trans = moufang_block["W:q=3"]["transitivity"]
    assert trans["roots_checked"] == 4320 and trans["ok"]
    ids = {c["id"] for c in report["checks"]}
    assert {"moufang_transitivity:PG2:q=4", "mu_product_formula:PG2:q=4",
            "quadrangle_identity:W:q=3"} <= ids


def test_moufang_check_needs_geometry(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["moufang", "check"])
    assert exc.value.code == 2
    assert "--geometry" in capsys.readouterr().err


def test_moufang_filtration(capsys):
    code, report, _ = run(
        ["moufang", "filtration", "--field", "Laurent:q=3,prec=8",
         "--from", "0", "--to", "3"], capsys)
    assert code == 0
    assert report["results"]["indices"] == [3, 3, 3, 3]


def test_bt_tree_with_dot_export(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    code, report, _ = run(
        ["bt", "tree", "--field", "Q3", "--radius", "2",
         "--dot", str(dot)], capsys)
    assert code == 0
    assert report["results"]["tree"]["vertex_count"] == 17
    text = dot.read_text()
    assert text.startswith("graph tree_ball {")
    assert text.count(" -- ") == 16


def test_ball_past_the_bound_is_bound_exceeded(monkeypatch, capsys):
    # about 7e9 vertices by the count formula: refused before any is built
    built = []
    monkeypatch.setattr(btree, "residue_lifts", built.append)
    code, report, err = run(["bt", "tree", "--field", "Qp:p=3,prec=20",
                             "--radius", "20"], capsys)
    assert code == 3
    assert report["error"]["class"] == "BoundExceeded"
    assert "6973568801 vertices" in report["error"]["message"]
    assert report["checks"] == [] and report["checks_run"] == 0
    assert "past the bound 1000000" in err
    assert built == []


def test_bt_iwasawa(capsys):
    code, report, _ = run(
        ["bt", "iwasawa", "--field", "Qp:p=5,prec=8", "--samples", "40",
         "--seed", "2"], capsys)
    assert code == 0
    assert report["results"]["iwasawa"]["verified"] == 40


def test_bt_iwasawa_at_the_redraw_cap_names_its_draws(monkeypatch, capsys):
    def exhausted(field, g):
        raise PrecisionExhausted("no digits left")
    monkeypatch.setattr(btree, "iwasawa_decompose", exhausted)
    code, report, _ = run(
        ["bt", "iwasawa", "--field", "Q5", "--samples", "10"], capsys)
    assert code == 1
    assert report["failures"][0]["witness"] == {
        "samples": 10, "verified": 0, "exhausted": 60}


def test_bt_boundary(capsys):
    code, report, _ = run(
        ["bt", "boundary", "--field", "Q2", "--depth", "3"], capsys)
    assert code == 0
    assert report["results"]["boundary"]["orbit_count"] == 1
    assert report["results"]["boundary"]["classes"] == 12


def test_bt_iwasawa_redraws_samples_that_exhaust_precision(capsys):
    # this seed draws a matrix whose construction cancels every known digit
    code, report, _ = run(
        ["bt", "iwasawa", "--field", "Laurent:q=3,prec=8", "--samples",
         "1000", "--seed", "5"], capsys)
    assert code == 0
    assert report["results"]["iwasawa"]["verified"] == 1000


def test_bad_field_spec_is_usage_error(capsys):
    assert cli.main(["field", "classify", "--field", "Fq:q=6"]) == 2
    assert "prime power" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bt", "tree", "--field", "Q2", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_radius_beyond_precision_is_usage_error(capsys):
    assert cli.main(["bt", "tree", "--field", "Q2", "--radius", "40"]) == 2
    assert "precision window" in capsys.readouterr().err
    assert cli.main(["bt", "boundary", "--field", "Q2", "--depth", "40"]) == 2
    assert "precision window" in capsys.readouterr().err


def test_boundary_depth_beyond_precision_names_the_depth(capsys):
    argv = ["bt", "boundary", "--field", "Qp:p=3,prec=5", "--depth", "6"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "depth 6 exceeds the precision window 5" in err
    assert "radius" not in err


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_boundary_depth_below_one_names_the_rule(depth, capsys):
    # a negative depth once gave "depth must be nonnegative", though 0 is
    # refused too
    argv = ["bt", "boundary", "--field", "Q2", "--depth", depth]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "depth must be at least 1" in err
    assert "nonnegative" not in err


def test_exhausted_search_budget_gets_a_report(monkeypatch, capsys):
    monkeypatch.setattr(moufang, "_SEARCH_BUDGET", 1)
    code, report, err = run(
        ["moufang", "check", "--geometry", "PG2:q=2", "--json-only"], capsys)
    assert code == 3
    assert report["error"] == {
        "class": "SearchBudgetExceeded",
        "message": "automorphism search passed 1 nodes"}
    assert report["checks"] == report["failures"] == []
    assert report["checks_run"] == report["checks_failed"] == 0
    assert report["results"] == {}
    assert err == "error: automorphism search passed 1 nodes\n"


def test_failing_check_exits_one(monkeypatch, capsys):
    def broken(field, pairs, seed):
        return {"field": "X", "pairs_compared": 0, "skipped": 0,
                "failures": [{"x": "0"}], "ok": False}
    monkeypatch.setattr("buildinglab.projline.recovery_check", broken)
    code, report, err = run(
        ["projline", "recover", "--field", "F7", "--samples", "5"], capsys)
    assert code == 1
    assert report["checks_failed"] == 1
    assert report["failures"][0]["id"] == "recovered_operations_match"
    assert "FAILED" in err


def test_json_only_silences_stderr(capsys):
    code, report, err = run(
        ["field", "classify", "--field", "F5", "--json-only"], capsys)
    assert code == 0
    assert err == ""


def test_all_quick_profile_deterministic(capsys):
    code1, report1, _ = run(
        ["all", "--profile", "quick", "--seed", "1", "--json-only"], capsys)
    code2, report2, _ = run(
        ["all", "--profile", "quick", "--seed", "1", "--json-only"], capsys)
    assert code1 == code2 == 0
    assert report1["checks_failed"] == 0
    assert report1["checks_run"] >= 30
    report1.pop("wall_time_seconds")
    report2.pop("wall_time_seconds")
    assert report1 == report2


def _modules_in_fresh_interpreter(argv=None):
    """The buildinglab modules a fresh interpreter holds after importing
    the CLI and, given argv, running that command (which must exit 0)."""
    script = "import sys\nfrom buildinglab import cli\n"
    if argv is not None:
        script += f"assert cli.main({argv!r}) == 0\n"
    script += ("print(*sorted(m for m in sys.modules\n"
               "             if m.startswith('buildinglab')))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_layer():
    assert _modules_in_fresh_interpreter() == {
        "buildinglab", "buildinglab.errors", "buildinglab.cli"}


def test_coxeter_loads_no_other_layer(tmp_path):
    path = tmp_path / "b2.txt"
    path.write_text("1 4\n4 1\n")
    loaded = _modules_in_fresh_interpreter(
        ["coxeter", "--matrix", str(path), "--json-only"])
    assert "buildinglab.coxeter" in loaded
    assert not loaded & {"buildinglab.localfield", "buildinglab.moufang",
                         "buildinglab.btree", "buildinglab.projline",
                         "buildinglab.geometries"}


def test_field_classify_loads_no_building_layer():
    loaded = _modules_in_fresh_interpreter(
        ["field", "classify", "--field", "Qp:p=5,prec=8", "--json-only"])
    assert "buildinglab.localfield" in loaded
    assert not loaded & {"buildinglab.chambers", "buildinglab.moufang",
                         "buildinglab.btree", "buildinglab.geometries"}


def test_moufang_filtration_loads_no_building_layer():
    loaded = _modules_in_fresh_interpreter(
        ["moufang", "filtration", "--field", "Qp:p=5,prec=8", "--json-only"])
    assert {"buildinglab.localfield", "buildinglab.btree"} <= loaded
    assert not loaded & {"buildinglab.chambers", "buildinglab.coxeter",
                         "buildinglab.moufang", "buildinglab.geometries"}


def test_building_verify_loads_the_geometry_rows():
    loaded = _modules_in_fresh_interpreter(
        ["building", "verify", "--geometry", "PG2:q=2", "--json-only"])
    assert {"buildinglab.chambers", "buildinglab.geometries"} <= loaded


def test_moufang_check_loads_no_tree():
    loaded = _modules_in_fresh_interpreter(
        ["moufang", "check", "--geometry", "PG2:q=2", "--json-only"])
    assert "buildinglab.moufang" in loaded
    assert "buildinglab.btree" not in loaded


def _report_under_hash_seed(argv, hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "buildinglab.cli", *argv, "--json-only"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert proc.returncode == 0, proc.stderr[-500:]
    report = json.loads(proc.stdout)
    report.pop("wall_time_seconds")
    return report


@pytest.mark.parametrize("argv", [
    ["all", "--profile", "quick"],
    ["building", "verify", "--geometry", "PG2:q=3"],
    ["building", "verify", "--geometry", "W:q=3"],
    ["moufang", "check", "--geometry", "W:q=2", "--mu", "--commutators"],
    ["moufang", "check", "--geometry", "PG2:q=4"],
    ["moufang", "check", "--geometry", "W:q=3", "--mu", "--commutators"],
    ["building", "coords", "--geometry", "W:q=2"],
    ["building", "coords", "--geometry", "PG2:q=2", "--word", "1,0,1"],
    ["building", "cells", "--geometry", "Aflags:n=3,q=2"],
    ["bt", "boundary", "--field", "Laurent:q=4,prec=8", "--depth", "3"],
    ["field", "eval", "--field", "Laurent:q=9,prec=5", "--expr", "t^-2+3*t"],
    ["projline", "recover", "--field", "F8", "--samples", "200"],
], ids=["all-quick", "verify-PG2-3", "verify-W-3", "moufang-W-2",
        "moufang-PG2-4", "moufang-W-3", "coords-W-2", "coords-PG2-2-word",
        "cells-Aflags-3-2", "boundary-Laurent-4", "eval-Laurent-9",
        "recover-F8"])
def test_report_independent_of_hash_seed(argv):
    assert (_report_under_hash_seed(argv, "0")
            == _report_under_hash_seed(argv, "1"))


# sha256 of each report without wall_time_seconds, dumped with sorted keys;
# a change that keeps every report keeps these
REPORT_DIGESTS = {
    "moufang check --geometry PG2:q=4 --mu --commutators":
        "5097ed7c161983c0633da628ce2dac51270d3035bcbac254a73017e6773aa557",
    "moufang check --geometry W:q=3 --mu --commutators":
        "fb9b26bc791c4dda6b85401c797dc6e2b5b13d457001dc2745ad24ff18f2c693",
    # q >= 5: the base, stabilizer and mu searches keep their complete maps
    # by the panel test
    "moufang check --geometry PG2:q=5 --mu --commutators":
        "2856bb0cbf218a4411b0b7ce7a77fba5410ccc5bca690632903a9126e5b89638",
    "all --profile full":
        "ebeaaa5c37af8c30f84b90d63c36bd0c7313b78dd51958fa3ca6eff98b2590be",
    "projline recover --field Laurent:q=4,prec=8 --samples 300 --seed 5":
        "94e39f5d1f3b6975835e7aee52bb6b53a34a131d8aa675926c79e4105dd3a6c9",
    "projline recover --field Laurent:q=9,prec=8 --samples 300 --seed 5":
        "92b859cff9810840f824c1ef564c57c94ac6cad61f63e0afc9ce4b73a6ebb830",
    # q = 7 splits products into blocks of six lanes
    "projline recover --field Laurent:q=7,prec=8 --samples 300 --seed 5":
        "67f5cd48f3c9f156003672dc94659f9d1c335f8f39abe6e11443ffef151f7884",
    "bt iwasawa --field Laurent:q=3,prec=8 --samples 300 --seed 5":
        "fde44a824cceb8c2abad63cf95ed13666739d5c623210586f7682cb01a224c92",
    "bt boundary --field Laurent:q=4,prec=8 --depth 3":
        "bfeb9cfe99fbdec072fe3d15370b92ed798ec7f3b90fff6b38bc20ee68d2bf2c",
    "bt tree --field Qp:p=3,prec=10 --radius 9":
        "82594633250f1e132b94e171668efce9ccf22599ef9fd72b499769e7809c4dab",
    # q = 4 = 2^2: each coefficient lane holds several digit slots
    "bt tree --field Laurent:q=4,prec=6 --radius 5":
        "e893bd803e519dc532142679ce39a9ed01e89bfee46a0a6d8e4d3d6284d44e83",
    # Q_p equality, halving and products by p^k
    "projline recover --field Qp:p=5,prec=12 --samples 300 --seed 5":
        "36312cdf84be89da355b1764e982c0d21700de94bd48d5ffa5042ba4b3ce94e9",
    "bt iwasawa --field Qp:p=5,prec=8 --samples 300 --seed 5":
        "fa21028d8709553cd7a6cf325f874cc7c6329604e4491b6623ae97822d7babc4",
    # W-distance rows: the axioms over every base, and coordinates on a
    # rank-3 complex
    "building verify --geometry PG2:q=4":
        "1d6c5853a4e354cdeedb3029fd28b2189f824c7d97dea8de1ee86b3daccc9457",
    "building verify --geometry W:q=3":
        "590191bef3fa2538179add89ec6e97f8892a3831de09c08ad900b5843af0c40d",
    "building coords --geometry Aflags:n=3,q=2 --base 99":
        "5e1eb34f7d1e19be2861451203424e098b83da82602dca486f34e9ef52932ee6",
    # a cell named by its word: the coordinates run along 1,0,1
    "building coords --geometry PG2:q=2 --word 1,0,1":
        "9c52184ce7b23e8e6dd95c3411e4bf3351ef137784b4528b00723231f2b5d940",
    # B1 on chamber bitsets: the one rank-3 exhaustive walk, and a sampled
    # walk of 6 446 hulls
    "building verify --geometry Aflags:n=3,q=2":
        "0dcc96d13b8e625470a3852096f2ee696603284274ad2e52bd27781fa7a5bb3b",
    "building verify --geometry W:q=4":
        "bab1ef085ee8ad331ca9482c977af44bae3b562653e95fe6a412d0a7d5c6898b",
    # the Moufang check on 425 chambers: every element of every root group
    # passes the automorphism test
    "moufang check --geometry W:q=4":
        "152ec2a1ff902dba1ec911b236b3bd3b12bc1acfd868a51de61ab051dafab85e",
    # the local ring operations on each model's own radix: q = 3 is the
    # heaviest fields op; q = 2 and q = 8 are characteristic 2 (q = 8 with
    # a fold), q = 17 has two-byte slots and no translate table, and Q2
    # reduces mod powers of 2
    "projline recover --field Laurent:q=3,prec=8 --samples 300 --seed 5":
        "d1f1cc62f4a7d208221b8b92344bb68c156bf54db2c88126431fd56ca5d4328c",
    "projline recover --field Laurent:q=2,prec=8 --samples 300 --seed 5":
        "da96c51b00d7d369528ca990193ff2ba164f340b1a1201735dc74cc19ae11a30",
    "projline recover --field Laurent:q=8,prec=8 --samples 300 --seed 5":
        "6f84b108588f2f26c513f4d3f78b2a0ac3f21662208d3b7d982283b3fd87bc81",
    "projline recover --field Laurent:q=17,prec=8 --samples 300 --seed 5":
        "a091f54d3a42eadc43d08def9a607300823af5f693c5d0a862050839dadb5b6b",
    "projline recover --field Qp:p=2,prec=12 --samples 300 --seed 5":
        "0551071ac729c2d2552d63d6c3bf830e96b05d1fc83701dcad86f470b460e6b8",
    "moufang filtration --field Laurent:q=3,prec=8 --from 0 --to 6 --seed 5":
        "4525ab54de98b14b155788c7d275ee86a533a8bfd81eabd6e362a46dc6e834e5",
    # the cell law on the measured panel parameters: a rank-3 complex, and
    # a quadrangle from a base chamber other than 0
    "building cells --geometry Aflags:n=3,q=2":
        "6ffc688181edcc66fc468d6427429ac3f46551afd490b9da2768f7663e9c98ad",
    "building cells --geometry W:q=3 --base 7":
        "64b78709cfd2e1bf3b02a01534887954d563c625058fecf8127411d4c4b21be5",
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(command, capsys):
    code, report, _ = run(command.split() + ["--json-only"], capsys)
    assert code == 0
    report.pop("wall_time_seconds")
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[command]


def test_dot_file_bytes_are_pinned(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    code, _, _ = run(["bt", "tree", "--field", "Laurent:q=3,prec=4",
                      "--radius", "3", "--dot", str(dot)], capsys)
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "77b2309712c847ae06e35d55b1a07e2e35046428ae9fdfb3ec8a850fc9dd11f4")
