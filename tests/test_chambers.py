import itertools
import math
import random
import re
from collections import Counter

import pytest

from buildinglab import chambers, geometries
from buildinglab.chambers import (
    ChamberComplex,
    build_flag_building,
    cell_decomposition_report,
    verify_building_axioms,
)
from buildinglab.coxeter import MATRIX_A2, MATRIX_B2
from buildinglab.errors import (
    BoundExceeded,
    InvalidSpec,
    NotFound,
    NotReduced,
    NotUnique,
)
from buildinglab.geometries import all_subspaces, parse_geometry_spec
from buildinglab.localfield import finite_field


@pytest.fixture(scope="module")
def pg2_2():
    return build_flag_building("PG2:q=2")


@pytest.fixture(scope="module")
def pg2_3():
    return build_flag_building("PG2:q=3")


@pytest.fixture(scope="module")
def w2():
    return build_flag_building("W:q=2")


def test_chamber_counts(pg2_2, pg2_3, w2):
    # flags = (q^2+q+1)(q+1) for the plane, (q^3+q^2+q+1)(q+1) isotropic
    # point-line pairs for the quadrangle
    assert pg2_2.size == 21
    assert pg2_3.size == 52
    assert w2.size == 45
    assert build_flag_building("PG2:q=4").size == 105
    assert build_flag_building("W:q=3").size == 160


# Row reduction by elimination, the oracle of `all_subspaces` (which lists
# the echelon forms cell by cell), of `subspace_leq` below (which reads
# coefficients off the pivot columns) and of `geometries._combine` (whose
# products A.B are echelon without reduction).
def rref(F, rows):
    """Canonical reduced-row-echelon basis of the span."""
    mat = [list(r) for r in rows]
    n = len(mat[0]) if mat else 0
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = F.inv(mat[r][col])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col] != 0:
                c = mat[k][col]
                mat[k] = [F.sub(x, F.mul(c, y))
                          for x, y in zip(mat[k], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q, n, dim", [
    (2, 4, 0), (2, 4, 1), (2, 4, 2), (2, 4, 3), (2, 4, 4), (3, 3, 1),
    (3, 4, 2), (4, 3, 1), (4, 4, 2), (5, 3, 2), (9, 3, 1), (9, 3, 2)])
def test_all_subspaces_are_the_echelon_forms(q, n, dim):
    F = finite_field(q)
    spaces = list(all_subspaces(F, n, dim))
    assert len(spaces) == gaussian_binomial(n, dim, q)
    assert all(rref(F, sp) == sp and len(sp) == dim for sp in spaces)
    assert len(set(spaces)) == len(spaces)


# The containment-scan flag builder, the oracle of the top-down
# `subspace_flags`: flags grow bottom-up, each partial flag tried against
# every kept subspace of the next dimension.
def subspace_leq(F, small, big):
    """Whether span(small) lies in big: every vector of small must equal
    the combination of big's rows read off at big's pivot columns."""
    pivots = [row.index(F.one) for row in big]
    for v in small:
        rest = list(v)
        for p, row in zip(pivots, big):
            if v[p]:
                rest = [F.sub(x, F.mul(v[p], y)) for x, y in zip(rest, row)]
        if any(rest):
            return False
    return True


def flags_by_containment(F, ambient, dims, keep):
    flags = [()]
    for dim in dims:
        layer = [sp for sp in all_subspaces(F, ambient, dim)
                 if keep is None or keep(F, sp)]
        flags = [flag + (sp,) for flag in flags for sp in layer
                 if not flag or subspace_leq(F, flag[-1], sp)]
    return flags


def geometry_of(spec):
    """(F, ambient, dims, keep) of a geometry spec, written out apart from
    `build_flag_building`."""
    head, params = parse_geometry_spec(spec)
    F = finite_field(params["q"])
    if head == "PG2":
        return F, 3, (1, 2), None
    if head == "W":
        return F, 4, (1, 2), geometries._totally_isotropic
    n = params["n"]
    return F, n + 1, tuple(range(1, n + 1)), None


def product(F, left, right):
    """The matrix product left.right, rows combined from zero; zip stops at
    the shorter side, so mismatched shapes give a wrong answer, not an
    error."""
    out = []
    for weights in left:
        row = (0,) * len(right[0])
        for c, r in zip(weights, right):
            row = tuple(F.add(x, F.mul(c, y)) for x, y in zip(row, r))
        out.append(row)
    return tuple(out)


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3)])
def test_subspace_leq_matches_rank(q, n):
    # reading coefficients off the pivots against the rank of the stack
    F = finite_field(q)
    spaces = [sp for dim in range(n + 1) for sp in all_subspaces(F, n, dim)]
    for small in spaces:
        for big in spaces:
            by_rank = len(rref(F, list(big) + list(small))) == len(big)
            assert subspace_leq(F, small, big) == by_rank, (small, big)


@pytest.mark.parametrize("spec", [
    "PG2:q=2", "PG2:q=3", "PG2:q=4", "PG2:q=5", "W:q=2", "W:q=3", "W:q=4",
    "Aflags:n=2,q=3", "Aflags:n=3,q=2"])
def test_top_down_flags_match_the_containment_scan(spec):
    F, ambient, dims, keep = geometry_of(spec)
    cx = build_flag_building(spec)
    assert cx.chambers == sorted(flags_by_containment(F, ambient, dims, keep))
    assert all(rref(F, sp) == sp for ch in cx.chambers for sp in ch)


def test_filter_applies_at_every_layer():
    # the shipped filters keep every space below a kept top space; this one
    # drops points and planes as well as lines of F_2^4
    F = finite_field(2)

    def keep(F, sp):
        return sp[0][-1] == 0 or len(sp) == 2

    flags = geometries.subspace_flags(F, 4, (1, 2, 3), keep, "F_2^4")
    assert flags and sorted(flags) == sorted(
        flags_by_containment(F, 4, (1, 2, 3), keep))
    assert len(flags) < build_flag_building("Aflags:n=3,q=2").size


def test_elliptic_quadrangle_flags_match_the_containment_scan(
        elliptic_quadrangle_2, elliptic_singular):
    F = finite_field(2)
    assert elliptic_quadrangle_2.chambers == sorted(
        flags_by_containment(F, 6, (1, 2), elliptic_singular))


@pytest.mark.parametrize("q, n, top", [(2, 4, 3), (3, 4, 2), (4, 3, 2)])
def test_combine_is_the_product_in_echelon_form(q, n, top):
    # every A.B over the subspaces B of dimension top and the A of every
    # smaller dimension: echelon as it stands, inside B, and the product
    F = finite_field(q)
    for basis in all_subspaces(F, n, top):
        for dim in range(1, top + 1):
            for coeffs in all_subspaces(F, top, dim):
                sp = geometries._combine(F, coeffs, basis)
                assert sp == product(F, coeffs, basis) == rref(F, sp)
                assert len(sp) == dim and subspace_leq(F, sp, basis)


@pytest.mark.parametrize("mutant, specs", [
    # B.A in place of A.B (not on W, whose filter reads four coordinates)
    (lambda F, a, b: product(F, b, a), ("PG2:q=3", "Aflags:n=3,q=2")),
    # B with its rows swapped: the same spans, bases out of echelon form
    (lambda F, a, b: product(F, a, b[::-1]),
     ("PG2:q=3", "W:q=3", "Aflags:n=3,q=2"))])
def test_combine_mutants_fail_the_oracle(monkeypatch, mutant, specs):
    oracles = {spec: sorted(flags_by_containment(*geometry_of(spec)))
               for spec in specs}
    monkeypatch.setattr(geometries, "_combine", mutant)
    for spec in specs:
        F = geometry_of(spec)[0]
        flags = build_flag_building(spec).chambers
        echelon = all(rref(F, sp) == sp for ch in flags for sp in ch)
        assert not echelon or flags != oracles[spec], spec


def _cell_size(cx, w):
    """The product of the panel parameters over a reduced word of w."""
    return math.prod(cx.thickness[s] for s in cx.coxeter.words[w])


def test_counts_match_poincare(pg2_2, pg2_3, w2, elliptic_quadrangle_2):
    # the chambers number the sum over W of the cell sizes: the Poincare
    # polynomial at q when both types have parameter q
    cases = ((pg2_2, (2, 2)), (pg2_3, (3, 3)), (w2, (2, 2)),
             (elliptic_quadrangle_2, (2, 4)))
    for cx, thickness in cases:
        assert cx.thickness == thickness
        W = cx.coxeter
        assert cx.size == sum(_cell_size(cx, w) for w in range(W.order))
    for cx, (q, _) in cases[:3]:
        coeffs = cx.coxeter.poincare_polynomial()
        assert cx.size == sum(c * q ** k for k, c in enumerate(coeffs))


def test_panel_sizes(pg2_2, w2):
    for cx, q in ((pg2_2, 2), (w2, 2)):
        for i in range(cx.rank):
            assert all(len(m) == q + 1 for m in cx.panels[i])


def test_aflags_n2_matches_plane(pg2_3):
    aflags = build_flag_building("Aflags:n=2,q=3")
    assert aflags.size == pg2_3.size == 52
    assert aflags.chambers == pg2_3.chambers
    assert aflags.panels == pg2_3.panels
    assert aflags.coxeter.order == 6


def test_aflags_n3_count():
    cx = build_flag_building("Aflags:n=3,q=2")
    # 15 points, 7 lines through each, 3 planes through each line
    assert cx.size == 315
    assert cx.coxeter.order == 24


def test_parse_geometry_spec():
    assert parse_geometry_spec("PG2:q=4") == ("PG2", {"q": 4})
    assert parse_geometry_spec("Aflags:n=3,q=2") == ("Aflags", {"n": 3, "q": 2})
    # unknown family, unknown, repeated, missing or non-integer parameters
    for spec in ("PG3:q=2", "PG2:r=2", "PG2:q=3,n=7", "PG2:q=2,q=3", "PG2",
                 "PG2:q=", "W:q=2,n=2", "Aflags:q=2", "Aflags:n=3,q=2,n=3"):
        with pytest.raises(InvalidSpec):
            parse_geometry_spec(spec)
        with pytest.raises(InvalidSpec):
            build_flag_building(spec)


@pytest.mark.parametrize("spec", ["PG2:q=13", "W:q=7", "Aflags:n=3,q=3"])
def test_bound_exceeded_for_every_family(spec):
    # 2562, 3200 and 2080 flags; the bound stops the build partway
    with pytest.raises(BoundExceeded,
                       match=f"^flag count passed 2000 for {re.escape(spec)}$"):
        build_flag_building(spec)


def test_largest_geometries_under_the_bound():
    assert build_flag_building("PG2:q=11").size == 1596
    assert build_flag_building("W:q=5").size == 936


def test_w_distance_basics(pg2_2, chamber_neighbors):
    W = pg2_2.coxeter
    c = 0
    assert pg2_2.w_distance(c, c) == 0
    for i, e in chamber_neighbors(pg2_2, c):
        assert pg2_2.w_distance(c, e) == W.generator(i)
    # symmetry through inverse
    for d in range(0, pg2_2.size, 5):
        assert pg2_2.w_distance(c, d) == W.inverse[pg2_2.w_distance(d, c)]
    # gallery distance (the BFS depth) equals Coxeter length
    dist = pg2_2._delta_from(c)[0]
    for d in range(pg2_2.size):
        assert dist[d] == W.length[pg2_2.w_distance(c, d)]


def test_projection_gate_property(pg2_2):
    W = pg2_2.coxeter
    for c in range(pg2_2.size):
        for panel in pg2_2.all_panel_ids():
            gate = pg2_2.projection(panel, c)
            wg = pg2_2.w_distance(c, gate)
            for e in pg2_2.panel_members(panel):
                # delta(c, e) = delta(c, gate) * delta(gate, e), lengths adding
                assert pg2_2.w_distance(c, e) == W.multiply(
                    wg, pg2_2.w_distance(gate, e))


def test_verify_axioms_pg2(pg2_2):
    report = verify_building_axioms(pg2_2)
    assert report["ok"], report
    assert report["B1_apartments"]["mode"] == "exhaustive"
    assert report["B1_apartments"]["pairs_checked"] == 21 * 21
    assert report["B3_thickness"]["min_panel_size"] == 3


def test_verify_axioms_w2(w2):
    report = verify_building_axioms(w2)
    assert report["ok"], report
    assert report["B2_w_consistency"]["violations"] == []


def test_verify_axioms_pg2_3(pg2_3):
    report = verify_building_axioms(pg2_3)
    assert report["ok"], report


def _violation_kinds(cx):
    return Counter(v[0] for c in range(cx.size) for v in cx.row_violations(c))


def test_b2_flags_a_missing_chamber(pg2_2):
    broken = ChamberComplex(pg2_2.chambers[1:], MATRIX_A2,
                            geometry="broken")
    # galleries around the missing flag get longer: from 12 of the 20 bases
    # some panel has two members at one distance and none closer
    assert _violation_kinds(broken) == {"no-gate": 40, "length-drop": 8,
                                        "length-mismatch": 8}
    assert not verify_building_axioms(broken)["B2_w_consistency"]["ok"]


def test_b2_flags_a_panel_with_no_gate():
    # an ordinary octagon (four points, four lines: an apartment of the
    # quadrangle) and one more line on point 0.  From that line's flag the
    # two flags of point 2 lie at distance 4 along the two halves of the
    # octagon, both at delta w0, and no flag of point 2 is closer; every
    # delta is single-valued, so only the gate condition catches it
    flags = ([(k, k) for k in range(4)] + [((k + 1) % 4, k) for k in range(4)]
             + [(0, 4)])
    cx = ChamberComplex(flags, MATRIX_B2, geometry="octagon with a tail")
    base, far = cx.chambers.index((0, 4)), cx.chambers.index((2, 1))
    assert _violation_kinds(cx) == {"no-gate": 2}
    assert cx._delta_pass(base) is None
    assert cx.delta_row(base)[far] == cx.coxeter.longest
    with pytest.raises(NotUnique):
        cx.projection(cx.panel_id(1, far), base)
    report = verify_building_axioms(cx)["B2_w_consistency"]
    assert not report["ok"]
    assert report["violations"][0][0] == "no-gate"


def _random_incidence(rng):
    """The flags of a random incidence structure: 2..7 points, 2..7 lines,
    each point-line pair incident with one density per structure."""
    points, lines = rng.randint(2, 7), rng.randint(2, 7)
    density = rng.choice((0.3, 0.45, 0.6))
    return [(x, y) for x in range(points) for y in range(lines)
            if rng.random() < density]


def _pass_against_walk(cx, outcomes):
    """Each row of cx by both routes: the pass gives the walk's row as two
    byte rows, with no violation, or declines where the walk records one."""
    for c in range(cx.size):
        row, walk = cx._delta_pass(c), cx._delta_walk(c)
        if row is None:
            assert walk[2], (cx.chambers, c)
            outcomes[frozenset(v[0] for v in walk[2])] += 1
        else:
            dist, delta, violations = row
            assert type(dist) is bytes and type(delta) is bytes
            assert (tuple(dist), tuple(delta), violations) == walk, (
                cx.chambers, c)
            outcomes["accepted"] += 1


@pytest.mark.parametrize("matrix, seed", [
    (MATRIX_A2, 1), (MATRIX_B2, 2), ([[1, 6], [6, 1]], 3),
    ([[1, 2], [2, 1]], 4)], ids=["A2", "B2", "G2", "A1xA1"])
def test_pass_matches_walk_on_random_structures(matrix, seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(120):
        flags = _random_incidence(rng)
        if flags:
            _pass_against_walk(ChamberComplex(flags, matrix,
                                              geometry="random"), outcomes)
    accepted = outcomes["accepted"]
    assert accepted and sum(outcomes.values()) > accepted
    # rows whose only fault is a panel with no gate: every delta there is
    # single-valued, and still the pass must decline them
    assert outcomes[frozenset({"no-gate"})]


@pytest.mark.parametrize("spec", ["PG2:q=2", "PG2:q=3", "PG2:q=4", "W:q=2",
                                  "W:q=3", "Aflags:n=3,q=2"])
def test_pass_matches_walk_on_every_base(spec):
    cx = build_flag_building(spec)
    outcomes = Counter()
    _pass_against_walk(cx, outcomes)
    assert outcomes == {"accepted": cx.size}


def _cell_masks_by_loop(cx, x):
    """cell_masks as it stood before byte rows, kept as its oracle: one
    Python step per chamber, the unreached ones in the last entry."""
    rows = [0] * (cx.coxeter.order + 1)
    for y, w in enumerate(cx.delta_row(x)):
        rows[w] |= 1 << y
    return tuple(rows)


def test_byte_cell_masks_match_the_loop(pg2_2):
    # accepted rows are bytes and go through translate; a walk row (the
    # plane missing a flag, or two planes, one never reached) keeps the loop
    cases = [(build_flag_building(spec), 10) for spec in
             ("PG2:q=3", "W:q=2", "Aflags:n=3,q=2")]
    broken = ChamberComplex(pg2_2.chambers[1:], MATRIX_A2, geometry="broken")
    cases += [(broken, 20), (_two_copies(pg2_2), 42)]
    kinds = Counter()
    for cx, bases in cases:
        for x in range(bases):
            kinds[type(cx.delta_row(x))] += 1
            assert cx.cell_masks(x) == _cell_masks_by_loop(cx, x)
    assert kinds[bytes] and kinds[tuple]


def test_coxeter_order_past_a_byte_is_refused():
    # I2(129) has 258 elements: a delta index would not fit in a byte
    with pytest.raises(InvalidSpec, match="Coxeter order 258 passes 256"):
        ChamberComplex([(0, 0)], [[1, 129], [129, 1]], geometry="I2(129)")
    assert ChamberComplex([(0, 0)], [[1, 128], [128, 1]],
                          geometry="I2(128)").coxeter.order == 256


def test_b2_flags_a_wrong_coxeter_type(pg2_2, w2):
    # the plane read as a quadrangle and the quadrangle read as a plane
    plane_as_b2 = ChamberComplex(pg2_2.chambers, MATRIX_B2,
                                 geometry="PG2 as B2")
    assert _violation_kinds(plane_as_b2) == {"gallery-conflict": 168,
                                             "gate-conflict": 168}
    quad_as_a2 = ChamberComplex(w2.chambers, MATRIX_A2,
                                geometry="W as A2")
    assert _violation_kinds(quad_as_a2) == {
        "length-drop": 720, "gallery-conflict": 720, "gate-conflict": 720,
        "length-mismatch": 720}
    for cx in (plane_as_b2, quad_as_a2):
        assert not verify_building_axioms(cx)["B2_w_consistency"]["ok"]


def _two_copies(pg2_2):
    """Two disjoint copies of PG(2,2), chambers 0..20 the first in its own
    order; every component is tagged with its copy, so no panel joins the
    two."""
    return ChamberComplex([tuple((tag, x) for x in ch) for tag in (0, 1)
                           for ch in pg2_2.chambers], MATRIX_A2,
                          geometry="two planes")


def test_b2_flags_two_disjoint_copies(pg2_2):
    two = _two_copies(pg2_2)
    assert _violation_kinds(two) == {"disconnected": 42 * 21}
    first = two.row_violations(0)
    assert first[0] == ("disconnected", 0, 21, None, None)
    assert not verify_building_axioms(two)["B2_w_consistency"]["ok"]


def _pair_problems(cx, c, d):
    """The B1 check of one pair on its own hull."""
    try:
        return cx.check_apartment(cx.apartment_containing(c, d))
    except (NotFound, NotUnique) as exc:
        return [("error", str(exc))]


def _b1_per_pair(cx):
    """B1 with one hull per listed pair and no cover: the oracle for the
    covered route of verify_building_axioms."""
    if cx.size * cx.size <= chambers.PAIR_BUDGET:
        pairs = [(c, d) for c in range(cx.size) for d in range(cx.size)]
        mode = "exhaustive"
    else:
        rng = random.Random(chambers.PAIR_SEED)
        pairs = [(rng.randrange(cx.size), rng.randrange(cx.size))
                 for _ in range(chambers.PAIR_BUDGET)]
        mode = "sampled"
    failures = []
    for walked, (c, d) in enumerate(pairs, 1):
        bad = _pair_problems(cx, c, d)
        if bad:
            failures.append({"pair": [c, d], "problems": bad[:4]})
            if len(failures) >= 10:
                break
    return {"ok": not failures, "pairs_checked": walked, "mode": mode,
            "failures": failures}


def _covered_b1(cx):
    b1 = dict(verify_building_axioms(cx)["B1_apartments"])
    return b1.pop("apartments_checked"), b1


def _apartment_count(cx):
    """Opposite pairs over the pairs one apartment holds: each chamber has
    |C_w0| opposites, and an apartment holds |W| opposite pairs."""
    W = cx.coxeter
    return cx.size * _cell_size(cx, W.longest) // W.order


@pytest.mark.parametrize("name", ["pg2_2", "pg2_3", "w2"])
def test_b1_cover_matches_per_pair_oracle(name, request):
    cx = request.getfixturevalue(name)
    hulls, b1 = _covered_b1(cx)
    assert b1 == _b1_per_pair(cx)
    assert b1["mode"] == "exhaustive"
    # an exhaustive cover builds every apartment exactly once
    assert hulls == _apartment_count(cx)


def test_verify_flags_sampled_mode(monkeypatch):
    cx = build_flag_building("Aflags:n=3,q=2")
    monkeypatch.setattr(chambers, "PAIR_BUDGET", 400)
    monkeypatch.setattr(chambers, "PAIR_SEED", 3)
    report = verify_building_axioms(cx)
    assert report["ok"], report
    b1 = dict(report["B1_apartments"])
    assert b1.pop("apartments_checked") <= _apartment_count(cx) == 840
    assert b1["mode"] == "sampled"
    assert b1 == _b1_per_pair(cx)


@pytest.mark.parametrize("spec, hulls, apartments", [
    ("PG2:q=4", 1120, 1120),
    ("W:q=3", 1584, 1620),
])
def test_apartments_checked_within_the_apartment_count(spec, hulls,
                                                       apartments):
    cx = build_flag_building(spec)
    report = verify_building_axioms(cx)
    assert report["ok"], report
    assert _apartment_count(cx) == apartments
    assert report["B1_apartments"]["apartments_checked"] == hulls


def test_elliptic_quadrangle_is_a_building_with_its_cell_law(
        elliptic_quadrangle_2):
    # order (2, 4): the cells are products of the two parameters, not
    # powers of one
    cx = elliptic_quadrangle_2
    assert cx.size == 135 and [len(p) for p in cx.panels] == [45, 27]
    report = verify_building_axioms(cx)
    assert report["ok"], report
    assert report["B1_apartments"]["mode"] == "sampled"
    assert (report["B1_apartments"]["apartments_checked"] <= 1080
            == _apartment_count(cx))
    cells = cell_decomposition_report(cx, 0)
    assert cells["size_law_ok"] and cells["every_w_nonempty"]
    assert [row["size"] for row in cells["cells"]] == [1, 2, 4, 8, 8, 16,
                                                       32, 64]
    W = cx.coxeter
    assert [row["expected"] for row in cells["cells"]] == [
        _cell_size(cx, w) for w in range(W.order)]


def test_b1_fails_on_a_complex_missing_a_chamber(pg2_2):
    broken = ChamberComplex(pg2_2.chambers[1:], pg2_2.coxeter.matrix,
                            geometry="broken")
    _, b1 = _covered_b1(broken)
    per_pair = _b1_per_pair(broken)
    assert not b1["ok"]
    assert not per_pair["ok"]
    assert b1["failures"]
    for failure in b1["failures"]:
        assert _pair_problems(broken, *failure["pair"])
    # both walks stop at their tenth failure and count only the pairs met
    listed = [[c, d] for c in range(broken.size) for d in range(broken.size)]
    for report in (b1, per_pair):
        assert len(report["failures"]) == 10
        tenth = listed.index(report["failures"][-1]["pair"])
        assert report["pairs_checked"] == tenth + 1 < 400


def test_a_rejected_apartment_lists_its_opposite_pairs(pg2_2, monkeypatch):
    # two opposite chambers lie in one apartment only, so no other hull
    # can cover them once this one is rejected
    rejected = sorted(pg2_2.apartment_containing(0, 16))
    check = ChamberComplex.check_apartment

    def reject_one(self, hull):
        if self is pg2_2 and sorted(hull) == rejected:
            return [("rejected",)]
        return check(self, hull)
    monkeypatch.setattr(ChamberComplex, "check_apartment", reject_one)
    W = pg2_2.coxeter
    opposite = [[e, f] for e in rejected for f in rejected
                if pg2_2.w_distance(e, f) == W.longest]
    assert len(opposite) == 6
    hulls, b1 = _covered_b1(pg2_2)
    assert not b1["ok"]
    listed = [failure["pair"] for failure in b1["failures"]]
    assert all(pair in listed for pair in opposite)
    assert all(_pair_problems(pg2_2, *pair) for pair in listed)
    assert hulls == _apartment_count(pg2_2) - 1 + len(listed)


def test_apartments_are_thin_and_isometric(pg2_2):
    hull = cx_hull = pg2_2.apartment_containing(0, 17)
    assert len(hull) == pg2_2.coxeter.order == 6
    assert pg2_2.check_apartment(cx_hull) == []
    assert 0 in hull and 17 in hull


def test_exhaustive_walk_is_lazy_and_builds_each_apartment_once(monkeypatch):
    # 425^2 = 180 625 pairs, walked without listing them
    cx = build_flag_building("W:q=4")
    monkeypatch.setattr(chambers, "PAIR_BUDGET", 200_000)
    report = verify_building_axioms(cx)
    assert report["ok"], report
    b1 = report["B1_apartments"]
    assert b1["mode"] == "exhaustive"
    assert b1["pairs_checked"] == 425 * 425
    assert b1["apartments_checked"] == _apartment_count(cx) == 13_600


# The hull by a scan of every chamber and the apartment check by |W|^2
# products, as they stood before chamber bitsets: the oracles of
# apartment_hull and check_apartment.
def _hull_by_scan(cx, c, d_opp):
    W = cx.coxeter
    w0 = W.longest
    dist_c, delta_c, _ = cx._delta_from(c)
    dist_d, delta_d, _ = cx._delta_from(d_opp)
    out = []
    for e in range(cx.size):
        if dist_c[e] + dist_d[e] != W.length[w0]:
            continue
        if W.multiply(delta_c[e], W.inverse[delta_d[e]]) == w0:
            out.append(e)
    return out


def _check_by_products(cx, hull):
    W = cx.coxeter
    bad = []
    if len(hull) != W.order:
        bad.append(("size", len(hull), W.order))
    hull_set = set(hull)
    for e in hull:
        for i in range(cx.rank):
            inside = [x for x in cx.copanel_members(i, e) if x in hull_set]
            if len(inside) != 2:
                bad.append(("not-thin", e, i, len(inside)))
    base = hull[0]
    from_base = [cx.w_distance(base, e) for e in hull]
    seen_w = set(from_base)
    if len(seen_w) != len(hull):
        bad.append(("not-free", len(seen_w)))
    # delta -1 (a chamber the base never reaches) names no element of W
    unreached = [("unreached", base, e)
                 for e, we in zip(hull, from_base) if we == -1]
    if unreached:
        return bad + unreached
    for e, we in zip(hull, from_base):
        we_inv = W.inverse[we]
        from_e = cx.delta_row(e)
        for f, wf in zip(hull, from_base):
            if from_e[f] != W.multiply(we_inv, wf):
                bad.append(("not-isometric", e, f))
    return bad


def _hulls_against_oracles(cx, seed, pairs):
    """Seeded pairs (c, d): the hull of c with d and with an extension of
    d opposite c by both routes, and each nonempty hull checked by both.
    Returns the number of hulls whose check found violations."""
    rng = random.Random(seed)
    failing = 0
    for _ in range(pairs):
        c, d = rng.randrange(cx.size), rng.randrange(cx.size)
        ends = [d]
        try:
            ends.append(cx.extend_to_opposite(c, d))
        except NotFound:
            pass
        for end in ends:
            hull = cx.apartment_hull(c, end)
            assert hull == _hull_by_scan(cx, c, end), (c, end)
            if hull:
                bad = cx.check_apartment(hull)
                assert bad == _check_by_products(cx, hull), (c, end)
                failing += bool(bad)
    return failing


@pytest.mark.parametrize("spec", ["PG2:q=2", "PG2:q=3", "PG2:q=4", "W:q=2",
                                  "W:q=3", "Aflags:n=2,q=2",
                                  "Aflags:n=3,q=2"])
def test_hulls_and_checks_match_the_oracles(spec):
    # in a building the hull of a pair is empty unless the pair is
    # opposite, and then it is an apartment
    assert _hulls_against_oracles(build_flag_building(spec), 7, 80) == 0


def _broken_complexes(pg2_2, w2):
    """A chamber missing, two disjoint copies, the plane read as a
    quadrangle and the quadrangle read as a plane."""
    return [
        ChamberComplex(pg2_2.chambers[1:], MATRIX_A2, geometry="broken"),
        ChamberComplex([tuple((tag, x) for x in ch) for tag in (0, 1)
                        for ch in pg2_2.chambers], MATRIX_A2,
                       geometry="two planes"),
        ChamberComplex(pg2_2.chambers, MATRIX_B2, geometry="PG2 as B2"),
        ChamberComplex(w2.chambers, MATRIX_A2, geometry="W as A2"),
    ]


def test_hulls_and_checks_match_the_oracles_on_broken_complexes(pg2_2, w2):
    failing = {cx.geometry: _hulls_against_oracles(cx, 5, 80)
               for cx in _broken_complexes(pg2_2, w2)}
    # a hull of the two planes lies in one copy, an apartment there
    assert failing == {"broken": 29, "two planes": 0, "PG2 as B2": 59,
                       "W as A2": 112}


def test_a_pair_in_disjoint_copies_is_named_not_connected(pg2_2, w2):
    two_planes = _broken_complexes(pg2_2, w2)[1]
    # chamber 21 opens the second copy: its delta from 0 is -1, not w0
    assert two_planes.w_distance(0, 21) == -1
    message = "chambers 0 and 21 are not connected"
    with pytest.raises(NotFound, match=message):
        two_planes.extend_to_opposite(0, 21)
    b1 = verify_building_axioms(two_planes)["B1_apartments"]
    assert b1["failures"][0] == {"pair": [0, 21],
                                 "problems": [("error", message)]}
    # an apartment with its last chamber moved to the other copy
    hull = two_planes.apartment_containing(0, 0)
    crossed = hull[:-1] + [hull[-1] + 21]
    bad = two_planes.check_apartment(crossed)
    assert ("unreached", 0, hull[-1] + 21) in bad
    assert bad == _check_by_products(two_planes, crossed)


# The B1 walk as it stood before chamber bitsets: every pair listed up
# front, the cover one bytearray per chamber.  The oracle of the lazy walk
# and its bitset cover.
def _b1_listed_cover(cx):
    if cx.size * cx.size <= chambers.PAIR_BUDGET:
        pairs = [(c, d) for c in range(cx.size) for d in range(cx.size)]
        mode = "exhaustive"
    else:
        rng = random.Random(chambers.PAIR_SEED)
        pairs = [(rng.randrange(cx.size), rng.randrange(cx.size))
                 for _ in range(chambers.PAIR_BUDGET)]
        mode = "sampled"
    covered = [bytearray(cx.size) for _ in range(cx.size)]
    failures = []
    hulls = 0
    for walked, (c, d) in enumerate(pairs, 1):
        if covered[c][d]:
            continue
        hulls += 1
        bad = _pair_problems(cx, c, d)
        if bad:
            failures.append({"pair": [c, d], "problems": bad[:4]})
            if len(failures) >= 10:
                break
            continue
        hull = cx.apartment_containing(c, d)
        for e in hull:
            for f in hull:
                covered[e][f] = 1
    return {"ok": not failures, "pairs_checked": walked, "mode": mode,
            "apartments_checked": hulls, "failures": failures}


def test_lazy_walk_matches_the_listed_walk(pg2_2, pg2_3, w2, monkeypatch):
    for cx in [pg2_2, pg2_3, w2] + _broken_complexes(pg2_2, w2):
        assert verify_building_axioms(cx)["B1_apartments"] == \
            _b1_listed_cover(cx), cx.geometry
    # the sampled walk, drawing its pairs one at a time
    monkeypatch.setattr(chambers, "PAIR_BUDGET", 300)
    for cx in [pg2_3, w2] + _broken_complexes(pg2_2, w2):
        b1 = verify_building_axioms(cx)["B1_apartments"]
        assert b1["mode"] == "sampled"
        assert b1 == _b1_listed_cover(cx), cx.geometry


def test_a_hull_with_a_panel_mate_fails_both_routes(pg2_3):
    hull = pg2_3.apartment_containing(3, 40)
    out = hull[2]
    mate = min(x for x in pg2_3.copanel_members(1, out) if x not in hull)
    swapped = sorted(hull[:2] + [mate] + hull[3:])
    bad = pg2_3.check_apartment(swapped)
    assert ("not-thin", mate, 0, 1) in bad
    assert any(v[0] == "not-isometric" for v in bad)
    assert bad == _check_by_products(pg2_3, swapped)
    # kept beside the chamber it would replace, the mate makes a panel of
    # three
    grown = sorted(hull + [mate])
    bad = pg2_3.check_apartment(grown)
    assert bad[0] == ("size", 7, 6)
    assert ("not-thin", out, 1, 3) in bad
    assert bad == _check_by_products(pg2_3, grown)


def test_one_altered_delta_entry_fails_both_routes():
    cx = build_flag_building("W:q=2")
    hull = cx.apartment_containing(0, 30)
    assert cx.check_apartment(hull) == []
    e, f = hull[3], hull[5]
    dist, delta, violations = cx._delta_from(e)
    altered = list(delta)
    altered[f] = cx.coxeter.right[delta[f]][0]
    cx._delta_cache[e] = (dist, tuple(altered), violations)
    bad = cx.check_apartment(hull)
    assert bad == [("not-isometric", e, f)]
    assert bad == _check_by_products(cx, hull)


def test_cell_sizes_law(pg2_2, pg2_3, w2):
    for cx in (pg2_2, pg2_3, w2):
        rep = cell_decomposition_report(cx, 0)
        assert rep["covers_all_chambers"]
        assert rep["every_w_nonempty"]
        assert rep["size_law_ok"]
        assert rep["total"] == cx.size


def test_cell_report_leaves_unreached_chambers_out(pg2_2):
    # from chamber 0 the second plane is never reached: it lies in no cell
    rep = cell_decomposition_report(_two_copies(pg2_2), 0)
    assert rep["cells"] == cell_decomposition_report(pg2_2, 0)["cells"]
    assert (rep["nonempty_cells"], rep["total"]) == (6, 21)
    assert not rep["covers_all_chambers"]
    assert rep["every_w_nonempty"]


def test_cell_sizes_independent_of_base(pg2_2, w2):
    for cx in (pg2_2, w2):
        reference = None
        for c0 in range(cx.size):
            sizes = tuple(sorted(cx.cell_sizes(c0).items()))
            if reference is None:
                reference = sizes
            assert sizes == reference


def test_base_chamber_out_of_range_is_refused(pg2_2):
    # every cell, coordinate, gate and hull query reads its rows through
    # one cache, which range-checks a chamber it has not seen
    N = pg2_2.size
    for c in (-1, N):
        with pytest.raises(InvalidSpec,
                           match=f"base chamber {c} out of range 0..{N - 1}"):
            pg2_2.delta_row(c)
    with pytest.raises(InvalidSpec, match="base chamber"):
        cell_decomposition_report(pg2_2, N)
    for c, word in ((N, (0, 1)), (N, ()), (-1, ())):
        with pytest.raises(InvalidSpec, match="base chamber"):
            pg2_2.schubert_coordinates(c, word)
    for d in (-1, N):
        with pytest.raises(InvalidSpec,
                           match=f"chamber {d} out of range 0..{N - 1}"):
            pg2_2.w_distance(0, d)


def test_big_cell_and_opposition(pg2_2):
    W = pg2_2.coxeter
    w0 = W.longest
    big = pg2_2.schubert_cell(0, w0)
    assert len(big) == 2 ** W.length[w0]
    c = 0
    for d in big:
        for i in range(pg2_2.rank):
            j = W.conjugate_generator_by_longest(i)
            pc = pg2_2.panel_id(i, c)
            pd = pg2_2.panel_id(j, d)
            # the mutually inverse projections between opposite panels
            for e in pg2_2.panel_members(pc):
                back = pg2_2.projection(pc, pg2_2.projection(pd, e))
                assert back == e


@pytest.mark.parametrize("spec", ["PG2:q=2", "W:q=2", "Aflags:n=3,q=2"])
def test_coordinates_roundtrip_all_words(spec, reduced_words):
    cx = build_flag_building(spec)
    W = cx.coxeter
    for w in range(W.order):
        for word in reduced_words(W, w):
            coords = cx.schubert_coordinates(0, word)
            assert coords.w == w
            result = coords.verify()
            assert result["bijective"], (w, word, result)
            assert result["cell_size"] == 2 ** W.length[w]


def test_coordinates_domain_shape(pg2_2):
    W = pg2_2.coxeter
    w0 = W.longest
    coords = pg2_2.schubert_coordinates(0, W.words[w0])
    domain = list(coords.domain())
    assert len(domain) == 8
    assert all(len(t) == 3 for t in domain)


def test_coordinates_b2_quadrangle(w2):
    W = w2.coxeter
    w0 = W.longest
    coords = w2.schubert_coordinates(0, W.words[w0])
    result = coords.verify()
    assert result["bijective"]
    assert result["cell_size"] == 2 ** 4


def test_coordinates_not_reduced(pg2_2):
    with pytest.raises(NotReduced, match=r"word \(0, 1, 1, 1\) is not"):
        pg2_2.schubert_coordinates(0, (0, 1, 1, 1))


def test_identity_cell_coordinates(pg2_2):
    coords = pg2_2.schubert_coordinates(5, ())
    assert list(coords.domain()) == [()]
    assert coords.decode(()) == 5
    assert coords.encode(5) == ()
    assert coords.verify()["bijective"]


@pytest.mark.parametrize("level", [0, 1, 2])
def test_coordinates_verify_flags_a_moved_anchor(pg2_2, level):
    # puncturing a level panel at the wrong chamber breaks the round trip
    W = pg2_2.coxeter
    coords = pg2_2.schubert_coordinates(0, W.words[W.longest])
    i, j, d = coords.levels[level]
    moved = min(e for e in pg2_2.panel_members(pg2_2.panel_id(j, d))
                if e != d)
    coords.levels[level] = (i, j, moved)
    result = coords.verify()
    assert not result["bijective"]
    assert result["domain_size"] < result["cell_size"]


def test_coordinates_verify_flags_swapped_encoding(pg2_2):
    W = pg2_2.coxeter
    coords = pg2_2.schubert_coordinates(0, W.words[W.longest])
    encode = coords.encode

    def swapped(c):
        x = encode(c)
        return (x[1], x[0]) + x[2:]

    coords.encode = swapped
    assert not coords.verify()["bijective"]


def _anchor_panels(cx, c0):
    return {cx.panel_id(j, d) for word in cx.coxeter.words
            for _, j, d in cx.schubert_coordinates(c0, word).levels}


@pytest.mark.parametrize("spec", ["PG2:q=3", "W:q=2", "Aflags:n=3,q=2"])
def test_anchor_side_gate_matches_projection(spec):
    cx = build_flag_building(spec)
    for panel in _anchor_panels(cx, 0):
        for c in range(cx.size):
            gate = cx.projection(panel, c)
            assert cx._gate(panel, c, from_panel=True) == gate


def test_anchor_side_gate_on_a_complex_missing_a_chamber(pg2_2):
    broken = ChamberComplex(pg2_2.chambers[1:], MATRIX_A2,
                            geometry="broken")
    ties = 0
    for panel in broken.all_panel_ids():
        for c in range(broken.size):
            try:
                gate = broken.projection(panel, c)
            except NotUnique as exc:
                ties += 1
                with pytest.raises(NotUnique, match=re.escape(str(exc))):
                    broken._gate(panel, c, from_panel=True)
            else:
                assert broken._gate(panel, c, from_panel=True) == gate
    assert ties


@pytest.mark.parametrize("spec, c0, tables", [
    ("Aflags:n=3,q=2", 291, 50), ("PG2:q=5", 34, 26), ("W:q=2", 1, 15)])
def test_coordinates_read_only_the_anchor_tables(spec, c0, tables):
    # one BFS table from c0 and one per anchor-panel member, not one per
    # chamber of the complex
    cx = build_flag_building(spec)
    for word in cx.coxeter.words:
        assert cx.schubert_coordinates(c0, word).verify()["bijective"]
    assert len(cx._delta_cache) == tables < cx.size
    anchors = {e for panel in _anchor_panels(cx, c0)
               for e in cx.panel_members(panel)}
    assert set(cx._delta_cache) == anchors | {c0}


def test_decode_rejects_wrong_arity(pg2_2):
    W = pg2_2.coxeter
    for word, bad in (((), (1,)), (W.words[W.longest], (1, 2))):
        with pytest.raises(InvalidSpec):
            pg2_2.schubert_coordinates(0, word).decode(bad)
