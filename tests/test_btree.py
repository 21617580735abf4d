import json
import random

import pytest

from buildinglab import btree
from buildinglab.btree import (
    BoundaryPoint,
    TreeVertex,
    boundary_transitivity_check,
    build_tree_ball,
    cone_correspondence_report,
    cone_vs_ultrametric,
    ends_equal,
    hnf_lattice,
    iwasawa_decompose,
    iwasawa_report,
    make_vertex,
    mat_det,
    mat_mul,
    normalize_end,
    ray_to_end,
    residue_lifts,
    sl2_sample,
    vertex_matrix,
)
from buildinglab.errors import BoundExceeded, InvalidSpec, PrecisionExhausted
from buildinglab.localfield import ZERO, parse_element, parse_field_spec


def parse_end(field, text):
    """The end named by a literal x, as (x : 1), or by "inf", as (1 : 0)."""
    text = text.strip().lower()
    if text in ("inf", "oo", "infinity"):
        return BoundaryPoint(field.one, ZERO)
    return normalize_end(field, parse_element(field, text), field.one)


# The field-arithmetic route through the tree: the oracle for the digit
# codes of TreeBall.

def base_vertex(field):
    return TreeVertex(0, ZERO)


def neighbors(field, v):
    """The q refinements of b modulo pi^(a+1), then the coarsening."""
    step = field.uniformizer_power(v.a)
    out = []
    for lift in residue_lifts(field):
        shifted = field.add(v.b, field.mul(lift, step))
        out.append(make_vertex(field, v.a + 1, shifted))
    out.append(make_vertex(field, v.a - 1, v.b))
    return out


def tree_distance(field, v, w):
    """|r - s| for the elementary divisors pi^r, pi^s of M_v^-1 M_w."""
    det_val = w.a - v.a
    vals = [det_val, 0]
    diff = field.sub(w.b, v.b)
    if not field.is_zero(diff):
        vals.append(field.valuation(diff) - v.a)
    return det_val - 2 * min(vals)


def field_route_ball(field, radius):
    """(vertices, dist, edges) of the ball by breadth-first search over
    `neighbors`, numbering vertices in order of discovery."""
    vertices, dist = [base_vertex(field)], [0]
    index = {vertices[0]: 0}
    edges = set()
    frontier = [0]
    for d in range(1, radius + 1):
        nxt = []
        for vi in frontier:
            for w in neighbors(field, vertices[vi]):
                wi = index.get(w)
                if wi is None:
                    wi = index[w] = len(vertices)
                    vertices.append(w)
                    dist.append(d)
                    nxt.append(wi)
                edges.add((min(vi, wi), max(vi, wi)))
        frontier = nxt
    return vertices, dist, edges


def decoded(ball):
    return [ball.vertex(i) for i in range(len(ball.codes))]


def ball_dist(ball):
    """The distance of each vertex, read off the level ranges."""
    return [d for d in range(ball.radius + 1) for _ in ball.level(d)]


def ball_edges(ball):
    """The edge set, rebuilt from the parent array and the non-tree pairs;
    no non-tree pair repeats a tree edge."""
    tree = {(p, i) for i, p in enumerate(ball.parent) if i}
    assert not tree & ball.extra
    return tree | ball.extra


@pytest.fixture(scope="module")
def q2():
    return parse_field_spec("Qp:p=2,prec=8")


@pytest.fixture(scope="module")
def q5():
    return parse_field_spec("Qp:p=5,prec=8")


@pytest.fixture(scope="module")
def l3():
    return parse_field_spec("Laurent:q=3,prec=8")


def test_ball_counts_match_formula(q2, l3):
    assert len(build_tree_ball(q2, 0).codes) == 1
    assert len(build_tree_ball(q2, 2).codes) == 10
    assert len(build_tree_ball(l3, 1).codes) == 5
    report = build_tree_ball(q2, 4).report()
    assert report["ok"], report
    assert report["counts_by_distance"] == [1, 3, 6, 12, 24]
    assert report["acyclic_connected"]
    assert report["distance_oracle_ok"]


@pytest.mark.parametrize("spec", [
    "Qp:p=2,prec=8", "Qp:p=5,prec=8", "Laurent:q=3,prec=8",
    "Laurent:q=4,prec=8", "Laurent:q=9,prec=8", "Laurent:q=4,prec=3"])
def test_coded_ball_matches_field_route(spec):
    field = parse_field_spec(spec)
    for radius in range(min(field.prec, 4) + 1):
        ball = build_tree_ball(field, radius)
        vertices, dist, edges = field_route_ball(field, radius)
        assert decoded(ball) == vertices
        assert ball_dist(ball) == dist
        assert ball_edges(ball) == edges
        assert ball.extra == set()
        report = ball.report()
        assert report["edge_count"] == len(edges)
        assert report["ok"]


def _off_by_one_up(lifts, radix, radius, shift):
    return [[(c * radix ** (k + 1) << shift) + 1 for c in lifts]
            for k in range(2 * radius + 1)]


def _off_by_one_down(radix, radius, shift):
    return [None] + [radix ** k << shift for k in range(1, 2 * radius + 1)]


def _duplicated_lift(field):
    lifts = residue_lifts(field)
    return lifts[:-1] + lifts[1:2]


@pytest.mark.parametrize("name, mutant", [
    ("_up_offsets", _off_by_one_up),
    ("_down_moduli", _off_by_one_down),
    ("residue_lifts", _duplicated_lift)])
@pytest.mark.parametrize("spec", ["Qp:p=3,prec=6", "Laurent:q=4,prec=5"])
def test_ball_shape_check_catches_wrong_steps(monkeypatch, spec, name,
                                              mutant):
    # a wrong step closes cycles, seen as non-tree pairs; a duplicated
    # lift loses vertices, seen in the count
    field = parse_field_spec(spec)
    assert build_tree_ball(field, 3).report()["ok"]
    monkeypatch.setattr(btree, name, mutant)
    ball = build_tree_ball(field, 3)
    report = ball.report()
    assert not report["ok"]
    if name == "residue_lifts":
        assert report["vertex_count"] < report["expected_count"]
        assert report["acyclic_connected"]
    else:
        assert not report["acyclic_connected"]
        assert 6 <= len(ball.extra) <= 12


def test_interior_degree_check_covers_the_last_interior_level(q2):
    # a non-tree pair from level radius - 1 to the sphere gives that
    # interior vertex degree q + 2 and leaves every count alone
    ball = build_tree_ball(q2, 3)
    assert ball.report()["interior_degrees_ok"]
    i = ball.level(2)[0]
    j = next(j for j in ball.level(3) if ball.parent[j] != i)
    ball.extra.add((i, j))
    report = ball.report()
    assert not report["interior_degrees_ok"] and not report["ok"]
    assert report["counts_by_distance"] == report["expected_by_distance"]


@pytest.mark.parametrize("spec, radius", [("Qp:p=3,prec=6", 6),
                                          ("Laurent:q=4,prec=5", 5)])
def test_ball_does_no_field_arithmetic(monkeypatch, spec, radius):
    field = parse_field_spec(spec)
    calls = []
    for op in ("add", "mul", "inv", "mod_pi_power"):
        def counted(*args, _op=getattr(field, op), _name=op):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(field, op, counted)
    assert build_tree_ball(field, radius).report()["ok"]
    assert calls == []


def test_ball_rejects_radius_beyond_precision(q2):
    with pytest.raises(InvalidSpec, match="precision window"):
        build_tree_ball(q2, 9)


def test_ball_bound_refuses_before_building(monkeypatch):
    # Q3 is admitted up to radius 11 (354 293 vertices); radius 12 has
    # 1 062 881 by the count formula and is refused with no vertex built
    assert btree.ball_size(3, 11) == 354293 <= btree.BALL_BOUND
    assert btree.ball_size(3, 12) == 1062881 > btree.BALL_BOUND
    built = []
    monkeypatch.setattr(btree, "residue_lifts", built.append)
    field = parse_field_spec("Qp:p=3,prec=20")
    with pytest.raises(BoundExceeded, match="1062881 vertices"):
        build_tree_ball(field, 12)
    assert built == []


def test_neighbors_are_symmetric_and_distinct(q5):
    base = base_vertex(q5)
    nbrs = neighbors(q5, base)
    assert len(set(nbrs)) == 6
    for w in nbrs:
        assert tree_distance(q5, base, w) == 1
        assert tree_distance(q5, w, base) == 1
        assert base in neighbors(q5, w)


def test_canonical_form_reduces_b(q2):
    # b = 4 + 8 reduces mod pi^2 to 0, mod pi^3 to 4
    b = q2.from_integer(12)
    assert make_vertex(q2, 2, b) == TreeVertex(2, ZERO)
    v = make_vertex(q2, 3, b)
    assert q2.eq(v.b, q2.from_integer(4))
    # integral b of high valuation collapses to the (a, 0) spine
    assert make_vertex(q2, -1, q2.from_integer(2)) == TreeVertex(-1, ZERO)


def test_hnf_roundtrip_and_rank_errors(q2):
    rng = random.Random(3)
    ball = build_tree_ball(q2, 4)
    for v in decoded(ball):
        M = vertex_matrix(q2, v)
        cols = [(M[0][0], M[1][0]), (M[0][1], M[1][1])]
        assert hnf_lattice(q2, cols) == v
        # unimodular column operations leave the class unchanged
        x = q2.from_integer(rng.randrange(1, 16))
        mixed = [(q2.add(cols[0][0], q2.mul(x, cols[1][0])),
                  q2.add(cols[0][1], q2.mul(x, cols[1][1]))), cols[1]]
        assert hnf_lattice(q2, mixed) == v
    with pytest.raises(InvalidSpec):
        hnf_lattice(q2, [(q2.one, ZERO), (q2.from_integer(2), ZERO)])


def test_distance_oracle_against_bfs(l3):
    ball = build_tree_ball(l3, 3)
    vertices = decoded(ball)
    base = vertices[0]
    dist = ball_dist(ball)
    for i, v in enumerate(vertices):
        assert tree_distance(l3, base, v) == dist[i]
    # triangle inequality on a few pairs, found through their codes
    rng = random.Random(0)
    for _ in range(40):
        cv, cw = (ball.codes[rng.randrange(len(ball.codes))]
                  for _ in range(2))
        v, w = (vertices[ball.index[c]] for c in (cv, cw))
        d = tree_distance(l3, v, w)
        assert d == tree_distance(l3, w, v) >= 0
        assert d <= dist[ball.index[cv]] + dist[ball.index[cw]]


def test_ray_to_spine_ends(q2):
    up = ray_to_end(q2, parse_end(q2, "0"), 3)
    assert [v.a for v in up] == [0, 1, 2, 3]
    assert all(q2.is_zero(v.b) for v in up)
    down = ray_to_end(q2, parse_end(q2, "inf"), 3)
    assert [v.a for v in down] == [0, -1, -2, -3]
    assert ray_to_end(q2, parse_end(q2, "1"), 0) == [base_vertex(q2)]
    for ray in (up, down):
        for a, b in zip(ray, ray[1:]):
            assert tree_distance(q2, a, b) == 1
    with pytest.raises(InvalidSpec, match="precision window"):
        ray_to_end(q2, parse_end(q2, "0"), 9)


def test_cone_agreement_examples(q2):
    x0 = parse_end(q2, "0")
    x1 = parse_end(q2, "1")
    assert cone_vs_ultrametric(q2, x0, x1, 6) == (0, 0, True)
    for m in (1, 2, 3, 4):
        pm = parse_end(q2, f"p^{m}")
        agreement, vd, consistent = cone_vs_ultrametric(q2, x0, pm, 6)
        assert (agreement, vd, consistent) == (m, m, True)
        # symmetry
        assert cone_vs_ultrametric(q2, pm, x0, 6) == (m, m, True)
    # beyond the inspected depth the prefix clamps
    agreement, vd, consistent = cone_vs_ultrametric(
        q2, x0, parse_end(q2, "p^5"), 3)
    assert (agreement, vd, consistent) == (3, 5, True)
    with pytest.raises(InvalidSpec):
        cone_vs_ultrametric(q2, x0, parse_end(q2, "0"), 3)


def test_normalized_ends(q5):
    e = normalize_end(q5, q5.from_integer(10), q5.from_integer(2))
    assert q5.eq(e.x, q5.from_integer(5)) and q5.eq(e.y, q5.one)
    e = normalize_end(q5, q5.one, q5.from_integer(5))
    assert q5.eq(e.y, q5.from_integer(5))
    e = normalize_end(q5, q5.one, q5.inv(q5.from_integer(5)))
    # (1 : 1/5) = (5 : 1)
    assert q5.eq(e.x, q5.from_integer(5)) and q5.eq(e.y, q5.one)
    assert ends_equal(q5, parse_end(q5, "inf"), BoundaryPoint(q5.one, ZERO))
    with pytest.raises(InvalidSpec):
        normalize_end(q5, ZERO, ZERO)


def test_cone_correspondence_sampled(q2, q5, l3):
    for field in (q2, q5, l3):
        report = cone_correspondence_report(field, depth=6, pairs=80, seed=4)
        assert report["ok"], report


def test_iwasawa_upper_triangular_case(q5):
    p = q5.uniformizer_power(1)
    g = ((q5.inv(p), ZERO), (ZERO, p))
    result = iwasawa_decompose(q5, g)
    assert result["ok"]
    assert result["k"] == ((q5.one, ZERO), (ZERO, q5.one))
    assert result["b"] == g


def test_iwasawa_rotation_case(q5):
    g = ((ZERO, q5.neg(q5.one)), (q5.one, ZERO))
    result = iwasawa_decompose(q5, g)
    assert result["ok"]
    assert result["k"] == g
    assert result["b"] == ((q5.one, ZERO), (ZERO, q5.one))


def test_iwasawa_requires_det_one(q5):
    g = ((q5.from_integer(2), ZERO), (ZERO, q5.one))
    with pytest.raises(InvalidSpec):
        iwasawa_decompose(q5, g)


def test_sl2_samples_have_det_one(q5, l3):
    rng = random.Random(7)
    for field in (q5, l3):
        for _ in range(50):
            g = sl2_sample(field, rng)
            assert field.eq(mat_det(field, g), field.one)


def test_iwasawa_sampled_reports(q5, l3):
    for field in (q5, l3):
        report = iwasawa_report(field, samples=200, seed=1)
        assert report["ok"], report
        assert report["verified"] == 200
        assert report["exhausted"] == 0


def test_iwasawa_redraws_exhausted_samples():
    # at one digit of precision a few draws run out of digits; each is
    # drawn again, so every requested sample is still decomposed
    field = parse_field_spec("Qp:p=2,prec=1")
    report = iwasawa_report(field, samples=500, seed=1)
    assert report["exhausted"] > 0
    assert report["verified"] == 500
    assert report["ok"] and not report["failures"]


def test_iwasawa_redraws_stop_at_the_cap(q5, monkeypatch):
    def exhausted(field, g):
        raise PrecisionExhausted("no digits left")
    monkeypatch.setattr(btree, "iwasawa_decompose", exhausted)
    report = iwasawa_report(q5, samples=10, seed=1)
    assert report["exhausted"] == 3 * 10 + 30
    assert report["verified"] == 0
    assert not report["ok"]


def test_iwasawa_counts_an_exhausted_draw(q5, monkeypatch):
    # a draw that runs out of digits while it is sampled is counted as
    # exhausted, under the same cap as one exhausted by its decomposition
    def exhausted(field, rng):
        raise PrecisionExhausted("the shift cancelled every digit")
    monkeypatch.setattr(btree, "sl2_sample", exhausted)
    report = iwasawa_report(q5, 10)
    assert report["exhausted"] == 3 * 10 + 30
    assert report["verified"] == 0
    assert not report["ok"]


def test_iwasawa_report_lists_a_refuted_decomposition(q5, monkeypatch):
    # every decomposition comes back with ok false: each of the first five
    # draws is a failure entry with its matrix as strings and its checks
    true_decompose = btree.iwasawa_decompose
    drawn = []

    def refuted(field, g):
        drawn.append(g)
        return {**true_decompose(field, g), "ok": False}

    monkeypatch.setattr(btree, "iwasawa_decompose", refuted)
    report = iwasawa_report(q5, samples=8, seed=1)
    assert not report["ok"]
    assert (report["verified"], report["exhausted"]) == (0, 0)
    assert len(drawn) == 8
    assert report["failures"] == [
        {"sample": k,
         "g": [[q5.format_element(g[i][j]) for j in range(2)]
               for i in range(2)],
         "checks": true_decompose(q5, g)["checks"]}
        for k, g in enumerate(drawn[:5])]


def test_cone_report_lists_an_inconsistent_pair(q5, monkeypatch):
    # every pair is called inconsistent: the first ten are failure entries,
    # each end labelled (x : y)
    true_cone = btree.cone_vs_ultrametric
    pairs = []

    def inconsistent(field, x, y, depth):
        agreement, vd, _ = true_cone(field, x, y, depth)
        pairs.append((x, y, agreement, vd))
        return agreement, vd, False

    monkeypatch.setattr(btree, "cone_vs_ultrametric", inconsistent)
    report = cone_correspondence_report(q5, depth=4, pairs=12, seed=4)
    assert not report["ok"] and report["pairs_checked"] == 12
    label = lambda e: (f"({q5.format_element(e.x)} : "
                       f"{q5.format_element(e.y)})")
    assert report["failures"] == [
        {"x": label(x), "y": label(y), "agreement": agreement,
         "valuation_distance": vd} for x, y, agreement, vd in pairs[:10]]


def test_sampled_reports_refuse_no_samples(q2, q5):
    # with no sample drawn a report would pass having checked nothing
    with pytest.raises(InvalidSpec, match="--samples must be at least 1"):
        iwasawa_report(q5, 0)
    with pytest.raises(InvalidSpec, match="--samples must be at least 1"):
        cone_correspondence_report(q2, 3, 0)


def test_iwasawa_factors_shape(q5):
    rng = random.Random(13)
    for _ in range(25):
        g = sl2_sample(q5, rng)
        result = iwasawa_decompose(q5, g)
        assert result["ok"]
        k, b = result["k"], result["b"]
        assert q5.is_zero(b[1][0])
        assert all(q5.integral(k[i][j]) for i in range(2) for j in range(2))
        back = mat_mul(q5, k, b)
        assert all(q5.eq(back[i][j], g[i][j])
                   for i in range(2) for j in range(2))


def _reference_boundary(field, depth):
    """The projective line over O/pi^depth as its own model, independent
    of the tree: (report, points) with points keyed ("A", x) for (x : 1)
    and ("B", y) for (1 : y), y in pi O."""
    btree._require_local(field)
    if depth < 1:
        raise InvalidSpec("depth must be at least 1")
    if depth > field.prec:
        raise PrecisionExhausted(
            f"depth {depth} exceeds the precision window {field.prec}")

    def reduce(x):
        return field.mod_pi_power(x, depth)

    lifts = residue_lifts(field)
    powers = [field.uniformizer_power(j) for j in range(depth)]
    ideal = [ZERO]                      # pi O / pi^depth O
    for j in range(1, depth):
        ideal = [field.add(x, field.mul(c, powers[j]))
                 for x in ideal for c in lifts]
    ring = [field.add(x, c) for x in ideal for c in lifts]
    points = {("A", reduce(x)) for x in ring}
    points.update(("B", reduce(y)) for y in ideal)
    q = field.residue_q
    expected = q ** (depth - 1) * (q + 1)

    one = reduce(field.one)
    inverses: dict = {}

    def divide(x, y):
        # x / y modulo pi^depth for a unit y, inverses cached by class
        if y == one:
            return x
        inv = inverses.get(y)
        if inv is None:
            inv = inverses[y] = reduce(field.inv(y))
        return reduce(field.mul(x, inv))

    def normalize(x, y):
        x, y = reduce(x), reduce(y)
        if field.valuation(y) == 0:
            return ("A", divide(x, y))
        if field.valuation(x) == 0:
            return ("B", divide(y, x))
        raise InvalidSpec("point is not primitive")

    if field.char == 0:
        steps = [field.one]
    else:
        steps = [field.mul(field.residue_lift(field.p ** i), powers[j])
                 for j in range(depth)
                 for i in range(field.residue_field.degree)]
    gens = []
    for s in steps:
        for sign in (s, field.neg(s)):
            gens.append(("E12", sign))
            gens.append(("E21", sign))

    def apply(gen, pt):
        name, s = gen
        x, y = (pt[1], one) if pt[0] == "A" else (one, pt[1])
        if name == "E12":
            return normalize(field.add(x, field.mul(s, y)), y)
        return normalize(x, field.add(y, field.mul(s, x)))

    remaining = set(points)
    orbits = []
    while remaining:
        start = remaining.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            pt = frontier.pop()
            for gen in gens:
                img = apply(gen, pt)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbits.append(len(orbit))
    return {
        "field": field.describe(),
        "depth": depth,
        "classes": len(points),
        "expected_classes": expected,
        "orbit_count": len(orbits),
        "orbit_sizes": sorted(orbits, reverse=True),
        "generators": len(gens),
        "ok": len(points) == expected and len(orbits) == 1,
    }, points


REFERENCE_CASES = (
    [(f"Qp:p={p},prec=8", d) for p in (2, 3, 5) for d in (1, 2, 3, 4)]
    + [("Laurent:q=3,prec=8", 3), ("Laurent:q=4,prec=8", 3),
       ("Laurent:q=8,prec=4", 2), ("Laurent:q=9,prec=4", 2),
       ("Laurent:q=4,prec=4", 4), ("Laurent:q=2,prec=6", 6),
       ("Qp:p=2,prec=4", 4), ("Qp:p=7,prec=3", 3)])


@pytest.mark.parametrize("spec, depth", REFERENCE_CASES)
def test_boundary_check_matches_reference_model(spec, depth):
    field = parse_field_spec(spec)
    expected, _ = _reference_boundary(field, depth)
    report = boundary_transitivity_check(field, depth)
    assert json.dumps(report) == json.dumps(expected)


@pytest.mark.parametrize("spec, depth", [
    ("Qp:p=2,prec=8", 3), ("Qp:p=5,prec=8", 4), ("Laurent:q=4,prec=8", 3),
    ("Laurent:q=2,prec=6", 6)])
def test_reference_points_are_the_sphere(spec, depth):
    # e -> the depth-th vertex of the ray toward e is one-to-one from the
    # reference points onto the vertices at distance depth
    field = parse_field_spec(spec)
    _, points = _reference_boundary(field, depth)
    ends = [BoundaryPoint(x, field.one) if tag == "A"
            else BoundaryPoint(field.one, x) for tag, x in points]
    image = {ray_to_end(field, e, depth)[depth] for e in ends}
    ball = build_tree_ball(field, depth)
    sphere = {ball.vertex(i) for i in ball.level(depth)}
    assert len(image) == len(points)
    assert image == sphere


def test_boundary_orbit_splits_without_deep_steps(monkeypatch):
    # E12 and E21 with constant entries only: SL2(F_4) is not transitive
    # on the projective line over F_4[t]/t^3
    field = parse_field_spec("Laurent:q=4,prec=8")
    steps = btree._elementary_steps
    monkeypatch.setattr(btree, "_elementary_steps",
                        lambda f, depth: steps(f, 1))
    report = boundary_transitivity_check(field, 3)
    assert report["classes"] == report["expected_classes"] == 80
    assert report["generators"] == 8
    assert report["orbit_count"] > 1
    assert not report["ok"]


@pytest.mark.parametrize("spec, depth", [("Laurent:q=4,prec=8", 3),
                                         ("Qp:p=3,prec=8", 2)])
def test_boundary_images_off_the_sphere_fail(monkeypatch, spec, depth):
    # a non-integral entry pi^-1 moves sphere vertices off the sphere; the
    # other steps still join the sphere into one orbit
    field = parse_field_spec(spec)
    steps = btree._elementary_steps
    monkeypatch.setattr(btree, "_elementary_steps", lambda f, d: (
        steps(f, d) + [f.uniformizer_power(-1)]))
    report = boundary_transitivity_check(field, depth)
    assert report["orbit_count"] == 1
    assert report["classes"] == report["expected_classes"]
    assert not report["ok"]


def test_boundary_transitivity_counts(q2, l3):
    report = boundary_transitivity_check(q2, 2)
    assert report["ok"]
    assert report["classes"] == 6
    assert report["orbit_count"] == 1
    report = boundary_transitivity_check(q2, 1)
    assert report["classes"] == 3
    assert report["ok"]
    report = boundary_transitivity_check(l3, 3)
    assert report["ok"]
    assert report["classes"] == 9 * 4


@pytest.mark.parametrize("q, m, depth", [(4, 2, 1), (4, 2, 2), (4, 2, 3),
                                          (9, 2, 2)])
def test_boundary_transitivity_non_prime_residue_fields(q, m, depth):
    field = parse_field_spec(f"Laurent:q={q},prec=8")
    report = boundary_transitivity_check(field, depth)
    assert report["classes"] == q ** (depth - 1) * (q + 1)
    assert report["orbit_count"] == 1
    assert report["generators"] == 4 * depth * m
    assert report["ok"]


def test_boundary_generators_in_characteristic_zero(q5):
    # Z/p^d is cyclic: +-1 in each of the two elementary positions
    for depth in (1, 3):
        assert boundary_transitivity_check(q5, depth)["generators"] == 4


def test_boundary_transitivity_depths(q5):
    for depth in (1, 2, 3):
        report = boundary_transitivity_check(q5, depth)
        assert report["ok"], report
        assert report["classes"] == 5 ** (depth - 1) * 6


def test_dot_export(q2):
    ball = build_tree_ball(q2, 2)
    text = ball.dot()
    assert text.startswith("graph tree_ball {")
    assert text.count(" -- ") == len(ball_edges(ball))
    assert text.count("label=") == len(ball.codes)
