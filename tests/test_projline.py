import random

import pytest

from buildinglab import projline
from buildinglab.errors import InvalidSpec
from buildinglab.localfield import (
    LaurentField,
    PadicField,
    finite_field,
    parse_element,
)
from buildinglab.projline import (
    INF,
    _half,
    hua_triple_product,
    iota,
    parse_point,
    pl_add,
    pl_eq,
    pl_inv,
    pl_neg,
    recover_multiplication,
    recover_square,
    recovery_check,
    triple_product,
)


def all_points(F):
    return [INF] + list(range(F.q))


def test_extended_conventions():
    F = finite_field(7)
    assert pl_inv(F, F.zero) is INF
    assert pl_inv(F, INF) == F.zero
    assert pl_neg(F, INF) is INF
    for a in range(F.q):
        assert pl_add(F, a, INF) is INF
    assert iota(F, F.zero) is INF
    assert iota(F, INF) == F.zero


def test_generators():
    F = finite_field(7)
    for x in all_points(F):
        assert iota(F, iota(F, x)) == x or iota(F, iota(F, x)) is x
        for a in range(F.q):
            for b in range(F.q):
                # translations compose additively
                assert (pl_add(F, a, pl_add(F, b, x))
                        == pl_add(F, F.add(a, b), x))
    # x -> 1 + iota(3 + x) at 2: 1 - 1/5 = 1 + 4 = 5
    assert pl_add(F, 1, iota(F, pl_add(F, 3, 2))) == 5


def test_hua_exhaustive_f5():
    """Freeze the triple-product formula over all of P^1(F5) x P^1(F5),
    covering the degenerate products 0 and -1 where intermediates pass
    through infinity."""
    F = finite_field(5)
    for x in all_points(F):
        for y in all_points(F):
            out = hua_triple_product(F, x, y)  # total on the whole square
            if x is INF or y is INF:
                continue
            assert out == F.mul(F.mul(x, y), x)
    # spot the two degenerate families explicitly
    for x in range(F.q):
        assert hua_triple_product(F, x, F.zero) == F.zero
        if x:
            y = F.neg(F.inv(x))  # x*y = -1
            assert hua_triple_product(F, x, y) == F.neg(x)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9])
def test_hua_exhaustive_small_fields(q):
    F = finite_field(q)
    for x in range(F.q):
        for y in range(F.q):
            assert hua_triple_product(F, x, y) == F.mul(F.mul(x, y), x)


@pytest.mark.parametrize("q", [4, 5])
def test_triple_product_is_the_identity_on_finite_fields(q):
    # exact arithmetic: the defining values at y in {0, inf} are the
    # identity's, and its terms agree there
    F = finite_field(q)
    for x in all_points(F):
        for y in all_points(F):
            value, held = triple_product(F, x, y)
            assert held
            assert pl_eq(F, value, hua_triple_product(F, x, y))


LOCAL_X = ([(PadicField(5, 6), text) for text in ("2", "-3", "7*pi^2", "5")]
           + [(LaurentField(3, 5), text) for text in ("t^2+t^-1", "2*t", "1")])


@pytest.mark.parametrize("F, text", LOCAL_X)
def test_triple_product_at_exact_zero_and_infinity(F, text):
    x = parse_element(F, text)
    value, held = triple_product(F, x, F.zero)
    assert held and value is F.zero
    assert pl_eq(F, value, F.mul(F.mul(x, F.zero), x))
    assert triple_product(F, x, INF) == (INF, True)


@pytest.mark.parametrize("at_inf", [False, True], ids=["zero", "inf"])
@pytest.mark.parametrize("F, text", LOCAL_X)
def test_triple_product_terms_catch_a_wrong_convention(F, text, at_inf,
                                                       monkeypatch):
    # send y to 1 under inversion: the defining value stays, the identity's
    # terms at y no longer agree
    y = INF if at_inf else F.zero
    original = pl_inv

    def y_to_one(field, x):
        return field.one if pl_eq(field, x, y) else original(field, x)
    monkeypatch.setattr(projline, "pl_inv", y_to_one)
    _, held = triple_product(F, parse_element(F, text), y)
    assert not held


def test_square_two_routes():
    F = finite_field(7)
    for x in all_points(F):
        direct = recover_square(F, x)
        if x is INF:
            assert direct is INF
            continue
        assert direct == F.mul(x, x)
        if not F.is_zero(x):
            # x^2 = -iota(iota(x)^2) away from 0
            via_inv = pl_neg(F, iota(F, recover_square(F, iota(F, x))))
            assert via_inv == direct


def test_recover_multiplication_f7():
    F = finite_field(7)
    assert recover_multiplication(F, 3, 5) == 1
    for x in range(F.q):
        for y in range(F.q):
            assert recover_multiplication(F, x, y) == F.mul(x, y)


def test_recover_multiplication_f4_char2():
    F = finite_field(4)
    w = F.generator()
    # w * w = w^2 = w + 1, recovered through sqrt(w * w^2 * w) = sqrt(w^4)
    assert recover_multiplication(F, w, w) == F.add(w, 1)
    for x in range(F.q):
        for y in range(F.q):
            assert recover_multiplication(F, x, y) == F.mul(x, y)


@pytest.mark.parametrize("F", [finite_field(9), PadicField(2, 8),
                               PadicField(5, 8), LaurentField(3, 8)])
def test_half_is_computed_once_per_field(F):
    attributes = set(vars(F))
    assert F.eq(recover_multiplication(F, F.one, F.one), F.one)
    assert _half(F) is _half(F)
    assert F.eq(F.add(_half(F), _half(F)), F.one)
    # nothing is stored on the field object after __init__
    assert set(vars(F)) == attributes


def test_recover_multiplication_rejects_inf():
    F = finite_field(5)
    with pytest.raises(InvalidSpec):
        recover_multiplication(F, INF, 2)


def test_recover_multiplication_local_samples():
    rng = random.Random(5)
    for F in (PadicField(5, 8), LaurentField(3, 8), LaurentField(2, 8)):
        for _ in range(60):
            x = F.random_element(rng, min_val=-2, max_val=2)
            y = F.random_element(rng, min_val=-2, max_val=2)
            assert F.eq(recover_multiplication(F, x, y), F.mul(x, y))
            assert F.eq(hua_triple_product(F, x, y),
                        F.mul(F.mul(x, y), x))


@pytest.mark.parametrize("spec_field", [
    finite_field(7),
    finite_field(4),
    PadicField(5, 8),
    LaurentField(3, 8),
])
def test_recovery_check_reports(spec_field):
    report = recovery_check(spec_field, pairs=120, seed=9)
    assert report["ok"], report["failures"][:3]
    assert report["pairs_compared"] >= 120
    assert report["failures"] == []


def test_recovery_check_refuses_no_pairs():
    with pytest.raises(InvalidSpec, match="--samples must be at least 1"):
        recovery_check(finite_field(7), 0, 1)


def test_parse_point():
    F = PadicField(5, 8)
    assert parse_point(F, "inf") is INF
    assert F.eq(parse_point(F, "7*pi^2"), parse_element(F, "7*pi^2"))
