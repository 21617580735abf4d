import ast
import random
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildinglab.errors import (
    DivisionByZero,
    FrobeniusNotInvertible,
    InvalidSpec,
    PrecisionExhausted,
)
from buildinglab import localfield
from buildinglab.localfield import (
    INFINITY,
    MAX_PRECISION,
    ZERO,
    FiniteField,
    LaurentField,
    LocalElement,
    PadicField,
    _LocalBase,
    classify,
    finite_field,
    parse_element,
    parse_field_spec,
)


# ---------------------------------------------------------------------------
# finite fields

def test_f7_arithmetic():
    F = finite_field(7)
    assert F.mul(3, 5) == 1
    assert F.add(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(3) == 4
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_f4_structure():
    F = finite_field(4)
    w = F.generator()
    # modulus is w^2 + w + 1, so w^2 = w + 1
    assert F.mul(w, w) == F.add(w, 1)
    assert F.pow(w, 3) == 1
    # x -> x^2 has order 2 on F_4, so it is its own inverse
    assert F.frobenius_inv(w) == F.mul(w, w)
    assert F.frobenius_inv(F.mul(w, w)) == w
    # characteristic 2: negation is the identity
    for a in range(F.q):
        assert F.neg(a) == a


def test_f9_field_axioms_exhaustive():
    F = finite_field(9)
    elems = list(range(F.q))
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in elems:
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[::3]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_additive_finite():
    for q in (4, 8, 9, 169, 256):
        F = finite_field(q)
        for a in range(F.q):
            assert F.frobenius_inv(F.pow(a, F.p)) == a
        if q < 16:
            for a in range(F.q):
                for b in range(F.q):
                    assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p),
                                                            F.pow(b, F.p))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_tables_match_coefficient_arithmetic(q):
    """The add/neg/mul tables against coefficient-wise arithmetic on the
    decoded polynomials, and pow against repeated multiplication."""
    F = finite_field(q)
    p = F.p
    for a in range(F.q):
        ca = F._decode(a)
        assert F.neg(a) == F._encode([-x for x in ca])
        power = 1
        for n in range(2 * p + 1):
            assert F.pow(a, n) == power
            power = F.mul(power, a)
        for b in range(F.q):
            cb = F._decode(b)
            assert F.add(a, b) == F._encode([x + y for x, y in zip(ca, cb)])
            assert F.sub(a, b) == F._encode([x - y for x, y in zip(ca, cb)])
            assert F.mul(a, b) == F._poly_mul(a, b)
            if b:
                assert F.mul(F.div(a, b), b) == a


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_larger_finite_fields_are_fields(q):
    """Inverses, x^q = x, a generator of the multiplicative group, and an
    F_p-basis: a reducible modulus breaks the first three, a wrong basis
    the last."""
    F = finite_field(q)
    for a in range(F.q):
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, q) == a
    orders = set()
    for a in range(1, q):
        x, n = a, 1
        while x != 1:
            x, n = F.mul(x, a), n + 1
        orders.add(n)
    assert q - 1 in orders
    combos = {0}
    for b in F.basis():
        combos = {F.add(c, F.mul(F.from_integer(k), b))
                  for c in combos for k in range(F.p)}
    assert len(combos) == q


def test_not_prime_power():
    with pytest.raises(InvalidSpec):
        finite_field(6)
    with pytest.raises(InvalidSpec):
        finite_field(1)


# ---------------------------------------------------------------------------
# p-adic model

@pytest.fixture(scope="module")
def q5():
    return PadicField(5, 12)


def test_valuation_of_products(q5):
    a = q5.from_integer(25)
    b = q5.from_integer(7)
    assert q5.valuation(q5.mul(a, b)) == 2
    assert q5.valuation(q5.from_integer(0)) == INFINITY


def test_inv_of_uniformizer(q5):
    x = q5.inv(q5.from_integer(5))
    assert q5.valuation(x) == -1
    # 5 * (1/5) = 1 exactly
    assert q5.eq(q5.mul(x, q5.from_integer(5)), q5.one)
    assert x.exact and x.mant == 1


def test_exact_cancellation(q5):
    x = q5.from_integer(17)
    anti = q5.neg(x)
    assert q5.is_zero(q5.add(x, anti))
    assert q5.valuation(q5.add(x, anti)) == INFINITY


def test_precision_exhausted_on_inexact_cancellation(q5):
    # inv(3) is inexact; subtracting it from itself leaves no known digit
    x = q5.inv(q5.from_integer(3))
    assert not x.exact
    with pytest.raises(PrecisionExhausted):
        q5.sub(x, x)
    # equality on the common window still holds
    assert q5.eq(x, x)


def test_negative_integers_are_exact(q5):
    x = q5.from_integer(-1)
    assert x.exact
    y = q5.add(x, q5.one)
    assert q5.is_zero(y)
    # -1 has the all-(p-1) expansion when reduced to a window
    w = q5.mod_pi_power(x, 3)
    assert w.exact and w.mant == 124  # 4 + 4*5 + 4*25


def test_padic_mod_pi_power(q5):
    x = q5.from_integer(7 * 125 + 3)  # 878 = 3 + 0*5 + 0*25 + 7*125 ...
    assert q5.mod_pi_power(x, 3).mant == 3
    assert q5.is_zero(q5.mod_pi_power(q5.from_integer(125), 3))
    y = q5.inv(q5.from_integer(7))
    # 1/7 is integral and its digits are known to prec, so reduction works
    r = q5.mod_pi_power(y, 4)
    assert r.exact
    assert q5.eq(q5.mod_pi_power(q5.mul(q5.from_integer(7), r), 4), q5.one)


def test_ultrametric_inequality_padic(q5):
    rng = random.Random(7)
    for _ in range(300):
        x = q5.random_element(rng)
        y = q5.random_element(rng)
        try:
            s = q5.add(x, y)
        except PrecisionExhausted:
            continue
        vx, vy = q5.valuation(x), q5.valuation(y)
        assert q5.valuation(s) >= min(vx, vy)
        if vx != vy:
            assert q5.valuation(s) == min(vx, vy)


# ---------------------------------------------------------------------------
# Laurent model

@pytest.fixture(scope="module")
def f3t():
    return LaurentField(3, 8)


def test_laurent_examples(f3t):
    x = parse_element(f3t, "t^-3+t")
    assert f3t.valuation(x) == -3
    tinv = parse_element(f3t, "t^-1")
    assert f3t.is_zero(f3t.add(tinv, f3t.neg(tinv)))
    assert f3t.valuation(ZERO) == INFINITY


def test_laurent_inverse_series(f3t):
    x = parse_element(f3t, "1+t")
    y = f3t.inv(x)
    assert f3t.eq(f3t.mul(x, y), f3t.one)
    # geometric series 1 - t + t^2 - ... = 1 + 2t + t^2 + 2t^3 ... mod 3
    assert f3t.element_json(y)["digits"][:4] == [1, 2, 1, 2]


def test_laurent_precision_exhausted(f3t):
    x = f3t.inv(parse_element(f3t, "1+t+t^2"))
    assert not x.exact
    with pytest.raises(PrecisionExhausted):
        f3t.sub(x, x)
    assert f3t.eq(x, x)


def test_laurent_frobenius_additive(f3t):
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        x = f3t.random_element(rng)
        y = f3t.random_element(rng)
        lhs = _frobenius(f3t, f3t.add(x, y))
        try:
            rhs = f3t.add(_frobenius(f3t, x), _frobenius(f3t, y))
        except PrecisionExhausted:
            # cusp of the window: the capped operands cancelled every
            # known digit, which is a no-information answer, not a value
            assert f3t.valuation(lhs) >= _frobenius(f3t, x).v + f3t.prec
            continue
        checked += 1
        assert f3t.eq(lhs, rhs)
    assert checked > 150


def test_laurent_frobenius_roundtrip(f3t):
    rng = random.Random(13)
    for _ in range(100):
        x = f3t.random_element(rng)
        y = _frobenius(f3t, x)
        back = f3t.frobenius_inv(y)
        assert f3t.eq(back, x)


def test_frobenius_not_invertible(f3t):
    with pytest.raises(FrobeniusNotInvertible):
        f3t.frobenius_inv(parse_element(f3t, "t"))
    with pytest.raises(FrobeniusNotInvertible):
        f3t.frobenius_inv(parse_element(f3t, "1+t"))


def _from_coeffs(field, v, coeffs):
    """Exact element sum coeffs[i] * t^(v+i), coefficients as residue
    codes."""
    return field._make(v, field._pack(coeffs), None)


# The index check [F : F^p] = p that stood in localfield, kept as a test of
# the Laurent Frobenius against the residue field's inverse Frobenius.
def _frobenius_index_check(field, samples):
    """Decompose each sample as sum_{0<=i<p} (a_i)^p t^i and verify the
    reconstruction; the p summands witness that 1, t, ..., t^(p-1) span the
    field over its p-th powers, so the index [F : F^p] equals p = char."""
    p = field.p
    witnesses = []
    for x in samples:
        parts = [ZERO] * p
        if not field.is_zero(x):
            for idx, c in enumerate(field.coefficients(x)):
                if c:
                    e = x.v + idx
                    root = field.residue_lift(field.k.frobenius_inv(c))
                    parts[e % p] = field.add(parts[e % p], field.mul(
                        root, field.uniformizer_power(e // p)))
        recon = ZERO
        for i, a in enumerate(parts):
            term = field.mul(_frobenius(field, a), field.uniformizer_power(i))
            recon = field.add(recon, term)
        witnesses.append({
            "parts": [field.format_element(a) for a in parts],
            "ok": field.eq(recon, x),
        })
    return {"degree": p, "checked": len(samples),
            "ok": all(w["ok"] for w in witnesses), "witnesses": witnesses}


def test_frobenius_index_check_f2():
    F = LaurentField(2, 10)
    x = parse_element(F, "t^3+t^2")
    report = _frobenius_index_check(F, [x])
    assert report["degree"] == 2
    assert report["ok"]
    # t^3 + t^2 = (t)^2 * t + (t)^2 * 1: parts are (a_0, a_1) = (t, t)
    assert report["witnesses"][0]["parts"] == ["t", "t"]


def test_frobenius_index_check_random():
    F = LaurentField(9, 9)
    rng = random.Random(3)
    samples = [F.random_element(rng) for _ in range(40)] + [ZERO]
    report = _frobenius_index_check(F, samples)
    assert report["ok"]
    assert report["degree"] == 3
    assert report["checked"] == 41


# ---------------------------------------------------------------------------
# the packed Laurent kernels against schoolbook coefficient arithmetic: the
# reference works on lists of residue codes through the residue field's
# tables, one coefficient pair at a time

def _ref_make(F, v, coeffs, known):
    if known is not None:
        coeffs = coeffs[:known]
    lead, end = 0, len(coeffs)
    while lead < end and not coeffs[lead]:
        lead += 1
    if lead == end:
        if known is None:
            return ZERO
        raise PrecisionExhausted("every known digit cancelled")
    if known is None:
        while not coeffs[end - 1]:
            end -= 1
        known = end - lead
        if known <= F.prec:
            return (v + lead, tuple(coeffs[lead:end]), known, True)
    else:
        known -= lead
    known = min(known, F.prec)
    kept = tuple(coeffs[lead:lead + known])
    return (v + lead, kept + (0,) * (known - len(kept)), known, False)


def _ref(F, a):
    """a as (v, codes, digits, exact), or ZERO."""
    if F.is_zero(a):
        return ZERO
    return (a.v, tuple(F.coefficients(a)), a.digits, a.exact)


def _known_sum(a, b, v):
    """Relative width, from exponent v, that a + b determines: every digit
    below the lowest unknown digit of an inexact operand (None: both
    exact)."""
    if a.exact:
        return None if b.exact else b.v + b.digits - v
    if b.exact:
        return a.v + a.digits - v
    return min(a.v + a.digits, b.v + b.digits) - v


def _ref_add(F, a, b, negate=False):
    """a + b, or a - b with `negate`, coefficient by coefficient."""
    if b.mant is None:
        return _ref(F, a)
    if a.mant is None:
        return _ref_neg(F, b) if negate else _ref(F, b)
    bm = F.coefficients(b)
    if negate:
        bm = [F.k.neg(c) for c in bm]
    am = F.coefficients(a)
    if a.v > b.v:
        a, b, am, bm = b, a, bm, am
    known = _known_sum(a, b, a.v)
    off = b.v - a.v
    width = max(len(am), off + len(bm))
    if known is not None:
        width = min(width, known)
    out = list(am[:width]) + [0] * (width - len(am))
    for i in range(off, min(width, off + len(bm))):
        out[i] = F.k.add(out[i], bm[i - off])
    return _ref_make(F, a.v, out, known)


def _ref_mul(F, a, b):
    if a.mant is None or b.mant is None:
        return ZERO
    known = F._known_product(a, b)
    am, bm = F.coefficients(a), F.coefficients(b)
    width = len(am) + len(bm) - 1
    if known is not None:
        width = min(width, known)
    out = [0] * width
    for i, x in enumerate(am[:width]):
        for n, y in enumerate(bm[:width - i], i):
            out[n] = F.k.add(out[n], F.k.mul(x, y))
    return _ref_make(F, a.v + b.v, out, known)


def _ref_inv(F, a):
    if a.mant is None:
        raise DivisionByZero("inverse of 0")
    k, c = F.k, F.coefficients(a)
    if a.exact and len(c) == 1:
        return (-a.v, (k.inv(c[0]),), 1, True)
    digits = F.prec if a.exact else a.digits
    lead_inv = k.inv(c[0])
    out = [lead_inv]
    for n in range(1, digits):
        acc = 0
        for j in range(1, min(n, len(c) - 1) + 1):
            acc = k.add(acc, k.mul(c[j], out[n - j]))
        out.append(k.mul(k.neg(lead_inv), acc))
    return _ref_make(F, -a.v, out, digits)


def _ref_frobenius(F, a):
    """x -> x^p: additive in characteristic p, and a p-th power of each
    coefficient (the map is test-only; the package keeps its inverse)."""
    if a.mant is None:
        return ZERO
    p, c = F.p, F.coefficients(a)
    known = None if a.exact else a.digits * p
    width = (len(c) - 1) * p + 1
    if known is not None:
        width = min(width, known)
    out = [0] * width
    for i, x in enumerate(c):
        if i * p < width:
            out[i * p] = F.k.pow(x, p)
    return _ref_make(F, a.v * p, out, known)


def _ref_frobenius_inv(F, a):
    if a.mant is None:
        return ZERO
    p, c = F.p, F.coefficients(a)
    if a.v % p or any(x and (a.v + i) % p for i, x in enumerate(c)):
        raise FrobeniusNotInvertible("not a p-th power")
    out = [F.k.frobenius_inv(x) for x in c[::p]]
    known = None if a.exact else (a.v + a.digits + p - 1) // p - a.v // p
    return _ref_make(F, a.v // p, out, known)


def _frobenius(F, a):
    """`_ref_frobenius` as an element."""
    out = _ref_frobenius(F, a)
    if out is ZERO:
        return ZERO
    v, codes, digits, exact = out
    return LocalElement(v, F._pack(codes), digits, exact)


def _ref_neg(F, a):
    if a.mant is None:
        return ZERO
    return (a.v, tuple(map(F.k.neg, F.coefficients(a))), a.digits, a.exact)


def _outcome(F, fn, *args):
    """The result as (v, codes, digits, exact), or the error class."""
    try:
        out = fn(*args)
    except (PrecisionExhausted, DivisionByZero, FrobeniusNotInvertible) as exc:
        return type(exc)
    return _ref(F, out) if isinstance(out, LocalElement) else out


def _kernel_operands(F, rng):
    """Exact operands (full windows, short polynomials, powers of t) and
    inexact ones (inverses, and windows cut short by a subtraction).  Times
    `top` (every code the largest), `edge` fills a slot to the bound: its
    first block of lanes leaves the reduced digit p - 1, then each of its
    next `_block` lanes adds m (p-1)^2."""
    top = _from_coeffs(F, 0, [F.q - 1] * F.prec)
    edge = _from_coeffs(F, 0, [1] + [0] * (F._block - 1)
                         + [F.q - 1] * (F.prec - F._block))
    xs = [ZERO, F.one, F.uniformizer_power(-3), top, edge, F.inv(top),
          F.inv(edge)]
    xs += [F.random_element(rng, -3, 3) for _ in range(4)]
    xs += [_from_coeffs(F, rng.randint(-3, 3),
                         [rng.randrange(1, F.q)] + [rng.randrange(F.q)
                                                    for _ in range(2)])
           for _ in range(2)]
    for x in xs[3:6]:
        y = F.inv(x)
        xs.append(y)
        try:
            xs.append(F.sub(y, F.mod_pi_power(y, y.v + rng.randint(1, 3))))
        except PrecisionExhausted:
            pass
    return xs


@pytest.mark.parametrize("prec", [1, 4, 8, 80])
@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17, 169])
def test_packed_kernels_match_schoolbook(q, prec):
    """Every field size: one-byte slots with one block (q = 2, 4, 8) or
    with products split in blocks (q = 3, 9 and 16 at prec 80, q = 7), and
    two-byte slots (q = 17, and q = 169 with two digits)."""
    F = LaurentField(q, prec)
    rng = random.Random(97 * q + prec)
    xs = _kernel_operands(F, rng)
    for a in xs:
        assert _outcome(F, F.neg, a) == _outcome(F, _ref_neg, F, a)
        assert _outcome(F, F.inv, a) == _outcome(F, _ref_inv, F, a)
        assert _outcome(F, F.frobenius_inv, a) == _outcome(
            F, _ref_frobenius_inv, F, a)
        if not F.is_zero(a):
            fa = _frobenius(F, a)
            assert _outcome(F, F.frobenius_inv, fa) == _outcome(
                F, _ref_frobenius_inv, F, fa)
        for b in xs + [F.neg(a)]:
            assert _outcome(F, F.add, a, b) == _outcome(F, _ref_add, F, a, b)
            assert _outcome(F, F.mul, a, b) == _outcome(F, _ref_mul, F, a, b)


@pytest.mark.parametrize("q", [3, 4, 9])
def test_inverse_of_a_dense_series_past_the_block(q):
    """1 + (q-1)(t + t^2 + ...) has a dense inverse, so lane n of c * out
    sums about n large products: over 2 `_block` steps a slot passes its
    byte unless `inv` reduces it every `_block` steps."""
    prec = 2 * LaurentField(q, 1)._block
    F = LaurentField(q, prec)
    x = _from_coeffs(F, 0, [1] + [q - 1] * (prec - 1))
    assert _ref(F, F.inv(x)) == _ref_inv(F, x)


@pytest.mark.parametrize("q", [17, 169])
def test_blocked_products_on_two_byte_slots(q):
    """Two-byte slots have no mod-p byte table: past `_block` lanes a
    product reduces its running sum before each block, and an inverse
    reduces at every step.  All-top and dense operands fill each slot
    to the bound within a block."""
    prec = 2 * LaurentField(q, 1)._block
    F = LaurentField(q, prec)
    assert F._mod_p is None
    top = _from_coeffs(F, 0, [q - 1] * prec)
    dense = _from_coeffs(F, 0, [1] + [q - 1] * (prec - 1))
    xs = [top, dense, F.inv(top), F.inv(dense)]
    for a in xs[:2]:
        assert _ref(F, F.inv(a)) == _ref_inv(F, a)
    for a in xs:
        for b in xs:
            assert _ref(F, F.mul(a, b)) == _ref_mul(F, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17])
def test_packed_form_is_the_same_at_every_precision(q):
    """Exact values of at most 4 digits, built at precision 4 and 80."""
    rng = random.Random(q)
    low, high = LaurentField(q, 4), LaurentField(q, 80)
    for _ in range(20):
        v, w = rng.randint(-3, 3), rng.randint(-3, 3)
        a = [rng.randrange(1, q), rng.randrange(q)]
        b = [rng.randrange(1, q), rng.randrange(q), rng.randrange(1, q)]
        x_low, x_high = (_from_coeffs(F, v, a) for F in (low, high))
        y_low, y_high = (_from_coeffs(F, w, b) for F in (low, high))
        z_low, z_high = (_from_coeffs(F, v + 1, b) for F in (low, high))
        pairs = [(x_low, x_high), (low.neg(y_low), high.neg(y_high)),
                 (low.mul(x_low, y_low), high.mul(x_high, y_high)),
                 (low.add(x_low, z_low), high.add(x_high, z_high))]
        for x, y in pairs:
            assert x.exact and x == y


# ---------------------------------------------------------------------------
# shared semantics across local models

def _tracing_constants() -> dict:
    """The module-level tuples of bench/tracing.py, read without importing
    it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench"
                      / "tracing.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)}


_TRACED = _tracing_constants()


# bench/tracing.py counts the calls of each model's ring operations by
# patching vars(cls)[op] on the field classes it names, so an operation
# only inherited from a base class would break the traced benchmark run;
# `sub` is bound too, so that the tracer can count it with no src/ change
@pytest.mark.parametrize("name", _TRACED["FIELD_CLASSES"])
def test_ring_operations_stay_in_each_field_class(name):
    cls = getattr(localfield, name)
    assert {*_TRACED["FIELD_OPS"], "sub"} <= vars(cls).keys()


@pytest.mark.parametrize("cls", [PadicField, LaurentField])
def test_sums_and_equality_are_written_once(cls):
    # the local models bind the base's own add, sub and mul, and inherit
    # eq; each supplies only its mantissa product _times
    for op in ("add", "sub", "mul", "eq"):
        assert getattr(cls, op) is vars(_LocalBase)[op]


@pytest.mark.parametrize("F", [PadicField(3, 6), PadicField(251, 3),
                               LaurentField(4, 6), LaurentField(17, 3)])
def test_sum_hooks_shift_and_window_by_radix_powers(F):
    # the shared add, sub and eq rest on these: _up shifts a mantissa k
    # digits up, _low is zero exactly on multiples of radix^k, and
    # _neg_unit negates a mantissa (up to the slot reduction of _make)
    rng = random.Random(7)
    for _ in range(20):
        mant = F._random_unit(rng)
        for k in range(F.prec + 1):
            power = F._radix ** k
            assert F._up(mant, F._shift[k]) == mant * power
            for sign in (1, -1):  # a difference of mantissas may be < 0
                assert not F._low(sign * mant * power, F._window[k])
                if k:
                    off = sign * (mant * power + F._radix ** (k - 1))
                    assert F._low(off, F._window[k])
        a = F._make(0, mant, None)
        assert F._make(0, mant * F._neg_unit, None) == F.neg(a)


@pytest.mark.parametrize("make", [
    lambda: PadicField(5, 8),
    lambda: PadicField(2, 8),
    lambda: LaurentField(3, 8),
    lambda: LaurentField(4, 8),
])
def test_ring_axioms_on_exact_samples(make):
    F = make()
    rng = random.Random(42)
    xs = [F.random_element(rng) for _ in range(25)]
    for i, x in enumerate(xs):
        assert F.eq(F.mul(x, F.inv(x)), F.one)
        assert F.is_zero(F.add(x, F.neg(x)))
        y = xs[(i * 7 + 3) % len(xs)]
        z = xs[(i * 5 + 1) % len(xs)]
        assert F.eq(F.mul(x, y), F.mul(y, x))
        try:
            lhs = F.mul(x, F.add(y, z))
            rhs = F.add(F.mul(x, y), F.mul(x, z))
        except PrecisionExhausted:
            continue
        assert F.eq(lhs, rhs)
        assert F.valuation(F.mul(x, y)) == F.valuation(x) + F.valuation(y)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_integer_embedding_is_homomorphic(n, m):
    F = PadicField(5, 10)
    assert F.eq(F.from_integer(n + m), F.add(F.from_integer(n), F.from_integer(m)))
    assert F.eq(F.from_integer(n * m), F.mul(F.from_integer(n), F.from_integer(m)))


def _residue(F, a):
    """Residue code of an integral a: its digit at pi^0."""
    assert F.integral(a)
    if F.is_zero(a) or a.v > 0:
        return 0
    return a.mant % F.p if F.char == 0 else F.coefficients(a)[0]


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_residue_map_is_multiplicative(i, j):
    F = LaurentField(9, 8)
    k = F.residue_field
    rng = random.Random(i * 67 + j)
    x = F.random_element(rng, min_val=0, max_val=2)
    y = F.random_element(rng, min_val=0, max_val=2)
    rx, ry = _residue(F, x), _residue(F, y)
    assert _residue(F, F.mul(x, y)) == k.mul(rx, ry)
    assert _residue(F, F.add(x, y)) == k.add(rx, ry)


@pytest.mark.parametrize("F", [PadicField(5, 4), LaurentField(9, 4)])
def test_residue_lift_is_an_exact_section(F):
    for code in range(F.residue_field.q):
        lift = F.residue_lift(code)
        assert _residue(F, lift) == code
        assert F.mod_pi_power(lift, 1) == lift
        assert F.is_zero(lift) == (code == 0)


@pytest.mark.parametrize("F", [PadicField(5, 8), LaurentField(4, 8)])
def test_digit_codes_are_digit_strings(F):
    # canonical representatives modulo pi^3 coded from exponent -2: the
    # code of b + c pi^k, c a residue lift, is code(b) + code(c) R^(k+2)
    radix = F.digit_code(F.uniformizer_power(1), 0)
    lifts = [F.residue_lift(c) for c in range(F.residue_q)]
    rng = random.Random(5)
    for _ in range(50):
        b = F.mod_pi_power(F.random_element(rng, min_val=-1, max_val=2), 3)
        n = F.digit_code(b, -2)
        assert F.from_digit_code(n, -2) == b
        k = rng.randrange(3, 5)
        c = rng.choice(lifts)
        step = F.add(b, F.mul(c, F.uniformizer_power(k)))
        shifted = F.digit_code(c, 0) * radix ** (k + 2)
        assert F.digit_code(step, -2) == n + shifted
        assert F.digit_code(F.mod_pi_power(step, 3), -2) == n % radix ** 5
    assert F.digit_code(ZERO, 7) == 0 and F.from_digit_code(0, 7) == ZERO
    with pytest.raises(ValueError):
        F.digit_code(F.uniformizer_power(-3), -2)


def test_digit_codes_are_signed_on_q_p_alone():
    # a Q_p mantissa is a signed integer, so -1 codes the exact -1; an
    # F_q((t)) mantissa is a digit string, and a negative code is refused
    qp = PadicField(3, 8)
    minus_one = qp.from_digit_code(-1, 0)
    assert minus_one.exact and qp.eq(minus_one, qp.neg(qp.one))
    assert qp.digit_code(minus_one, 0) == -1
    with pytest.raises(ValueError, match="negative digit code -1"):
        LaurentField(3, 8).from_digit_code(-1, 0)


# Three routes to the precision rule, kept as oracles of each model's own
# `_make`: the generic rule once for both models in the base `_radix`, and
# two earlier per-model rules, whose p-adic digit count reads a table of the
# powers p^0..p^prec and whose Laurent rule works on lane masks and shifts.

def _generic_make(F, v, mant, known):
    """Normalize mant * pi^v, mant read in base `_radix`: keep the `known`
    low digits (None: exact), strip the zero digits at the low end and cap
    at `prec`; PrecisionExhausted if no digit survives.  An exact result
    wider than `prec` becomes the inexact window."""
    radix = F._radix
    if known is not None:
        mant %= radix ** known
    if not mant:
        if known is None:
            return ZERO
        raise PrecisionExhausted("every known digit cancelled")
    j = 0
    while not mant % radix ** (j + 1):
        j += 1
    v, mant = v + j, mant // radix ** j
    if known is not None:
        known -= j
    if known is None:
        known = 1
        while radix ** known <= abs(mant):
            known += 1
        if known <= F.prec:
            return LocalElement(v, mant, known, True)
    if known > F.prec:
        known = F.prec
        mant %= radix ** known
    return LocalElement(v, mant, known, False)


def _padic_make(F, v, mant, known):
    p = F.p
    powers = [p ** i for i in range(F.prec + 1)]
    if known is not None:
        mant %= p ** known
    if not mant:
        if known is None:
            return ZERO
        raise PrecisionExhausted("every known digit cancelled")
    if not mant % p:
        j = 0
        while not mant % p ** (j + 1):
            j += 1
        v, mant = v + j, mant // p ** j
        if known is not None:
            known -= j
    if known is None:
        known = bisect_right(powers, abs(mant))
        if known <= F.prec:
            return LocalElement(v, mant, known, True)
    if known > F.prec:
        known = F.prec
        mant %= powers[known]
    return LocalElement(v, mant, known, False)


def _laurent_make(F, v, mant, known):
    bits = F._lane_bits
    if known is not None:
        mant &= (1 << known * bits) - 1
    if not mant:
        if known is None:
            return ZERO
        raise PrecisionExhausted("every known digit cancelled")
    lead = ((mant & -mant).bit_length() - 1) // bits
    if lead:
        mant >>= lead * bits
        v += lead
        if known is not None:
            known -= lead
    if known is None:
        known = (mant.bit_length() + bits - 1) // bits
        if known <= F.prec:
            return LocalElement(v, mant, known, True)
    if known > F.prec:
        known = F.prec
        mant &= (1 << known * bits) - 1
    return LocalElement(v, mant, known, False)


def _make_grid(F, rng):
    """(v, mant, known) around the window's edges: mantissas of 1 to
    3 prec digits with 0 to prec + 2 zero digits at the low end (so that
    every known digit can cancel), a single top digit, and, for Q_p,
    their negatives; `known` from exact through prec + 1 to 2 prec, the
    width of an exact operand plus an inexact one at gap prec, and
    2 prec + 2, past the p-adic table of powers."""
    prec, radix = F.prec, F._radix
    digits = range(F.p) if F.char == 0 else F._lane
    mants = [0]
    for width in sorted({1, 2, prec - 1, prec, prec + 1, 2 * prec,
                         2 * prec + 1, 3 * prec}):
        for low in (0, 1, 3, prec + 2):
            if 0 < width - low:
                body = [rng.choice(digits) for _ in range(width - low - 1)]
                top = rng.choice(digits[1:])
                mants.append(sum(d * radix ** i for i, d in
                                 enumerate([0] * low + body + [top])))
        mants.append(radix ** (width - 1))
    if F.char == 0:
        mants += [-m for m in mants]
    for mant in mants:
        for known in (None, 1, prec - 1, prec, prec + 1, 2 * prec,
                      2 * prec + 2):
            if known != 0:
                yield rng.randint(-3, 3), mant, known


def _make_outcome(make, F, v, mant, known):
    try:
        return make(F, v, mant, known)
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("F", [
    PadicField(3, 4), LaurentField(3, 4),
    PadicField(5, 4), LaurentField(17, 4), LaurentField(169, 4),
])
def test_make_contract(F):
    # exact full cancellation is the exact zero
    x = parse_element(F, "1+pi^3")
    assert F.sub(x, x) == ZERO
    # an exact result wider than the window is cut to prec inexact digits
    sq = F.mul(x, x)  # 1 + 2*pi^3 + pi^6 has 7 digits
    assert not sq.exact and sq.v == 0 and sq.digits == F.prec
    assert F.mod_pi_power(sq, F.prec) == parse_element(F, "1+2*pi^3")
    # an inexact result keeps the digits its operands know, and no more
    y = F.inv(parse_element(F, "1+pi"))
    assert not y.exact and y.digits == F.prec
    tail = F.sub(y, F.mod_pi_power(y, 1))  # 1/(1+pi) = 1 - pi + ...
    assert not tail.exact and tail.v == 1 and tail.digits == F.prec - 1
    with pytest.raises(PrecisionExhausted):
        F.sub(y, y)
    # reduction needs every digit below the modulus
    assert F.mod_pi_power(y, F.prec).exact
    with pytest.raises(PrecisionExhausted):
        F.mod_pi_power(y, F.prec + 1)
    # the model's rule agrees with the generic rule and with the earlier
    # per-model one; q = 17 and 169 have two-byte slots, so radices 2^16
    # and 2^48
    oracle = _padic_make if F.char == 0 else _laurent_make
    rng = random.Random(F._radix)
    checked = Counter()
    for v, mant, known in _make_grid(F, rng):
        want = _make_outcome(oracle, F, v, mant, known)
        assert _make_outcome(type(F)._make, F, v, mant, known) == want
        assert _make_outcome(_generic_make, F, v, mant, known) == want
        checked[want if want in (ZERO, PrecisionExhausted)
                else ("exact" if want.exact else "inexact", want.digits)] += 1
    # every kind of outcome occurs, exact ones of exactly prec digits too
    assert checked[ZERO] and checked[PrecisionExhausted]
    assert checked["exact", F.prec] and checked["inexact", F.prec]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 17])
def test_make_contract_reduces_laurent_slots(q):
    """The Laurent `_make` takes a mantissa as a sum, a difference or a
    folded product leaves it, its digit slots up to p (p - 1), to the
    normal form of the slots reduced mod p: also when whole low lanes,
    or every lane, reduce to zero."""
    F = LaurentField(q, 4)
    p, prec, top = F.p, F.prec, F.p * (F.p - 1)
    rng = random.Random(q)
    checked = Counter()
    for lanes in (1, 2, prec, prec + 1, 2 * prec):
        for zero_low in sorted({0, 1, lanes}):
            for _ in range(6):
                # the low m slots of each lane carry digits, as in a sum;
                # the lowest `zero_low` lanes hold multiples of p
                slots = [[rng.choice(range(0, top + 1, p)) if i < zero_low
                          else rng.randint(0, top)
                          for _ in range(F.k.degree)] for i in range(lanes)]
                slots[-1][0] = top
                raw = red = 0
                for i, lane in enumerate(slots):
                    for j, s in enumerate(lane):
                        shift = i * F._lane_bits + j * F._slot_bits
                        raw += s << shift
                        red += s % p << shift
                for known in (None, 1, prec - 1, prec, prec + 1, 2 * prec):
                    want = _make_outcome(type(F)._make, F, 0, red, known)
                    assert _make_outcome(type(F)._make, F, 0, raw,
                                         known) == want
                    checked[want if want in (ZERO, PrecisionExhausted)
                            else want.exact] += 1
    assert checked[ZERO] and checked[PrecisionExhausted]
    assert checked[True] and checked[False]


@pytest.mark.parametrize("F", [
    PadicField(2, MAX_PRECISION), PadicField(3, MAX_PRECISION),
    PadicField(251, MAX_PRECISION), LaurentField(169, MAX_PRECISION),
], ids=["Q2", "Q3", "Q251", "F169((t))"])
def test_exact_digit_count_at_every_width(F):
    """The digit count on both sides of every power of the radix, up to
    the largest window."""
    radix = F._radix
    sign = -1 if F.char == 0 else 1  # an exact p-adic mantissa is signed
    for k in range(1, MAX_PRECISION + 1):
        assert F._make(0, radix ** k - 1, None).digits == k
        assert F._make(0, sign * (radix ** (k - 1) + 1), None).digits == k
    top = F._make(0, radix ** MAX_PRECISION + 1, None)
    assert not top.exact and top.digits == MAX_PRECISION



def _unclamped_add(F, a, b):
    """a + b with the far operand shifted into place whatever the gap."""
    if a.v > b.v:
        a, b = b, a
    gap = b.v - a.v
    if isinstance(F, PadicField):
        total = a.mant + b.mant * F.p ** gap
    else:
        total = F._reduce(a.mant + (b.mant << gap * F._lane_bits))
    return F._make(a.v, total, _known_sum(a, b, a.v))


@pytest.mark.parametrize("F", [PadicField(5, 8), LaurentField(3, 8)])
def test_add_across_a_valuation_gap_beyond_the_window(F):
    # a gap of 10^7 gives the sum at gap 2 prec, without building a
    # 10^7-digit intermediate
    start = time.perf_counter()
    for x in (F.one, F.neg(F.one), F.inv(parse_element(F, "1+pi"))):
        far = F.uniformizer_power(10 ** 7)
        want = _unclamped_add(F, x, F.uniformizer_power(2 * F.prec))
        assert F.add(x, far) == F.add(far, x) == want
    assert time.perf_counter() - start < 0.1
    # near the window's edge the sum equals the unclamped formula for
    # exact, negative exact and inexact operands, in either order
    rng = random.Random(5)
    operands = [F.one, F.neg(F.one), F.from_integer(-7),
                F.random_element(rng, 0, 0), F.inv(parse_element(F, "1+pi"))]
    for gap in range(F.prec - 1, F.prec + 3):
        shift = F.uniformizer_power(gap)
        for x in operands:
            for y in operands:
                far = F.mul(y, shift)
                want = _unclamped_add(F, x, far)
                assert F.add(x, far) == F.add(far, x) == want


# ---------------------------------------------------------------------------
# sums, differences and equality against plain references: the schoolbook
# coefficient lists above for F_q((t)), plain integers for Q_p

def _padic_ref_sum(F, a, b, negate=False):
    """a + b, or a - b with `negate`, as (v, mant, digits, exact) or ZERO:
    the integer sum of the operands at the lower valuation, whatever the
    gap, read modulo p^(digits known), or PrecisionExhausted raised."""
    p, prec = F.p, F.prec
    terms = [(x, sign) for x, sign in ((a, 1), (b, -1 if negate else 1))
             if x.mant is not None]
    if not terms:
        return ZERO
    v = min(x.v for x, _ in terms)
    total = sum(sign * x.mant * p ** (x.v - v) for x, sign in terms)
    ends = [x.v + x.digits for x, _ in terms if not x.exact]
    if ends:
        total %= p ** (min(ends) - v)
    if not total:
        if ends:
            raise PrecisionExhausted("every known digit cancelled")
        return ZERO
    while not total % p:
        total //= p
        v += 1
    if ends:
        known = min(ends) - v
    else:
        known, rest = 0, abs(total)
        while rest:
            known, rest = known + 1, rest // p
        if known <= prec:
            return (v, total, known, True)
    known = min(known, prec)
    return (v, total % p ** known, known, False)


def _ref_sum_outcome(F, a, b, negate=False):
    """The reference a + b (a - b with `negate`) in the form of
    `_sum_outcome`."""
    try:
        if F.char == 0:
            return _padic_ref_sum(F, a, b, negate)
        return _ref_add(F, a, b, negate)
    except PrecisionExhausted:
        return PrecisionExhausted


def _sum_outcome(F, fn, a, b):
    """A package result as (v, mant, digits, exact) for Q_p and as
    (v, codes, digits, exact) for F_q((t)), ZERO, or the error class."""
    try:
        out = fn(a, b)
    except PrecisionExhausted:
        return PrecisionExhausted
    return tuple(out) if F.char == 0 and out != ZERO else _ref(F, out)


def _sum_operands(F, rng):
    """Zero, exact operands (among them negative p-adic mantissas and full
    windows) and inexact ones: windows of prec, prec/2 and 1 digits cut
    from exact values, and, at low precision, an inverse."""
    exact = [F.one, F.neg(F.one), F.from_integer(-7),
             parse_element(F, "1+pi^3"), F.random_element(rng, -2, 2),
             F.neg(F.random_element(rng, -2, 2))]
    inexact = [F._make(x.v, x.mant, k) for x, k in
               ((exact[4], F.prec), (exact[5], max(1, F.prec // 2)),
                (exact[4], 1))]
    if F.prec <= 8:
        inexact.append(F.inv(parse_element(F, "1+pi")))
    return [ZERO] + [x for x in exact if x != ZERO] + inexact


_SUM_FIELDS = {
    "Q2": lambda prec: PadicField(2, prec),
    "Q5": lambda prec: PadicField(5, prec),
    "F2((t))": lambda prec: LaurentField(2, prec),
    "F3((t))": lambda prec: LaurentField(3, prec),
    "F4((t))": lambda prec: LaurentField(4, prec),
    "F8((t))": lambda prec: LaurentField(8, prec),
    "F17((t))": lambda prec: LaurentField(17, prec),
}


@pytest.mark.parametrize("prec", [1, 8, MAX_PRECISION])
@pytest.mark.parametrize("name", sorted(_SUM_FIELDS))
def test_sums_and_equality_match_the_references(name, prec):
    """add, sub and eq in both operand orders at valuation gaps 0 to
    prec + 1 (at MAX_PRECISION the gaps 0, 1, prec and prec + 1); eq
    against the reference difference, which is 0 or cancels every known
    digit exactly when the operands are equal."""
    F = _SUM_FIELDS[name](prec)
    rng = random.Random(f"{name}/{prec}")
    xs = _sum_operands(F, rng)
    gaps = range(prec + 2) if prec <= 8 else (0, 1, prec, prec + 1)
    seen = Counter()
    for a in xs:
        for b in xs:
            for gap in gaps:
                if a.mant is None or b.mant is None:
                    if gap:
                        continue
                    c = b
                else:
                    c = F.mul(b, F.uniformizer_power(a.v + gap - b.v))
                for x, y in ((a, c), (c, a)):
                    want = _ref_sum_outcome(F, x, y)
                    assert _sum_outcome(F, F.add, x, y) == want, (x, y)
                    diff = _ref_sum_outcome(F, x, y, negate=True)
                    assert _sum_outcome(F, F.sub, x, y) == diff, (x, y)
                    equal = diff in (ZERO, PrecisionExhausted)
                    assert F.eq(x, y) == equal, (x, y)
                    seen[diff if equal else diff[3]] += 1
                    seen["equal, not identical"] += equal and x != y
    # exact and inexact differences, exact and inexact full cancellation,
    # and values equal on a window only, all occur
    assert seen[True] and seen[False] and seen[ZERO]
    assert seen[PrecisionExhausted] and seen["equal, not identical"]


@pytest.mark.parametrize("prec", [1, 8, MAX_PRECISION])
@pytest.mark.parametrize("p", [2, 5])
def test_padic_inverse_is_the_normal_form_of_the_unit_inverse(p, prec):
    """1/x is the inverse of x's unit modulo p^k, k the known window
    (prec for an exact x other than +-1), normalised by the generic rule."""
    F = PadicField(p, prec)
    for x in _sum_operands(F, random.Random(p * prec))[1:]:
        if x.exact and x.mant in (1, -1):
            assert F.inv(x) == (-x.v, x.mant, 1, True)
            continue
        k = prec if x.exact else x.digits
        want = _generic_make(F, -x.v, pow(x.mant, -1, p ** k), k)
        assert F.inv(x) == want and want.digits == k


# ---------------------------------------------------------------------------
# equality on the known window and products by pi^k, against the routes
# they replaced: subtract and catch, and `_make` of the product

_EQ_FIELDS = [PadicField(2, 6), PadicField(5, 8), LaurentField(3, 8),
              LaurentField(4, 6), LaurentField(9, 5)]
_EQ_IDS = ["Q2", "Q5", "F3((t))", "F4((t))", "F9((t))"]


def _subtract_eq(F, a, b):
    """Equality by subtraction: equal inexact values cancel every known
    digit, which `sub` reports as PrecisionExhausted."""
    try:
        return F.is_zero(F.sub(a, b))
    except PrecisionExhausted:
        return True


def _eq_operands(F, rng):
    """Zero, exact operands (negative p-adic mantissas among them) and
    inexact ones; for each nonzero x and width k, its first k digits as an
    inexact window `cut` and as an exact representative, the
    representative with a digit added just beyond the window (equal to
    `cut` on it), and for k > 1 `cut` with its last known digit changed."""
    pi = F.uniformizer_power
    exact = [F.one, F.neg(F.one), F.from_integer(-7),
             parse_element(F, "1+pi^3"), F.neg(parse_element(F, "pi^-1+2")),
             F.random_element(rng, -2, 2), F.random_element(rng, -2, 2)]
    inexact = [F.inv(parse_element(F, "1+pi")), F.inv(exact[-1]),
               F.mul(exact[-2], exact[-2])]
    y = F.inv(exact[-2])
    try:  # a window cut short, unless its digits above y.v + 2 are all 0
        inexact.append(F.sub(y, F.mod_pi_power(y, y.v + 2)))
    except PrecisionExhausted:
        pass
    xs = [ZERO] + exact + inexact
    for x in exact + inexact:
        for k in sorted({1, 2, max(1, x.digits - 1)}):
            cut = F._make(x.v, x.mant, k)
            rep = F.mod_pi_power(x, x.v + k)
            xs += [cut, rep, F.add(rep, pi(x.v + k))]
            if k > 1:
                xs.append(F.add(cut, pi(x.v + k - 1)))
    return xs


@pytest.mark.parametrize("F", _EQ_FIELDS, ids=_EQ_IDS)
def test_eq_matches_subtraction(F):
    rng = random.Random(F._radix + F.prec)
    xs = _eq_operands(F, rng)
    pairs = [(a, b) for a in xs for b in xs]
    # valuation gaps prec - 1 .. prec + 2
    for a in xs[1:12]:
        for b in xs[1:12]:
            for gap in range(F.prec - 1, F.prec + 3):
                pairs.append((a, F.mul(b, F.uniformizer_power(
                    a.v + gap - b.v))))
    verdicts = Counter()
    for a, b in pairs:
        want = _subtract_eq(F, a, b)
        assert F.eq(a, b) == F.eq(b, a) == want, (a, b)
        verdicts[want, a.exact and b.exact, a == b] += 1
    # distinct values equal on an inexact window, and differences of
    # exact and of inexact operands, all occur
    assert verdicts[True, False, False]
    assert verdicts[False, False, False] and verdicts[False, True, False]


@pytest.mark.parametrize("F", _EQ_FIELDS, ids=_EQ_IDS)
def test_eq_on_equal_inexact_values_raises_nothing(F, monkeypatch):
    y = F.inv(parse_element(F, "1+pi"))
    pairs = [(y, y), (y, F.mod_pi_power(y, F.prec)),
             (F._make(y.v, y.mant, 2), y)]
    raised = Counter()
    make = type(F)._make

    def counting_make(self, v, mant, known):
        try:
            return make(self, v, mant, known)
        except PrecisionExhausted:
            raised["make"] += 1
            raise

    monkeypatch.setattr(type(F), "_make", counting_make)
    assert all(F.eq(a, b) for a, b in pairs)
    assert not raised
    # the subtraction route raises once on each pair
    assert all(_subtract_eq(F, a, b) for a, b in pairs)
    assert raised["make"] == len(pairs)


@pytest.mark.parametrize("F", _EQ_FIELDS, ids=_EQ_IDS)
def test_products_by_pi_powers_are_shifts(F):
    rng = random.Random(F.prec)
    for k in (-3, 0, 1, F.prec + 1):
        shift = F.uniformizer_power(k)
        assert shift == F._make(k, 1, None)
        for b in _eq_operands(F, rng):
            if F.is_zero(b):
                assert F.mul(shift, b) == F.mul(b, shift) == ZERO
                continue
            want = F._make(k + b.v, b.mant, F._known_product(shift, b))
            assert F.mul(shift, b) == F.mul(b, shift) == want
            if F.char == 0:
                assert F.neg(b) == F._make(b.v, -b.mant,
                                           None if b.exact else b.digits)
            elif F.char == 2:
                assert F.neg(b) is b


# ---------------------------------------------------------------------------
# differential precision: a low-precision run never claims a digit that a
# high-precision run of the same program contradicts

_DIFF_FIELDS = {
    "Q3": lambda prec: PadicField(3, prec),
    "Q2": lambda prec: PadicField(2, prec),
    "F3((t))": lambda prec: LaurentField(3, prec),
    "F4((t))": lambda prec: LaurentField(4, prec),
}


def _exact_input(F, v, digits, negate):
    if F.char == 0:
        n = sum(c * F.p ** i for i, c in enumerate(digits))
        return F.mul(F.from_integer(-n if negate else n), F.uniformizer_power(v))
    x = _from_coeffs(F, v, [c % F.q for c in digits])
    return F.neg(x) if negate else x


def _known_to(x):
    return INFINITY if x.exact else x.v + x.digits


def _run_program(F, inputs, program):
    """Values of the straight-line program, stopping at the first step that
    exhausts precision or divides by zero (nothing is claimed for it)."""
    values = [_exact_input(F, *spec) for spec in inputs]
    for op, i, j in program:
        a, b = values[i % len(values)], values[j % len(values)]
        try:
            if op == "add":
                values.append(F.add(a, b))
            elif op == "sub":
                values.append(F.sub(a, b))
            elif op == "mul":
                values.append(F.mul(a, b))
            else:
                values.append(F.inv(a))
        except (PrecisionExhausted, DivisionByZero):
            break
    return values


_INPUT = st.tuples(st.integers(-2, 2),
                   st.lists(st.integers(0, 3), min_size=1, max_size=7),
                   st.booleans())
_STEP = st.tuples(st.sampled_from(["add", "sub", "mul", "inv"]),
                  st.integers(0, 30), st.integers(0, 30))


@given(st.sampled_from(sorted(_DIFF_FIELDS)), st.integers(4, 5),
       st.integers(60, 80), st.lists(_INPUT, min_size=2, max_size=4),
       st.lists(_STEP, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_low_precision_digits_agree_with_high_precision(name, low_prec,
                                                        high_prec, inputs,
                                                        program):
    low = _DIFF_FIELDS[name](low_prec)
    high = _DIFF_FIELDS[name](high_prec)
    lows = _run_program(low, inputs, program)
    highs = _run_program(high, inputs, program)
    # a step that exhausts the low run is skipped, never counted as
    # agreement; the high run gets at least as far
    assert len(highs) >= len(lows)
    for a, b in zip(lows, highs):
        if low.is_zero(a):
            assert high.is_zero(b)
            continue
        if a.exact:
            assert b == a
            continue
        # the high run knows at least as far, and agrees on every digit
        # the low run claims
        assert _known_to(b) >= _known_to(a)
        k = a.v + a.digits
        assert high.mod_pi_power(b, k) == low.mod_pi_power(a, k)


# ---------------------------------------------------------------------------
# specs, classification, literals

def test_parse_field_spec_grammar():
    assert parse_field_spec("Fq:q=7").q == 7
    F = parse_field_spec("Qp:p=5,prec=12")
    assert F.p == 5 and F.prec == 12
    L = parse_field_spec("Laurent:q=9,prec=16")
    assert L.q == 9 and L.prec == 16
    # shorthands
    assert parse_field_spec("F7").q == 7
    assert parse_field_spec("Q5").prec == 8
    with pytest.raises(InvalidSpec):
        parse_field_spec("Zp:p=5")
    with pytest.raises(InvalidSpec):
        parse_field_spec("Qp:p=6,prec=4")


def test_classify():
    assert classify(parse_field_spec("Qp:p=5,prec=12")) == {
        "kind": "padic", "characteristic": 0, "residue_field": "F5",
        "local": True, "description": "Q5 (precision 12)",
        "precision": 12, "uniformizer": "p",
    }
    c = classify(parse_field_spec("Fq:q=4"))
    assert c["kind"] == "finite" and not c["local"] and c["characteristic"] == 2
    c = classify(parse_field_spec("Laurent:q=9,prec=8"))
    assert c["local"] and c["characteristic"] == 3 and c["residue_field"] == "F9"


def test_parse_element_literals(q5, f3t):
    x = parse_element(q5, "7*pi^2-1")
    assert q5.eq(x, q5.from_integer(7 * 25 - 1))
    assert q5.valuation(parse_element(q5, "pi^-3")) == -3
    y = parse_element(f3t, "2*t^2+1")
    assert f3t.valuation(y) == 0
    assert f3t.element_json(y)["digits"] == [1, 0, 2]
    assert parse_element(finite_field(7), "5") == 5
    with pytest.raises(InvalidSpec):
        parse_element(q5, "pi^^2")
    with pytest.raises(InvalidSpec):
        parse_element(finite_field(7), "9")


def test_format_element(q5, f3t):
    assert q5.format_element(q5.from_integer(35)) == "7*5^1"
    assert f3t.format_element(parse_element(f3t, "t^-3+t")) == "t^-3+t"
    assert q5.format_element(ZERO) == "0"
    inexact = q5.inv(q5.from_integer(3))
    assert "O(5^" in q5.format_element(inexact)
