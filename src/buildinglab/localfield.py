"""Finite fields and truncated local fields with honest precision tracking.

Three models share one interface: the finite field F_q (q = p^m, polynomial
basis over F_p modulo the lexicographically least monic irreducible), the
field Q_p of p-adic numbers truncated at a fixed relative precision, and the
Laurent-series field F_q((t)) truncated the same way.  One private base,
`_FieldBase`, derives `div`, and `pow` for n >= 0, from each model's `one`,
`mul` and `inv`.

F_q works on integer codes through addition, negation, multiplication and
inversion tables built once from coefficient-wise polynomial arithmetic.
One digit routine (`_digits`) reads codes and p-adic windows in base p, one
remainder (`_poly_rem`) reduces polynomials over F_p both in those products
and in the search for the modulus, and `FiniteField.basis()` names the
F_p-basis, so no caller builds a code itself.

The two local models carry a discrete valuation v with v(0) treated as
infinity, the exact lift `residue_lift` of a residue code, the powers
`uniformizer_power(k)` of the uniformizer (p, respectively t), and exact
canonical representatives modulo pi^k (`mod_pi_power`), so callers never
pick a representation by the kind of field.

Precision model.  A nonzero element is (valuation, mantissa, digits, exact);
the mantissa is one int read in the model's base `_radix`: p, or
2^`_lane_bits` with one coefficient per digit (see `LaurentField`).
Literals and other finite-support constructions are exact.  Each model
writes the rule for a result once, in its own normal form
`_make(v, mant, known)`, which every ring operation returns through (an
inverse, already in normal form, skips it): Q_p cuts windows with a table
of powers of p, F_q((t)) with lane masks and shifts, and reduces its
digit slots mod p there.  A result of exact operands stays exact while it
fits inside the precision window, so an exact full cancellation really
returns exact zero with valuation infinity; any truncation drops the exact
flag; a result of inexact operands keeps the digits its operands
determine, capped at the window: for a sum or difference every digit below
the lowest unknown digit of an operand (`_LocalBase._known_sum`), for a
product or an inverse the least known precision of the inputs
(`_LocalBase._known_product`).  When every known digit of an inexact
computation cancels, no claim about the result is possible and
PrecisionExhausted is raised; nothing is ever silently rounded to zero.
`add`, `sub` and `mul` are written once for both models (`_LocalBase`):
the higher operand of a sum is shifted by the model's own int operator (a
product by p^k, a left shift by k lanes), and `sub` negates it by one
factor as it goes, never building -b.  A product by an exact 1 or pi^k
only shifts the other factor's valuation; any other product is the
model's mantissa product `_times`.  Equality is decided on the common
known window of a - b (`_LocalBase.eq`: its low `known` digits, by
remainder or by mask), so it never raises.
`digit_code(a, low)` and `from_digit_code(n, low)` convert between an
element and the int n with a = n * pi^low, so digit strings can be handled
as plain ints (the tree balls of `btree` key their vertices this way).

F_q and F_q((t)) answer `frobenius_inv`, the p-th root that the recovered
product on the projective line takes in characteristic 2.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    FrobeniusNotInvertible,
    InvalidSpec,
    PrecisionExhausted,
)

INFINITY = float("inf")

# desk-scale bounds on q (or p) and the precision, checked before any
# table is built: an F_q keeps q x q tables
MAX_ORDER = 256
MAX_PRECISION = 1024


def _val_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^m with p prime and q <= MAX_ORDER, else InvalidSpec."""
    if q > MAX_ORDER:
        raise InvalidSpec(f"field order {q} exceeds the bound {MAX_ORDER}")
    if q < 2:
        raise InvalidSpec(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = _val_int(q, p)
    if q != p ** m:
        raise InvalidSpec(f"{q} is not a prime power")
    return p, m


def _digits(n: int, p: int, width: int) -> list[int]:
    """The `width` lowest base-p digits of n, least significant first (the
    digits of n mod p^width, also for negative n)."""
    out = []
    for _ in range(width):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _poly_rem(coeffs: Sequence[int], monic: Sequence[int],
              p: int) -> list[int]:
    """Remainder of the polynomial `coeffs` over F_p (entries in 0..p-1,
    constant term first) modulo the `monic` polynomial: its deg(monic) low
    coefficients."""
    rem = list(coeffs)
    d = len(monic) - 1
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            for j in range(d):
                rem[k - d + j] = (rem[k - d + j] - c * monic[j]) % p
    return rem[:d]


class _FieldBase:
    """The operations every model derives from its own `one`, `mul` and
    `inv`."""

    local = False

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        """a^n for n >= 0."""
        r = self.one
        for _ in range(n):
            r = self.mul(r, a)
        return r


# ---------------------------------------------------------------------------
# finite fields


class FiniteField(_FieldBase):
    """F_q with elements encoded as integers 0..q-1 (base-p coefficient
    vectors in the polynomial basis).  `add`, `neg`, `sub`, `mul` and `inv`
    are lookups in tables built once by coefficient-wise arithmetic
    (`_decode`, `_encode`, `_poly_mul`), which stays available as the
    reference the tables are tested against; `div` and `pow` come from the
    base.
    `basis()` is the F_p-basis 1, w, ..., w^(m-1) behind the codes."""

    kind = "finite"
    prec: Optional[int] = None

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.degree = m
        self.char = p
        self.residue_q = q
        self.zero = 0
        self.one = 1
        self.modulus = _least_irreducible(p, m)
        coeffs = [self._decode(a) for a in range(q)]
        self._add = [[self._encode([x + y for x, y in zip(ca, cb)])
                      for cb in coeffs] for ca in coeffs]
        self._neg = [self._encode([-x for x in ca]) for ca in coeffs]
        # a * b = a * b0 + w * (a * b1) for the code b = b0 + p b1: a row
        # is filled from its earlier entries, and only x -> w x multiplies
        times_w = [self._poly_mul(x, self.generator()) for x in range(q)]
        self._mul = []
        for a in range(q):
            row = [0] * q
            for b in range(1, q):
                row[b] = (self._add[row[b - 1]][a] if b < p else
                          self._add[row[b % p]][times_w[row[b // p]]])
            self._mul.append(row)
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        # x -> x^p has order m, so its inverse is x -> x^(q/p)
        self._frob_inv = [self.pow(a, q // p) for a in range(q)]

    def _decode(self, code: int) -> list[int]:
        return _digits(code, self.p, self.degree)

    def _encode(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _poly_mul(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self._encode(_poly_rem(prod, self.modulus, p))

    # -- interface shared with the local models --------------------------

    def is_zero(self, a: int) -> bool:
        return a == 0

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_q")
        return self._inv[a]

    def valuation(self, a: int):
        return INFINITY if a == 0 else 0

    def frobenius_inv(self, a: int) -> int:
        return self._frob_inv[a]

    def from_integer(self, n: int) -> int:
        return n % self.p

    def generator(self) -> int:
        """Class of the polynomial variable (only meaningful for q > p)."""
        return self.p if self.degree > 1 else 1

    def basis(self) -> list[int]:
        """The F_p-basis 1, w, ..., w^(m-1) of F_q."""
        w = self.generator()
        return [self.pow(w, k) for k in range(self.degree)]

    def random_element(self, rng, nonzero: bool = False) -> int:
        return rng.randrange(1 if nonzero else 0, self.q)

    def format_element(self, a: int) -> str:
        coeffs = self._decode(a)
        terms = []
        for e, c in enumerate(coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}w" + (f"^{e}" if e > 1 else ""))
        return "+".join(terms) or "0"

    def element_json(self, a: int):
        return {"code": a, "coeffs": self._decode(a), "exact": True}

    def describe(self) -> str:
        return f"F{self.q}"

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    return FiniteField(q)


@lru_cache(maxsize=None)
def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p,
    as a coefficient tuple (c0, ..., c_{m-1}, 1), found by trial division
    by every monic of degree at most m/2 (x for m = 1).  Deterministic, so
    the polynomial model of F_q never depends on run order."""

    def all_monic(deg: int):
        return (_digits(code, p, deg) + [1] for code in range(p ** deg))

    for cand in all_monic(m):
        if all(any(_poly_rem(cand, div, p))
               for d in range(1, m // 2 + 1) for div in all_monic(d)):
            return tuple(cand)
    raise InvalidSpec(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# local models


class LocalElement(NamedTuple):
    """Nonzero element: mantissa * pi^v.  `digits` is the known relative
    window; `exact` marks finite-support values known completely."""
    v: int
    mant: Optional[int]   # digits in base `_radix`, lowest nonzero (p-adic:
                          # signed when exact; Laurent: one lane per residue
                          # code, see LaurentField); None for 0
    digits: int
    exact: bool


ZERO = LocalElement(0, None, 0, True)  # unique exact zero, valuation infinity

# `_new(LocalElement, (v, mant, digits, exact))` builds an element without
# the named tuple's Python-level __new__, which every ring operation would
# otherwise pay
_new = tuple.__new__

Element = Union[int, LocalElement]


class _LocalBase(_FieldBase):
    """Shared plumbing for the two truncated local models.

    The base writes `one`, `eq`, `add`, `sub` and `mul` once for both
    models.  A model supplies the representation: the base `_radix` of
    its mantissas; the shift `_up(mant, _shift[k])` = mant * radix^k and
    the window `_low(x, _window[k])`, zero exactly when radix^k divides x,
    each an int operator with its table (k up to prec), and `_neg_unit`,
    the factor that negates a mantissa; the mantissa product `_times(a,
    b)`; its normal form `_make(v, mant, known)` (the precision rule),
    which takes a mantissa of such a sum or product as it stands; the ring
    operations `neg` and `inv`; and the mantissa hooks `_random_unit(rng)`
    and `_nonzero_json(a)`.
    """

    local = True

    zero = ZERO
    one = LocalElement(0, 1, 1, True)  # mantissa 1 in both models

    def __init__(self, prec: int):
        if not 1 <= prec <= MAX_PRECISION:
            raise InvalidSpec(f"precision {prec} outside 1..{MAX_PRECISION}")
        self.prec = prec

    def is_zero(self, a: LocalElement) -> bool:
        return a.mant is None

    def valuation(self, a: LocalElement):
        return INFINITY if a.mant is None else a.v

    def eq(self, a: LocalElement, b: LocalElement) -> bool:
        """Equality on the common known window, which never raises.

        Zero equals only zero.  Nonzero values of different valuations
        differ: the lowest digit of each is known and nonzero, so it
        survives in a - b.  At equal valuations exact operands are equal
        when their (normal) mantissas are, and with an inexact operand
        when the mantissas agree on every digit a - b determines, where
        `sub` would raise PrecisionExhausted.
        """
        if a.mant is None or b.mant is None:
            return a.mant is None and b.mant is None
        if a.v != b.v:
            return False
        if a.exact and b.exact:
            return a.mant == b.mant
        known = (b.digits if a.exact else a.digits if b.exact
                 else min(a.digits, b.digits))
        return not self._low(a.mant - b.mant, self._window[known])

    def add(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None:
            return b
        if b.mant is None:
            return a
        if a.v > b.v:
            a, b = b, a
        gap = b.v - a.v
        if gap > self.prec:
            # no digit of the far operand, nor a borrow from a signed exact
            # p-adic one, reaches the near one's prec-digit window
            return a if not a.exact else self._make(a.v, a.mant, self.prec)
        return self._make(a.v, a.mant + self._up(b.mant, self._shift[gap]),
                          self._known_sum(a, b, gap))

    def sub(self, a: LocalElement, b: LocalElement) -> LocalElement:
        """a - b on the window of `add`, with no -b built: b's mantissa
        is negated by the factor `_neg_unit` as it is shifted."""
        gap = b.v - a.v
        if a.mant is None or b.mant is None or abs(gap) > self.prec:
            return self.add(a, self.neg(b))  # one operand alone
        if gap >= 0:
            low, high = a, b
            mant = a.mant + self._up(b.mant * self._neg_unit, self._shift[gap])
        else:
            gap = -gap
            low, high = b, a
            mant = self._up(a.mant, self._shift[gap]) + b.mant * self._neg_unit
        return self._make(low.v, mant, self._known_sum(low, high, gap))

    def mul(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None or b.mant is None:
            return ZERO
        # a factor 1 or pi^k (exact, mantissa 1: the lane of the code 1 in
        # F_q((t))) shifts the other one
        if a.mant == 1 and a.exact:
            return _new(LocalElement, (a.v + b.v, b.mant, b.digits, b.exact))
        if b.mant == 1 and b.exact:
            return _new(LocalElement, (a.v + b.v, a.mant, a.digits, a.exact))
        return self._make(a.v + b.v, self._times(a, b),
                          self._known_product(a, b))

    def uniformizer_power(self, k: int) -> LocalElement:
        return _new(LocalElement, (k, 1, 1, True))

    def integral(self, a: LocalElement) -> bool:
        return self.is_zero(a) or a.v >= 0

    # -- the known window of a result (the `known` argument of `_make`);
    #    None means every operand is exact

    @staticmethod
    def _known_sum(low: LocalElement, high: LocalElement, gap: int):
        """Relative width that a sum determines, `high` gap digits above
        `low`: every digit below the lowest unknown digit of an operand."""
        if low.exact:
            return None if high.exact else gap + high.digits
        if high.exact or low.digits < gap + high.digits:
            return low.digits
        return gap + high.digits

    @staticmethod
    def _known_product(a: LocalElement, b: LocalElement):
        """Relative width that a * b determines: the least inexact window."""
        if a.exact:
            return None if b.exact else b.digits
        return a.digits if b.exact else min(a.digits, b.digits)

    # -- normal forms and sampling, in terms of the mantissa hooks

    def mod_pi_power(self, a: LocalElement, k: int) -> LocalElement:
        """Exact canonical representative of a modulo pi^k (digits below
        exponent k kept, the rest dropped).  Requires the digits to be known
        that far.  `_make` normalises it like any result, so a representative
        wider than the window (only a negative exact p-adic mantissa far
        below k gives one) comes back as the inexact window."""
        if a.mant is None or a.v >= k:
            return ZERO
        width = k - a.v
        if not a.exact and a.digits < width:
            raise PrecisionExhausted(
                f"digits up to {self.uniformizer_symbol}^{k} not known at "
                f"this precision")
        return self._make(a.v, a.mant % self._radix ** width, None)

    def digit_code(self, a: LocalElement, low: int) -> int:
        """The int n with a = n * pi^low, its digits read in base `_radix`
        from exponent low up; a must be zero or of valuation at least low.
        With a nonnegative mantissa (canonical representatives and residue
        lifts have one) the code is a digit string, so codes of disjoint
        digit ranges add without carries."""
        if a.mant is None:
            return 0
        if a.v < low:
            raise ValueError(f"valuation {a.v} below the code's base {low}")
        return a.mant * self._radix ** (a.v - low)

    def from_digit_code(self, n: int, low: int) -> LocalElement:
        """The element n * pi^low, normalised by `_make` (exact while n
        has at most `prec` digits): the inverse of `digit_code`.  A signed
        n is a Q_p code; F_q((t)) refuses a negative n by ValueError."""
        if n < 0 and self.char:
            raise ValueError(f"negative digit code {n} on {self.describe()}")
        return self._make(low, n, None)

    def random_element(self, rng, min_val: int = -2, max_val: int = 2,
                       nonzero: bool = True) -> LocalElement:
        """Exact element of valuation in [min_val, max_val] with a full
        window of random digits (zero with chance 0.1 unless nonzero)."""
        if not nonzero and rng.random() < 0.1:
            return ZERO
        v = rng.randint(min_val, max_val)
        return self._make(v, self._random_unit(rng), None)

    def element_json(self, a: LocalElement):
        if a.mant is None:
            return {"valuation": "infinity", "digits": [], "exact": True}
        return self._nonzero_json(a)


class PadicField(_LocalBase):
    """Q_p truncated at `prec` relative digits.

    Exact elements are p^v * m with m a (signed) integer prime to p, so
    ordinary integers and their negatives are represented faithfully;
    inexact mantissas are canonical residues in [1, p^digits) prime to p.
    """

    kind = "padic"
    uniformizer_symbol = "p"

    def __init__(self, p: int, prec: int):
        pp, m = _factor_prime_power(p)
        if m != 1:
            raise InvalidSpec(f"p-adic base {p} must be prime")
        super().__init__(prec)
        self.p = self._radix = p
        self.char = 0
        self.residue_q = p
        # p^0 .. p^(2 prec): every window a ring operation cuts, the widest
        # an exact operand plus an inexact one at gap prec; a sum shifts and
        # cuts by the same powers
        self._shift = self._window = [p ** i for i in range(2 * prec + 1)]

    @property
    def residue_field(self) -> FiniteField:
        return finite_field(self.p)

    def _make(self, v: int, mant: int, known: Optional[int]) -> LocalElement:
        """The precision rule on mant * p^v (`known` low digits kept, None:
        exact).  Windows are cut by the table of powers `_shift`, one past
        it by its own power; an exact digit count is |mant|'s place in the
        table."""
        p, powers, prec = self.p, self._shift, self.prec
        if known is not None:
            try:
                mant %= powers[known]
            except IndexError:
                mant %= p ** known
        if not mant:
            if known is None:
                return ZERO
            raise PrecisionExhausted("every known digit cancelled")
        if not mant % p:
            j = _val_int(mant, p)
            v, mant = v + j, mant // p ** j
            if known is not None:
                known -= j
        if known is None:
            known = bisect_right(powers, abs(mant))
            if known <= prec:
                return _new(LocalElement, (v, mant, known, True))
        if known > prec:
            known = prec
            mant %= powers[prec]
        return _new(LocalElement, (v, mant, known, False))

    def _random_unit(self, rng) -> int:
        top = self._shift[self.prec]
        mant = rng.randrange(1, top)
        while mant % self.p == 0:
            mant = rng.randrange(1, top)
        return mant

    def from_integer(self, n: int) -> LocalElement:
        return self._make(0, n, None)

    def residue_lift(self, code: int) -> LocalElement:
        """Exact lift of the residue class with code 0 <= code < p."""
        return self._make(0, code, None)

    _up, _low, _neg_unit = operator.mul, operator.mod, -1
    add, sub, mul = _LocalBase.add, _LocalBase.sub, _LocalBase.mul

    @staticmethod
    def _times(a: LocalElement, b: LocalElement) -> int:
        return a.mant * b.mant

    def neg(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            return a
        if a.exact:
            return _new(LocalElement, (a.v, -a.mant, a.digits, True))
        return _new(LocalElement,
                    (a.v, -a.mant % self._shift[a.digits], a.digits, False))

    def inv(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            raise DivisionByZero("inverse of 0")
        if a.exact and a.mant in (1, -1):
            return _new(LocalElement, (-a.v, a.mant, 1, True))
        digits = self.prec if a.exact else a.digits
        mod = self._shift[digits]
        # a unit below p^digits: the normal form as it stands
        return _new(LocalElement,
                    (-a.v, pow(a.mant % mod, -1, mod), digits, False))

    def format_element(self, a: LocalElement) -> str:
        if a.mant is None:
            return "0"
        if a.exact:
            if a.v == 0:
                return str(a.mant)
            return f"{a.mant}*{self.p}^{a.v}"
        digits = ",".join(map(str, _digits(a.mant, self.p, a.digits)))
        return f"{self.p}^{a.v}*[{digits}] + O({self.p}^{a.v + a.digits})"

    def _nonzero_json(self, a: LocalElement):
        return {"valuation": a.v,
                "digits": (None if a.exact
                           else _digits(a.mant, self.p, a.digits)),
                "mantissa": a.mant if a.exact else None,
                "exact": a.exact}

    def describe(self) -> str:
        return f"Q{self.p} (precision {self.prec})"

    def __repr__(self) -> str:
        return f"PadicField({self.p}, prec={self.prec})"


class LaurentField(_LocalBase):
    """F_q((t)) truncated at `prec` relative digits.

    A mantissa is one packed int (Kronecker substitution): coefficient i of
    the series sits in lane i, `_lane_bits` wide.  With q = p^m a lane
    holds 2m - 1 digit slots of `_slot_bits` (whole bytes): the m base-p
    digits of the coefficient's residue code in the low slots, and m - 1
    zero slots above them for the w-degrees up to 2m - 2 of a product.  The
    slot width depends on q alone, so every precision shares one canonical
    form: the least number of bytes that holds m (p-1)^2 + p - 1.  A slot
    then holds a reduced digit plus `_block` products of m (p-1)^2 each,
    and a product splits its shorter factor into blocks of `_block` lanes
    so that no slot overflows.  The lowest lane of a nonzero mantissa is
    nonzero; an exact mantissa has `digits` lanes, an inexact one at most
    `digits`.

    `add`, `sub`, `neg` and `mul` are a few int operations and one slot
    reduction mod p (`_reduce`, one bytes.translate for one-byte slots).
    The normal form `_make` owns that reduction: a sum, a difference or a
    folded product reaches it with unreduced slots.  `sub` adds (p - 1) b
    (`_neg_unit`), so a slot holds at most p (p - 1) before it.  The
    slots of a product (`_times`) of w-degree m and more are folded back
    through w^(m+r) mod the modulus (`_fold`).  The radix is
    2^`_lane_bits`, so `_make`, `add`, `sub` and `eq` work by masks and
    shifts, in time linear in the mantissa at any precision.
    `coefficients` decodes a mantissa to residue codes.
    """

    kind = "laurent"
    uniformizer_symbol = "t"

    def __init__(self, q: int, prec: int):
        super().__init__(prec)
        k = self.k = finite_field(q)
        self.q = q
        self.p = p = k.p
        self.char = p
        self.residue_q = q
        m, top = k.degree, k.degree * (p - 1) ** 2
        width = 8
        while (1 << width) < top + p:
            width += 8
        self._slot_bits = width
        self._block = ((1 << width) - p) // top
        self._lane_bits = lane_bits = (2 * m - 1) * width
        self._radix = 1 << lane_bits
        self._lane_bytes = lane_bits // 8
        self._lane_mask = (1 << lane_bits) - 1
        self._mod_p = bytes(b % p for b in range(256)) if width == 8 else None
        # residue code -> lane value, and the code of the bytes of every
        # lane of reduced slots (w-degree up to 2m - 2, taken mod the
        # modulus)
        self._lane = [sum(d << j * width
                          for j, d in enumerate(_digits(c, p, m)))
                      for c in range(q)]
        w_powers = [k.pow(k.generator(), j) for j in range(2 * m - 1)]
        code = {0: 0}
        for j, wj in enumerate(w_powers):
            code = {lane + (d << j * width): k.add(c, k.mul(d, wj))
                    for lane, c in code.items() for d in range(p)}
        self._code = {lane.to_bytes(self._lane_bytes, "little"): c
                      for lane, c in code.items()}
        # _fold: the lane images of w^m, ..., w^(2m-2), and the masks of
        # slot 0 and of slots 0..m-1 in each lane of a product
        self._wraps = [self._lane[c] for c in w_powers[m:]]
        lanes = ((1 << 2 * prec * lane_bits) - 1) // self._lane_mask
        self._unit_mask = lanes * ((1 << width) - 1)
        self._low_mask = lanes * ((1 << m * width) - 1)
        # a sum's shifts and windows: k lanes, by bits and by mask
        self._shift = [k * lane_bits for k in range(prec + 1)]
        self._window = [(1 << k * lane_bits) - 1 for k in range(prec + 1)]
        self._neg_unit = p - 1  # -1 in every slot
        # inv's next term: row a maps a residue code x to the lane of -a x
        self._term_lanes = [[self._lane[x] for x in k._mul[k._neg[a]]]
                            for a in range(q)]

    @property
    def residue_field(self) -> FiniteField:
        return self.k

    # -- the packed mantissa

    def _pack(self, codes: Sequence[int]) -> int:
        lane, bits = self._lane, self._lane_bits
        return sum(lane[c] << i * bits for i, c in enumerate(codes))

    def coefficients(self, a: LocalElement) -> list[int]:
        """Residue codes of the `digits` known coefficients of a nonzero a,
        lowest exponent first."""
        size = self._lane_bytes
        raw = a.mant.to_bytes(a.digits * size, "little")
        return [self._code[raw[i:i + size]] for i in range(0, len(raw), size)]

    def _reduce(self, x: int) -> int:
        """Every digit slot of x taken mod p."""
        if self._mod_p is not None:
            raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
            return int.from_bytes(raw.translate(self._mod_p), "little")
        width, p = self._slot_bits, self.p
        mask = (1 << width) - 1
        return sum((x >> s & mask) % p << s
                   for s in range(0, x.bit_length(), width))

    def _fold(self, x: int) -> int:
        """A product of at most 2 prec lanes, each lane a polynomial in w of
        degree at most 2m - 2, brought below degree m: its slots reduced,
        slot m + r contributes its digit times w^(m+r) mod the modulus.
        The result's slots are left for `_make` to reduce."""
        if not self._wraps:
            return x
        x = self._reduce(x)
        width, mask = self._slot_bits, self._unit_mask
        out = x & self._low_mask
        for r, image in enumerate(self._wraps, self.k.degree):
            out += (x >> r * width & mask) * image
        return out

    def _make(self, v: int, mant: int, known: Optional[int]) -> LocalElement:
        """The precision rule on mant * t^v (`known` low lanes kept, None:
        exact), by lane masks and shifts.  The slots of mant are reduced
        mod p here, so a sum, a difference or a folded product comes as it
        stands.  A reduced slot is below p < 2^(`_slot_bits` - 1), so the
        bit length of the lowest set bit, over the lane width, counts the
        zero lanes below it."""
        bits = self._lane_bits
        if known is not None:
            mant &= (1 << known * bits) - 1
        mant = self._reduce(mant)
        if not mant:
            if known is None:
                return ZERO
            raise PrecisionExhausted("every known digit cancelled")
        lead = (mant & -mant).bit_length() // bits
        if lead:
            mant >>= lead * bits
            v += lead
            if known is not None:
                known -= lead
        if known is None:
            known = -(-mant.bit_length() // bits)
            if known <= self.prec:
                return _new(LocalElement, (v, mant, known, True))
        if known > self.prec:
            known = self.prec
            mant &= (1 << known * bits) - 1
        return _new(LocalElement, (v, mant, known, False))

    def _random_unit(self, rng) -> int:
        coeffs = [rng.randrange(1, self.q)]
        coeffs += [rng.randrange(self.q) for _ in range(self.prec - 1)]
        return self._pack(coeffs)

    def from_integer(self, n: int) -> LocalElement:
        return self._make(0, self._lane[self.k.from_integer(n)], None)

    def residue_lift(self, code: int) -> LocalElement:
        """Exact lift of the residue class with code 0 <= code < q: the
        constant series."""
        return self._make(0, self._lane[code], None)

    # -- ring operations

    _up, _low = operator.lshift, operator.and_
    add, sub, mul = _LocalBase.add, _LocalBase.sub, _LocalBase.mul

    def neg(self, a: LocalElement) -> LocalElement:
        if a.mant is None or self.p == 2:  # -a = a in characteristic 2
            return a
        return _new(LocalElement, (a.v, self._reduce(a.mant * (self.p - 1)),
                                   a.digits, a.exact))

    def _times(self, a: LocalElement, b: LocalElement) -> int:
        """The folded lane product, its slots left for `_make`."""
        if a.digits > b.digits:
            a, b = b, a
        x, y = a.mant, b.mant
        if a.digits <= self._block:
            prod = x * y
        else:
            # x in blocks of `_block` lanes, the sum reduced before each
            # block is added, so that no slot overflows
            step = self._block * self._lane_bits
            low = (1 << step) - 1
            prod = 0
            for s in range(0, a.digits * self._lane_bits, step):
                prod = self._reduce(prod) + ((x >> s & low) * y << s)
        return self._fold(prod)

    def inv(self, a: LocalElement) -> LocalElement:
        """The recurrence out[n] = -c[0]^-1 sum_{j>=1} c[j] out[n-j]: the
        sum is lane n of c * out over the lanes found so far, which `prod`
        keeps shifted down to lane 0."""
        if a.mant is None:
            raise DivisionByZero("inverse of 0")
        k, lane, code = self.k, self._lane, self._code
        bits, mask, size = self._lane_bits, self._lane_mask, self._lane_bytes
        c = a.mant
        lead_inv = k._inv[code[(c & mask).to_bytes(size, "little")]]
        if a.exact and a.digits == 1:
            return _new(LocalElement, (-a.v, lane[lead_inv], 1, True))
        # the inverse of an exact a has no finite expansion here, so it is
        # cut at the window
        digits = self.prec if a.exact else a.digits
        scaled = self._term_lanes[lead_inv]
        # `prod` is reduced every `_block` steps, so no slot overflows, and
        # not at all within the first `_block`.  A lone slot (m = 1) is its
        # code once taken mod p; other lanes are read through their bytes
        # and the mod-p table, or, for slots wider than a byte, reduced at
        # every step and read as they are (translate(None) copies the
        # bytes)
        p = self.p if k.degree == 1 else None
        mod_p = self._mod_p
        out = term = lane[lead_inv]
        prod = 0
        if mod_p and digits <= self._block:
            for n in range(1, digits):
                prod = (prod + c * term) >> bits
                acc = prod & mask
                term = scaled[acc % p if p else code[
                    acc.to_bytes(size, "little").translate(mod_p)]]
                out |= term << n * bits
            return _new(LocalElement, (-a.v, out, digits, False))
        period = self._block if mod_p else 1
        for n in range(1, digits):
            prod = (prod + c * term) >> bits
            if n % period == 0:
                prod = self._reduce(prod)
            acc = prod & mask
            term = scaled[acc % p if p else code[
                acc.to_bytes(size, "little").translate(mod_p)]]
            out |= term << n * bits
        # lane 0 is nonzero and `digits` lanes fit the window: the normal
        # form as it stands
        return _new(LocalElement, (-a.v, out, digits, False))

    def frobenius_inv(self, a: LocalElement) -> LocalElement:
        """The p-th root when one exists at the visible digits."""
        if a.mant is None:
            return a
        p = self.p
        if a.v % p != 0:
            raise FrobeniusNotInvertible(
                f"valuation {a.v} not divisible by {p}")
        coeffs = self.coefficients(a)
        for i, c in enumerate(coeffs):
            if c and (a.v + i) % p != 0:
                raise FrobeniusNotInvertible(
                    f"nonzero digit at exponent {a.v + i} not divisible by {p}")
        out = map(self.k.frobenius_inv, coeffs[::p])
        known = None if a.exact else (a.v + a.digits + p - 1) // p - a.v // p
        return self._make(a.v // p, self._pack(out), known)

    def format_element(self, a: LocalElement) -> str:
        if a.mant is None:
            return "0"
        terms = []
        for i, c in enumerate(self.coefficients(a)):
            if c == 0:
                continue
            e = a.v + i
            cs = self.k.format_element(c)
            if "+" in cs:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(f"t^{e}" if e != 1 else "t")
            else:
                terms.append(f"{cs}*t^{e}" if e != 1 else f"{cs}*t")
        body = "+".join(terms) or "0"
        if a.exact:
            return body
        return f"{body} + O(t^{a.v + a.digits})"

    def _nonzero_json(self, a: LocalElement):
        return {"valuation": a.v, "digits": self.coefficients(a),
                "exact": a.exact}

    def describe(self) -> str:
        return f"F{self.q}((t)) (precision {self.prec})"

    def __repr__(self) -> str:
        return f"LaurentField({self.q}, prec={self.prec})"


# ---------------------------------------------------------------------------
# specification strings, classification, literals

_SPEC_RES = {
    "finite": re.compile(r"^Fq:q=(\d+)$"),
    "padic": re.compile(r"^Qp:p=(\d+),prec=(\d+)$"),
    "laurent": re.compile(r"^Laurent:q=(\d+),prec=(\d+)$"),
    "finite_short": re.compile(r"^F(\d+)$"),
    "padic_short": re.compile(r"^Q(\d+)(?::prec=(\d+))?$"),
}

DEFAULT_PRECISION = 8

Field = Union[FiniteField, PadicField, LaurentField]


def parse_field_spec(spec: str) -> Field:
    """Field from a spec string.

    Grammar: Fq:q=<n> | Qp:p=<prime>,prec=<n> | Laurent:q=<n>,prec=<n>,
    with shorthands F<q> and Q<p> (default precision 8).
    """
    spec = spec.strip()
    if m := _SPEC_RES["finite"].match(spec):
        return finite_field(int(m.group(1)))
    if m := _SPEC_RES["padic"].match(spec):
        return PadicField(int(m.group(1)), int(m.group(2)))
    if m := _SPEC_RES["laurent"].match(spec):
        return LaurentField(int(m.group(1)), int(m.group(2)))
    if m := _SPEC_RES["finite_short"].match(spec):
        return finite_field(int(m.group(1)))
    if m := _SPEC_RES["padic_short"].match(spec):
        prec = int(m.group(2)) if m.group(2) else DEFAULT_PRECISION
        return PadicField(int(m.group(1)), prec)
    raise InvalidSpec(f"unrecognized field spec {spec!r}")


def classify(field: Field) -> dict:
    """Shape report: kind, characteristic, residue field, local or not."""
    out = {
        "kind": field.kind,
        "characteristic": field.char,
        "residue_field": f"F{field.residue_q}",
        "local": field.local,
        "description": field.describe(),
    }
    if field.local:
        out["precision"] = field.prec
        out["uniformizer"] = field.uniformizer_symbol
    return out


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+)?(?:\*?(?P<sym>pi|t|p)(?:\^(?P<exp>-?\d+))?)?$")


def parse_element(field: Field, text: str) -> Element:
    """Element literal: for finite fields an integer code; for local models
    a sum of terms c, c*pi^k / pi^k (p-adic) or c*t^k / t^k (Laurent),
    e.g. "t^-3+t" or "7*pi^2-1"."""
    text = text.strip().replace(" ", "")
    if not field.local:
        try:
            code = int(text)
        except ValueError:
            raise InvalidSpec(f"finite-field literal must be an integer code, "
                              f"got {text!r}") from None
        if not 0 <= code < field.q:
            raise InvalidSpec(f"code {code} out of range for F{field.q}")
        return code
    # split before a sign that starts a term (not the sign of an exponent)
    parts = [p for p in re.split(r"(?<!\^)(?=[+-])", text) if p]
    if not parts:
        raise InvalidSpec(f"empty element literal {text!r}")
    total = ZERO
    for raw in parts:
        sign, term = 1, raw
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign, term = -1, term[1:]
        m = _TERM_RE.match(term) if term else None
        if not m or (m.group("coeff") is None and m.group("sym") is None):
            raise InvalidSpec(f"bad term {raw!r} in element literal")
        coeff = sign * (int(m.group("coeff")) if m.group("coeff") is not None else 1)
        exp = int(m.group("exp")) if m.group("exp") else (1 if m.group("sym") else 0)
        piece = field.mul(field.from_integer(coeff), field.uniformizer_power(exp))
        total = field.add(total, piece)
    return total
