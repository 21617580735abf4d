"""Finite fields and truncated local fields with honest precision tracking.

Three models share one interface: the finite field F_q (q = p^m, polynomial
basis over F_p modulo the lexicographically least monic irreducible), the
field Q_p of p-adic numbers truncated at a fixed relative precision, and the
Laurent-series field F_q((t)) truncated the same way.  F_q works on integer
codes through addition, negation, multiplication and inversion tables built
once from coefficient-wise polynomial arithmetic.  The two local models
carry a discrete valuation v with v(0) treated as infinity, a residue map on
integral elements, its exact section `residue_lift` on residue codes, a
uniformizer (p, respectively t), and exact canonical representatives
modulo pi^k (`mod_pi_power`), so callers never pick a representation by
the kind of field.

Precision model.  A nonzero element is (valuation, mantissa, digits, exact).
Literals and other finite-support constructions are exact; ring operations
on exact operands stay exact while the result still fits inside the
precision window, so an exact full cancellation really returns exact zero
with valuation infinity.  Any truncation drops the exact flag, and results
of inexact operands carry the minimum relative precision of the inputs.
When every known digit of an inexact computation cancels, no claim about
the result is possible and PrecisionExhausted is raised; nothing is ever
silently rounded to zero.  Equality is decided on the common known window
(subtract and classify).

The Frobenius map x -> x^p is additive in characteristic p and the models
expose both it and its inverse; over F_q((t)) the decomposition
x = sum_i (a_i)^p t^i, 0 <= i < p, witnesses that 1, t, ..., t^(p-1) span
the field over its subfield of p-th powers, so the index [F : F^p] is p.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    FrobeniusNotInvertible,
    InvalidSpec,
    PrecisionExhausted,
)

INFINITY = float("inf")


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^m with p prime, else InvalidSpec."""
    if q < 2:
        raise InvalidSpec(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise InvalidSpec(f"{q} is not a prime power")
    return p, m


def _val_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """F_q with elements encoded as integers 0..q-1 (base-p coefficient
    vectors in the polynomial basis).  All operations are table-driven and
    exact: `add`, `neg`, `mul`, `inv` and `pow` are lookups in tables built
    once by coefficient-wise arithmetic (`_decode`, `_encode`, `_poly_mul`),
    which stays available as the reference the tables are tested against."""

    kind = "finite"
    local = False
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
        self.modulus = _least_irreducible(p, m) if m > 1 else None
        coeffs = [self._decode(a) for a in range(q)]
        self._add = [[self._encode([x + y for x, y in zip(ca, cb)])
                      for cb in coeffs] for ca in coeffs]
        self._neg = [self._encode([-x for x in ca]) for ca in coeffs]
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
        self._frob = [self.pow(a, p) for a in range(q)]
        self._frob_inv = [self._frob.index(a) for a in range(q)]

    def _decode(self, code: int) -> list[int]:
        p = self.p
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(code % p)
            code //= p
        return coeffs

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
        mod = self.modulus
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(self.degree):
                    prod[k - self.degree + j] = (
                        prod[k - self.degree + j] - c * mod[j]) % p
        return self._encode(prod[:self.degree])

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
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_q")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        row = self._mul[a]
        r = 1
        for _ in range(n):
            r = row[r]
        return r

    def valuation(self, a: int):
        return INFINITY if a == 0 else 0

    def residue(self, a: int) -> int:
        return a

    @property
    def residue_field(self) -> "FiniteField":
        return self

    def frobenius(self, a: int) -> int:
        return self._frob[a]

    def frobenius_inv(self, a: int) -> int:
        return self._frob_inv[a]

    def from_integer(self, n: int) -> int:
        return n % self.p

    def generator(self) -> int:
        """Class of the polynomial variable (only meaningful for q > p)."""
        return self.p if self.degree > 1 else 1

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def random_element(self, rng, nonzero: bool = False) -> int:
        return rng.randrange(1 if nonzero else 0, self.q)

    def canonical_key(self, a: int) -> int:
        return a

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
    as a coefficient tuple (c0, ..., c_{m-1}, 1).  Deterministic, so the
    polynomial model of F_q never depends on run order."""

    def poly_mod(num: list[int], den: list[int]) -> list[int]:
        num = num[:]
        dn = len(den) - 1
        inv_lead = pow(den[-1], -1, p)
        for k in range(len(num) - 1, dn - 1, -1):
            c = (num[k] * inv_lead) % p
            if c:
                for j in range(dn + 1):
                    num[k - dn + j] = (num[k - dn + j] - c * den[j]) % p
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        return num

    def all_monic(deg: int):
        for code in range(p ** deg):
            coeffs = []
            c = code
            for _ in range(deg):
                coeffs.append(c % p)
                c //= p
            yield coeffs + [1]

    for cand in all_monic(m):
        ok = True
        for d in range(1, m // 2 + 1):
            for div in all_monic(d):
                rem = poly_mod(cand, div)
                if rem == [0]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(cand)
    raise InvalidSpec(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# local models


class LocalElement(NamedTuple):
    """Nonzero element: mantissa * pi^v.  `digits` is the known relative
    window; `exact` marks finite-support values known completely."""
    v: int
    mant: object          # int (p-adic, signed when exact) or tuple (Laurent)
    digits: int
    exact: bool


ZERO = LocalElement(0, None, 0, True)  # unique exact zero, valuation infinity

Element = Union[int, LocalElement]


class _LocalBase:
    """Shared plumbing for the two truncated local models."""

    local = True

    zero = ZERO

    def is_zero(self, a: LocalElement) -> bool:
        return a.mant is None

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def valuation(self, a: LocalElement):
        return INFINITY if a.mant is None else a.v

    def eq(self, a: LocalElement, b: LocalElement) -> bool:
        """Equality on the common known window.

        Exact equal values subtract to exact zero; inexact equal values
        cancel every known digit, which the subtraction reports as
        PrecisionExhausted; any surviving digit is a genuine difference.
        """
        try:
            return self.is_zero(self.sub(a, b))
        except PrecisionExhausted:
            return True

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one
        for _ in range(n):
            r = self.mul(r, a)
        return r

    def uniformizer_power(self, k: int) -> LocalElement:
        return self._monomial(k, 1)

    @property
    def uniformizer(self) -> LocalElement:
        return self._monomial(1, 1)

    def integral(self, a: LocalElement) -> bool:
        return self.is_zero(a) or a.v >= 0


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
        if prec < 1:
            raise InvalidSpec("precision must be positive")
        self.p = p
        self.prec = prec
        self.char = 0
        self.residue_q = p
        self.one = LocalElement(0, 1, 1, True)

    @property
    def residue_field(self) -> FiniteField:
        return finite_field(self.p)

    def _monomial(self, v: int, unit: int) -> LocalElement:
        return LocalElement(v, unit, 1, True)

    def _mant_width(self, m: int) -> int:
        w = 0
        m = abs(m)
        while m:
            w += 1
            m //= self.p
        return w

    def _make_exact(self, v: int, mant: int) -> LocalElement:
        """Canonical exact element; truncates (dropping exactness) when the
        mantissa no longer fits in the precision window."""
        if mant == 0:
            return ZERO
        j = _val_int(mant, self.p)
        v, mant = v + j, mant // self.p ** j
        width = self._mant_width(mant)
        if width > self.prec:
            return LocalElement(v, mant % self.p ** self.prec, self.prec, False)
        return LocalElement(v, mant, width, True)

    def _known_to(self, a: LocalElement):
        # absolute exponent below which every digit of a is known
        return None if a.exact else a.v + a.digits

    def from_integer(self, n: int) -> LocalElement:
        return self._make_exact(0, n)

    def residue_lift(self, code: int) -> LocalElement:
        """Exact lift of the residue class with code 0 <= code < p."""
        return self._make_exact(0, code)

    def add(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None:
            return b
        if b.mant is None:
            return a
        v = min(a.v, b.v)
        A = a.mant * self.p ** (a.v - v)
        B = b.mant * self.p ** (b.v - v)
        if a.exact and b.exact:
            return self._make_exact(v, A + B)
        bounds = [k for k in (self._known_to(a), self._known_to(b)) if k is not None]
        window = min(bounds) - v
        s = (A + B) % self.p ** window
        if s == 0:
            raise PrecisionExhausted(
                "every known digit cancelled in addition")
        j = _val_int(s, self.p)
        digits = min(window - j, self.prec)
        return LocalElement(v + j, (s // self.p ** j) % self.p ** digits,
                            digits, False)

    def neg(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            return a
        if a.exact:
            return LocalElement(a.v, -a.mant, a.digits, True)
        mod = self.p ** a.digits
        return LocalElement(a.v, (-a.mant) % mod, a.digits, False)

    def mul(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None or b.mant is None:
            return ZERO
        if a.exact and b.exact:
            return self._make_exact(a.v + b.v, a.mant * b.mant)
        digits = min(x.digits for x in (a, b) if not x.exact)
        digits = min(digits, self.prec)
        mant = (a.mant * b.mant) % self.p ** digits
        return LocalElement(a.v + b.v, mant, digits, False)

    def inv(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            raise DivisionByZero("inverse of 0")
        if a.exact and a.mant in (1, -1):
            return LocalElement(-a.v, a.mant, 1, True)
        digits = self.prec if a.exact else a.digits
        mod = self.p ** digits
        mant = pow(a.mant % mod, -1, mod)
        return LocalElement(-a.v, mant, digits, False)

    def residue(self, a: LocalElement) -> int:
        if a.mant is None:
            return 0
        if a.v < 0:
            raise ValueError("residue of a non-integral element")
        if a.v > 0:
            return 0
        return a.mant % self.p

    def frobenius(self, a: LocalElement) -> LocalElement:
        # plain p-th power; additivity is a characteristic-p phenomenon
        return self.pow(a, self.p)

    def frobenius_inv(self, a: LocalElement) -> LocalElement:
        raise FrobeniusNotInvertible(
            "characteristic 0: p-th roots are not generally available")

    def mod_pi_power(self, a: LocalElement, k: int) -> LocalElement:
        """Exact canonical representative of a modulo p^k (digits below
        exponent k kept, the rest dropped).  Requires the digits to be
        known that far."""
        if a.mant is None or a.v >= k:
            return ZERO
        width = k - a.v
        if not a.exact and a.digits < width:
            raise PrecisionExhausted(
                f"digits up to p^{k} not known at this precision")
        mant = a.mant % self.p ** width
        if mant == 0:
            return ZERO
        j = _val_int(mant, self.p)
        return LocalElement(a.v + j, mant // self.p ** j,
                            self._mant_width(mant // self.p ** j), True)

    def random_element(self, rng, min_val: int = -2, max_val: int = 2,
                       nonzero: bool = True) -> LocalElement:
        if not nonzero and rng.random() < 0.1:
            return ZERO
        v = rng.randint(min_val, max_val)
        mant = rng.randrange(1, self.p ** self.prec)
        while mant % self.p == 0:
            mant = rng.randrange(1, self.p ** self.prec)
        return LocalElement(v, mant, self._mant_width(mant), True)

    def canonical_key(self, a: LocalElement):
        if a.mant is None:
            return ("zero",)
        assert a.exact, "canonical keys are for exact elements"
        return (a.v, a.mant)

    def _digit_list(self, a: LocalElement) -> list[int]:
        mant = a.mant % self.p ** a.digits
        return [(mant // self.p ** i) % self.p for i in range(a.digits)]

    def format_element(self, a: LocalElement) -> str:
        if a.mant is None:
            return "0"
        if a.exact:
            if a.v == 0:
                return str(a.mant)
            return f"{a.mant}*{self.p}^{a.v}"
        digits = ",".join(map(str, self._digit_list(a)))
        return f"{self.p}^{a.v}*[{digits}] + O({self.p}^{a.v + a.digits})"

    def element_json(self, a: LocalElement):
        if a.mant is None:
            return {"valuation": "infinity", "digits": [], "exact": True}
        return {"valuation": a.v,
                "digits": self._digit_list(a) if not a.exact else None,
                "mantissa": a.mant if a.exact else None,
                "exact": a.exact}

    def describe(self) -> str:
        return f"Q{self.p} (precision {self.prec})"

    def __repr__(self) -> str:
        return f"PadicField({self.p}, prec={self.prec})"


class LaurentField(_LocalBase):
    """F_q((t)) truncated at `prec` relative digits.

    Mantissas are tuples of residue-field codes with nonzero leading entry;
    exact elements are honest Laurent polynomials (trailing zeros trimmed).
    """

    kind = "laurent"
    uniformizer_symbol = "t"

    def __init__(self, q: int, prec: int):
        if prec < 1:
            raise InvalidSpec("precision must be positive")
        self.k = finite_field(q)
        self.q = q
        self.p = self.k.p
        self.prec = prec
        self.char = self.k.p
        self.residue_q = q
        self.one = LocalElement(0, (1,), 1, True)

    @property
    def residue_field(self) -> FiniteField:
        return self.k

    def _monomial(self, v: int, unit: int) -> LocalElement:
        return LocalElement(v, (unit,), 1, True)

    def _make(self, v: int, coeffs: Sequence[int], known: Optional[int]):
        """Normalize a raw window.  `known` is the relative width actually
        known (None for exact/finite support)."""
        coeffs = list(coeffs)
        if known is not None:
            coeffs = coeffs[:known]
        # strip leading zeros, adjusting the valuation
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            if known is None:
                return ZERO
            raise PrecisionExhausted("every known digit cancelled")
        v += lead
        coeffs = coeffs[lead:]
        if known is not None:
            known -= lead
        if known is None:
            # exact: trim trailing zeros, truncate if support is too wide
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) > self.prec:
                return LocalElement(v, tuple(coeffs[:self.prec]), self.prec, False)
            return LocalElement(v, tuple(coeffs), len(coeffs), True)
        known = min(known, self.prec)
        coeffs = (coeffs + [0] * known)[:known]
        return LocalElement(v, tuple(coeffs), known, False)

    def _known_to(self, a: LocalElement):
        return None if a.exact else a.v + a.digits

    def from_integer(self, n: int) -> LocalElement:
        c = self.k.from_integer(n)
        return ZERO if c == 0 else LocalElement(0, (c,), 1, True)

    def from_coeffs(self, v: int, coeffs: Sequence[int]) -> LocalElement:
        """Exact element sum coeffs[i] * t^(v+i), coefficients as residue
        codes."""
        return self._make(v, coeffs, None)

    def residue_lift(self, code: int) -> LocalElement:
        """Exact lift of the residue class with code 0 <= code < q: the
        constant series."""
        return self._make(0, [code], None)

    def add(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None:
            return b
        if b.mant is None:
            return a
        v = min(a.v, b.v)
        bounds = [k for k in (self._known_to(a), self._known_to(b))
                  if k is not None]
        known = (min(bounds) - v) if bounds else None
        width = max(a.v + len(a.mant), b.v + len(b.mant)) - v
        if known is not None:
            width = min(width, known)
        out = [0] * width
        for x in (a, b):
            off = x.v - v
            for i, c in enumerate(x.mant):
                if off + i < width:
                    out[off + i] = self.k.add(out[off + i], c)
        return self._make(v, out, known)

    def neg(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            return a
        return LocalElement(a.v, tuple(self.k.neg(c) for c in a.mant),
                            a.digits, a.exact)

    def mul(self, a: LocalElement, b: LocalElement) -> LocalElement:
        if a.mant is None or b.mant is None:
            return ZERO
        known_rel = [x.digits for x in (a, b) if not x.exact]
        known = min(known_rel) if known_rel else None
        width = len(a.mant) + len(b.mant) - 1
        if known is not None:
            width = min(width, known)
        out = [0] * width
        for i, x in enumerate(a.mant):
            if x == 0:
                continue
            for j, y in enumerate(b.mant):
                if i + j >= width:
                    break
                if y:
                    out[i + j] = self.k.add(out[i + j], self.k.mul(x, y))
        return self._make(a.v + b.v, out, known)

    def inv(self, a: LocalElement) -> LocalElement:
        if a.mant is None:
            raise DivisionByZero("inverse of 0")
        if a.exact and len(a.mant) == 1:
            return LocalElement(-a.v, (self.k.inv(a.mant[0]),), 1, True)
        digits = self.prec if a.exact else a.digits
        c = list(a.mant) + [0] * digits
        lead_inv = self.k.inv(c[0])
        out = [lead_inv]
        for n in range(1, digits):
            acc = 0
            for j in range(1, n + 1):
                acc = self.k.add(acc, self.k.mul(c[j], out[n - j]))
            out.append(self.k.neg(self.k.mul(lead_inv, acc)))
        return self._make(-a.v, out, digits)

    def residue(self, a: LocalElement) -> int:
        if a.mant is None:
            return 0
        if a.v < 0:
            raise ValueError("residue of a non-integral element")
        return a.mant[0] if a.v == 0 else 0

    def frobenius(self, a: LocalElement) -> LocalElement:
        """x -> x^p; additive because the binomial coefficients vanish."""
        if a.mant is None:
            return a
        p = self.p
        known = None if a.exact else a.digits * p
        width = (len(a.mant) - 1) * p + 1
        if known is not None:
            width = min(width, known)
        out = [0] * width
        for i, c in enumerate(a.mant):
            if c and i * p < width:
                out[i * p] = self.k.pow(c, p)
        return self._make(a.v * p, out, known)

    def frobenius_inv(self, a: LocalElement) -> LocalElement:
        """The p-th root when one exists at the visible digits."""
        if a.mant is None:
            return a
        p = self.p
        if a.v % p != 0:
            raise FrobeniusNotInvertible(
                f"valuation {a.v} not divisible by {p}")
        for i, c in enumerate(a.mant):
            if c and (a.v + i) % p != 0:
                raise FrobeniusNotInvertible(
                    f"nonzero digit at exponent {a.v + i} not divisible by {p}")
        width = (len(a.mant) + p - 1) // p
        out = [0] * width
        for j in range(width):
            idx = j * p
            if idx < len(a.mant) and a.mant[idx]:
                out[j] = self.k.frobenius_inv(a.mant[idx])
        known = None if a.exact else (a.v + a.digits + p - 1) // p - a.v // p
        return self._make(a.v // p, out, known)

    def mod_pi_power(self, a: LocalElement, k: int) -> LocalElement:
        """Exact canonical representative modulo t^k (not capped at the
        working precision; these are finite-support normal forms)."""
        if a.mant is None or a.v >= k:
            return ZERO
        width = k - a.v
        if not a.exact and a.digits < width:
            raise PrecisionExhausted(
                f"digits up to t^{k} not known at this precision")
        coeffs = list(a.mant[:width])
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        coeffs = coeffs[lead:]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            return ZERO
        return LocalElement(a.v + lead, tuple(coeffs), len(coeffs), True)

    def random_element(self, rng, min_val: int = -2, max_val: int = 2,
                       nonzero: bool = True) -> LocalElement:
        if not nonzero and rng.random() < 0.1:
            return ZERO
        v = rng.randint(min_val, max_val)
        coeffs = [rng.randrange(1, self.q)]
        coeffs += [rng.randrange(self.q) for _ in range(self.prec - 1)]
        return self._make(v, coeffs, None)

    def canonical_key(self, a: LocalElement):
        if a.mant is None:
            return ("zero",)
        assert a.exact, "canonical keys are for exact elements"
        return (a.v, a.mant)

    def format_element(self, a: LocalElement) -> str:
        if a.mant is None:
            return "0"
        terms = []
        for i, c in enumerate(a.mant):
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

    def element_json(self, a: LocalElement):
        if a.mant is None:
            return {"valuation": "infinity", "digits": [], "exact": True}
        return {"valuation": a.v, "digits": list(a.mant), "exact": a.exact}

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


def frobenius_index_check(field: LaurentField, samples: Sequence[LocalElement]):
    """Decompose each sample as sum_{0<=i<p} (a_i)^p t^i and verify the
    reconstruction; the p summands witness that 1, t, ..., t^(p-1) span the
    field over its p-th powers, so the index [F : F^p] equals p = char.

    Returns {"degree": p, "checked": n, "ok": bool, "witnesses": [...]}.
    """
    if not (field.local and field.char):
        raise InvalidSpec("index check applies to a local field of "
                          "characteristic p")
    p = field.p
    witnesses = []
    ok = True
    for x in samples:
        if field.is_zero(x):
            parts = [ZERO] * p
        else:
            buckets: list[dict[int, int]] = [dict() for _ in range(p)]
            for idx, c in enumerate(x.mant):
                if c == 0:
                    continue
                e = x.v + idx
                i = e % p
                buckets[i][(e - i) // p] = field.k.frobenius_inv(c)
            parts = []
            for i in range(p):
                if not buckets[i]:
                    parts.append(ZERO)
                    continue
                lo = min(buckets[i])
                hi = max(buckets[i])
                coeffs = [buckets[i].get(j, 0) for j in range(lo, hi + 1)]
                parts.append(field.from_coeffs(lo, coeffs))
        recon = ZERO
        for i, a in enumerate(parts):
            term = field.mul(field.frobenius(a), field.uniformizer_power(i))
            recon = field.add(recon, term)
        good = field.eq(recon, x)
        ok = ok and good
        witnesses.append({
            "element": field.format_element(x),
            "parts": [field.format_element(a) for a in parts],
            "ok": good,
        })
    return {"degree": p, "checked": len(samples), "ok": ok,
            "witnesses": witnesses}
