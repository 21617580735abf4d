"""Bruhat-Tits tree of SL2 over a truncated local field.

Vertices are homothety classes of rank-2 lattices, in the canonical form
(a, b): the class of the lattice with basis columns (pi^a, b) and (0, 1),
with b reduced modulo pi^a.  The base vertex (0, 0) is the standard
lattice O^2.  A class moves to a neighbor by refining b modulo pi^(a+1)
(q upward choices) or coarsening to modulo pi^(a-1) (one downward step),
so every vertex has degree q+1 and balls grow by (q+1) q^(r-1) per shell.

A ball of radius r keys each vertex (a, b) by one int, packed from its
level k = a + r (0..2r) and its digit code n, where b = n pi^-r exactly
and n is read in the digit base R of the field (`digit_code`): every b
in the ball has valuation above -r.  The key is (n << shift) | k, with
shift the bit length of 2r.  A step is then plain int arithmetic, the
same for Q_p and F_q((t)): refining adds (c R^k << shift) + 1, an
offset per level and residue lift code c computed up front, and
coarsening is key mod (R^(k-1) << shift), minus one.  No field operation
runs in the search; a vertex is decoded to (a, b) (`TreeBall.vertex`)
only where b itself is needed.  The search appends vertices level by
level, so the vertices at distance d are one index range, and it keeps
edges as the parent that reached each vertex plus a set of every other
pair it finds: empty on a tree, so the edge count n - 1 + len(extra)
detects any cycle.  A ball above BALL_BOUND vertices by the count
formula is refused before it is built.

Graph distance has an independent matrix oracle: for vertex matrices
M, N the quotient C = M^-1 N has elementary divisors pi^r, pi^s and the
distance is (r - s) in absolute value, read off as v(det C) minus twice
the minimal entry valuation; from the base vertex it is
a - 2 min(a, 0, v(b)).  The ball report checks every BFS depth against
this formula, with v(b) read off the code as its zero low digits minus r.

Ends of the tree form the projective line over the field, normalized as
(x : 1) with v(x) >= 0 or (1 : y) with v(y) > 0.  The geodesic ray from
the base vertex toward an end v is materialized by Hermite reduction of
the lattices O.v + pi^d O^2 for d = 0, 1, ...; two rays share exactly a
prefix whose length equals the valuation of the normalized 2x2 minor of
the two ends (offset zero, frozen after brute-force comparison of rays).

The Iwasawa decomposition g = k b is computed by valuation-pivoted
column reduction on the first column of g: the pivot row decides the
shape of an explicit k in SL2(O), and b = k^-1 g comes out upper
triangular; everything is verified by multiplying back under the
precision-window equality.  Boundary transitivity of the integral
subgroup is checked at finite depth on the tree itself: the sphere of
radius d around the base vertex is the projective line over O/pi^d, and
its q^(d-1)(q+1) vertices must form a single orbit under the elementary
matrices with additive-generator entries, acting on vertex matrices.

A root group's valuation filtration U_{alpha, k} ~ {t : v(t) >= k} is counted
through residue representatives: index q at every level (`filtration_indices`).
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import Counter
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import BoundExceeded, InvalidSpec, PrecisionExhausted
from .localfield import (
    INFINITY,
    LocalElement,
    ZERO,
    Field,
)


class TreeVertex(NamedTuple):
    a: int
    b: LocalElement          # exact canonical representative mod pi^a


class BoundaryPoint(NamedTuple):
    x: LocalElement
    y: LocalElement          # normalized: (x : 1), v(x) >= 0, or (1 : y), v(y) > 0


Mat = tuple[tuple[LocalElement, LocalElement], tuple[LocalElement, LocalElement]]


def _require_local(field: Field) -> None:
    if not getattr(field, "local", False):
        raise InvalidSpec("tree constructions need a local field")


def _require_window(field: Field, k: int, name: str) -> None:
    """A radius or depth must lie in 0..field.prec, the distances the
    known digits resolve."""
    _require_local(field)
    if k < 0:
        raise InvalidSpec(f"{name} must be nonnegative")
    if k > field.prec:
        raise InvalidSpec(
            f"{name} {k} exceeds the precision window {field.prec}")


# ---------------------------------------------------------------------------
# vertices

def make_vertex(field: Field, a: int, b: LocalElement) -> TreeVertex:
    return TreeVertex(a, field.mod_pi_power(b, a))


def vertex_label(field: Field, v: TreeVertex) -> str:
    return f"({v.a}, {field.format_element(v.b)})"


@lru_cache(maxsize=8)  # bounded: each command builds its own field
def residue_lifts(field: Field) -> tuple[LocalElement, ...]:
    """Exact lifts of the residue classes, zero first."""
    _require_local(field)
    return tuple(field.residue_lift(code) for code in range(field.residue_q))


def vertex_matrix(field: Field, v: TreeVertex) -> Mat:
    return ((field.uniformizer_power(v.a), v.b),
            (ZERO, field.one))


# ---------------------------------------------------------------------------
# lattice reduction

def hnf_lattice(field: Field, cols: Sequence[Sequence[LocalElement]]
                ) -> TreeVertex:
    """Canonical vertex of the class of the lattice generated by the
    columns.  The column whose bottom entry has least valuation is the
    pivot; a homothety makes that entry 1, the other bottoms are cleared,
    and the surviving top row spans pi^a O."""
    _require_local(field)
    cols = [tuple(col) for col in cols]
    if len(cols) < 2:
        raise InvalidSpec("a lattice needs at least two generators")
    bottoms = [INFINITY if field.is_zero(y) else field.valuation(y)
               for _, y in cols]
    pivot_val = min(bottoms)
    if pivot_val == INFINITY:
        raise InvalidSpec("generators span a rank-1 sublattice")
    pi = bottoms.index(pivot_val)
    px, py = cols[pi]
    inv_py = field.inv(py)
    top_piece = field.mul(px, inv_py)
    tops = []
    for k, (x, y) in enumerate(cols):
        if k == pi:
            continue
        t = field.sub(field.mul(x, inv_py),
                      field.mul(field.mul(y, inv_py), top_piece))
        if not field.is_zero(t):
            tops.append(t)
    if not tops:
        raise InvalidSpec("generators span a rank-1 sublattice")
    a = min(field.valuation(t) for t in tops)
    return make_vertex(field, int(a), top_piece)


# ---------------------------------------------------------------------------
# balls

BALL_BOUND = 10 ** 6


def ball_size(q: int, radius: int) -> int:
    """Vertices within distance radius of a vertex of the (q+1)-regular
    tree: 1 + (q+1)(q^radius - 1)/(q - 1)."""
    return 1 + (q + 1) * (q ** radius - 1) // (q - 1)


def _up_offsets(lifts: Sequence[int], radix: int, radius: int, shift: int
                ) -> list[list[int]]:
    """Per level k = a + radius: what an upward step adds to a key, each
    lift code placed at the digit of exponent a of n, plus one level."""
    return [[(c * radix ** k << shift) + 1 for c in lifts]
            for k in range(2 * radius + 1)]


def _down_moduli(radix: int, radius: int, shift: int
                 ) -> list[Optional[int]]:
    """Per level k = a + radius: the modulus radix^(k-1) << shift of the
    downward step, which keeps the digits of n below exponent a - 1 and
    the level; the step then drops one level.  Level 0 (a equal to
    -radius) is on the sphere and never steps."""
    return [None] + [radix ** (k - 1) << shift
                     for k in range(1, 2 * radius + 1)]


def _code_depth(a: int, n: int, radius: int, radix: int) -> int:
    """Distance from the base vertex by the elementary divisors:
    a - 2 min(a, 0, v(b)), with v(b) the zero low digits of n minus
    radius (b = 0 when n = 0)."""
    if not n:
        return a - 2 * min(a, 0)
    v = -radius
    while not n % radix:
        n //= radix
        v += 1
    return a - 2 * min(a, 0, v)


class TreeBall:
    """All vertices within graph distance `radius` of the base vertex.

    Vertex i is kept as its key `codes[i]` = (n << shift) | (a + radius),
    the vertex (a, n pi^-radius) (see the module docstring); `vertex(i)`
    decodes it and `index` maps a key back to i.  Vertices are numbered
    in breadth-first order, so distance d is the range `level(d)`.  Edge
    (parent[i], i) reached each vertex i > 0; `extra` holds every other
    edge found, as pairs (i, j) with i <= j, and is empty on a tree.

    A ball above BALL_BOUND vertices raises BoundExceeded before any
    vertex is built."""

    def __init__(self, field: Field, radius: int):
        _require_window(field, radius, "radius")
        self.field = field
        self.radius = radius
        self.q = field.residue_q
        self.expected_count = ball_size(self.q, radius)
        if self.expected_count > BALL_BOUND:
            raise BoundExceeded(
                f"a ball of radius {radius} has {self.expected_count} "
                f"vertices, past the bound {BALL_BOUND}")
        self.radix = radix = field.digit_code(field.uniformizer_power(1), 0)
        self.shift = shift = (2 * radius).bit_length()
        self.mask = mask = (1 << shift) - 1
        lifts = [field.digit_code(c, 0) for c in residue_lifts(field)]
        ups = _up_offsets(lifts, radix, radius, shift)
        downs = _down_moduli(radix, radius, shift)
        codes = self.codes = [radius]          # the base vertex: n = 0, a = 0
        index = self.index = {radius: 0}
        parent = self.parent = array("i", [-1])  # BALL_BOUND fits 32 bits
        extra = self.extra = set()
        starts = self.starts = [0, 1]
        for _ in range(radius):
            for vi in range(starts[-2], starts[-1]):
                key = codes[vi]
                k = key & mask
                back = parent[vi]
                steps = [key + off for off in ups[k]]
                steps.append(key % downs[k] - 1)
                for w in steps:
                    wi = index.get(w)
                    if wi is None:
                        index[w] = len(codes)
                        codes.append(w)
                        parent.append(vi)
                    elif wi != back and parent[wi] != vi:
                        extra.add((vi, wi) if vi < wi else (wi, vi))
            starts.append(len(codes))

    def level(self, d: int) -> range:
        """The vertices at distance d from the base vertex."""
        return range(self.starts[d], self.starts[d + 1])

    def vertex(self, i: int) -> TreeVertex:
        key = self.codes[i]
        return TreeVertex((key & self.mask) - self.radius,
                          self.field.from_digit_code(key >> self.shift,
                                                     -self.radius))

    def degrees(self) -> list[int]:
        deg = [1] * len(self.codes)
        deg[0] = 0
        for i in itertools.islice(self.parent, 1, None):
            deg[i] += 1
        for i, j in self.extra:
            deg[i] += 1
            deg[j] += 1
        return deg

    def counts_by_distance(self) -> list[int]:
        return [len(self.level(d)) for d in range(self.radius + 1)]

    def report(self) -> dict:
        q, radius, radix = self.q, self.radius, self.radix
        n = len(self.codes)
        expected = self.expected_count
        shells = self.counts_by_distance()
        expected_shells = [1] + [(q + 1) * q ** (d - 1)
                                 for d in range(1, radius + 1)]
        deg = self.degrees()
        interior = self.starts[radius]
        interior_ok = deg[:interior].count(q + 1) == interior
        shift, mask = self.shift, self.mask
        oracle_ok = all(
            _code_depth((key & mask) - radius, key >> shift, radius,
                        radix) == d
            for d in range(radius + 1)
            for key in self.codes[self.starts[d]:self.starts[d + 1]])
        edge_count = n - 1 + len(self.extra)
        ok = (n == expected and edge_count == n - 1
              and shells == expected_shells and interior_ok and oracle_ok)
        return {
            "field": self.field.describe(),
            "q": q,
            "radius": radius,
            "vertex_count": n,
            "expected_count": expected,
            "edge_count": edge_count,
            "acyclic_connected": edge_count == n - 1,
            "counts_by_distance": shells,
            "expected_by_distance": expected_shells,
            "base_degree": deg[0],
            "interior_degrees_ok": interior_ok,
            "distance_oracle_ok": oracle_ok,
            "ok": ok,
        }

    def dot(self) -> str:
        lines = ["graph tree_ball {",
                 "  node [shape=circle, fontsize=10];"]
        for i in range(len(self.codes)):
            label = vertex_label(self.field, self.vertex(i))
            lines.append(f'  n{i} [label="{label}"];')
        tree = zip(self.parent[1:], range(1, len(self.codes)))
        for i, j in sorted(itertools.chain(tree, self.extra)):
            lines.append(f"  n{i} -- n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_tree_ball(field: Field, radius: int) -> TreeBall:
    return TreeBall(field, radius)


# ---------------------------------------------------------------------------
# boundary

def normalize_end(field: Field, x: LocalElement, y: LocalElement
                  ) -> BoundaryPoint:
    if field.is_zero(x) and field.is_zero(y):
        raise InvalidSpec("(0 : 0) is not a projective point")
    if field.valuation(y) <= field.valuation(x):
        return BoundaryPoint(field.div(x, y), field.one)
    return BoundaryPoint(field.one, field.div(y, x))


def end_label(field: Field, e: BoundaryPoint) -> str:
    return (f"({field.format_element(e.x)} : {field.format_element(e.y)})")


def ends_equal(field: Field, e1: BoundaryPoint, e2: BoundaryPoint) -> bool:
    return field.is_zero(mat_det(field, ((e1.x, e1.y), (e2.x, e2.y))))


def ray_to_end(field: Field, end: BoundaryPoint, depth: int
               ) -> list[TreeVertex]:
    """The geodesic from the base vertex toward the end: vertex d is the
    class of O.v + pi^d O^2."""
    _require_window(field, depth, "depth")
    v = (end.x, end.y)
    out = []
    for d in range(depth + 1):
        pd = field.uniformizer_power(d)
        out.append(hnf_lattice(field, [v, (pd, ZERO), (ZERO, pd)]))
    return out


def cone_vs_ultrametric(field: Field, x: BoundaryPoint, y: BoundaryPoint,
                        depth: int) -> tuple[int, int, bool]:
    """(agreement, valuation_distance, consistent): the rays from the base
    toward two distinct ends share a prefix of length exactly the valuation
    of the normalized minor (clamped by the inspected depth)."""
    cross = mat_det(field, ((x.x, x.y), (y.x, y.y)))
    if field.is_zero(cross):
        raise InvalidSpec("ends coincide")
    vd = int(field.valuation(cross))
    rx = ray_to_end(field, x, depth)
    ry = ray_to_end(field, y, depth)
    agreement = 0
    for vx, vy in zip(rx[1:], ry[1:]):
        if vx != vy:
            break
        agreement += 1
    consistent = agreement == min(vd, depth)
    return agreement, vd, consistent


def cone_correspondence_report(field: Field, depth: int, pairs: int,
                               seed: int = 0) -> dict:
    """Sampled end pairs: agreement always matches the minor valuation."""
    if pairs < 1:
        raise InvalidSpec("--samples must be at least 1")
    rng = random.Random(seed)
    checked = 0
    failures = []
    attempts = 0
    while checked < pairs and attempts < 20 * pairs + 50:
        attempts += 1
        ends = []
        for _ in range(2):
            pick = rng.random()
            if pick < 0.1:
                ends.append(BoundaryPoint(field.one, ZERO))
            elif pick < 0.2:
                ends.append(BoundaryPoint(ZERO, field.one))
            elif pick < 0.35:
                y = field.random_element(rng, min_val=1, max_val=depth + 1)
                ends.append(normalize_end(field, field.one, y))
            else:
                x = field.random_element(rng, min_val=0, max_val=depth + 1)
                ends.append(normalize_end(field, x, field.one))
        if ends_equal(field, ends[0], ends[1]):
            continue
        agreement, vd, consistent = cone_vs_ultrametric(
            field, ends[0], ends[1], depth)
        checked += 1
        if not consistent:
            failures.append({
                "x": end_label(field, ends[0]),
                "y": end_label(field, ends[1]),
                "agreement": agreement,
                "valuation_distance": vd,
            })
    return {
        "field": field.describe(),
        "depth": depth,
        "pairs_checked": checked,
        "failures": failures[:10],
        "ok": checked == pairs and not failures,
    }


# ---------------------------------------------------------------------------
# matrices and the Iwasawa decomposition

def _mat_entry(field: Field, A: Mat, B: Mat, i: int, j: int
               ) -> LocalElement:
    """Entry (i, j) of AB: row i of A times column j of B."""
    return field.add(field.mul(A[i][0], B[0][j]),
                     field.mul(A[i][1], B[1][j]))


def mat_mul(field: Field, A: Mat, B: Mat) -> Mat:
    return ((_mat_entry(field, A, B, 0, 0), _mat_entry(field, A, B, 0, 1)),
            (_mat_entry(field, A, B, 1, 0), _mat_entry(field, A, B, 1, 1)))


def mat_det(field: Field, A: Mat) -> LocalElement:
    return field.sub(field.mul(A[0][0], A[1][1]),
                     field.mul(A[0][1], A[1][0]))


def mat_integral(field: Field, A: Mat) -> bool:
    return all(field.integral(A[i][j]) for i in range(2) for j in range(2))


def mat_json(field: Field, A: Mat) -> list[list[str]]:
    return [[field.format_element(A[i][j]) for j in range(2)]
            for i in range(2)]


def sl2_sample(field: Field, rng: random.Random) -> Mat:
    """A determinant-1 matrix: primitive integral first column, a
    particular second column solving the determinant, a random shift
    along the first column, and a diagonal pi^j twist.

    The shift can cancel every known digit of an inexact entry; that draw
    raises PrecisionExhausted.  Nothing about the matrix has been checked
    at that point, so no check passes by construction."""
    _require_local(field)
    if rng.random() < 0.5:
        u1 = field.random_element(rng, min_val=0, max_val=0)
        u2 = (ZERO if rng.random() < 0.15
              else field.random_element(rng, min_val=0, max_val=3))
    else:
        u2 = field.random_element(rng, min_val=0, max_val=0)
        u1 = (ZERO if rng.random() < 0.15
              else field.random_element(rng, min_val=1, max_val=3))
    if not field.is_zero(u1) and field.valuation(u1) == 0:
        v1, v2 = ZERO, field.inv(u1)
    else:
        v1, v2 = field.neg(field.inv(u2)), ZERO
    t = field.random_element(rng, min_val=-1, max_val=2, nonzero=False)
    w1 = field.add(v1, field.mul(t, u1))
    w2 = field.add(v2, field.mul(t, u2))
    j = rng.randint(-2, 2)
    pj = field.uniformizer_power(j)
    pmj = field.uniformizer_power(-j)
    return ((field.mul(u1, pj), field.mul(w1, pmj)),
            (field.mul(u2, pj), field.mul(w2, pmj)))


def iwasawa_decompose(field: Field, g: Mat) -> dict:
    """g = k b with k integral of unit determinant (base-vertex stabilizer)
    and b upper triangular; the pivot is the first-column entry of least
    valuation.  All claims are re-verified on the result."""
    _require_local(field)
    if not field.eq(mat_det(field, g), field.one):
        raise InvalidSpec("decomposition expects determinant 1")
    c1, c2 = g[0][0], g[1][0]
    if field.is_zero(c1) and field.is_zero(c2):
        raise InvalidSpec("singular input")
    vals = [field.valuation(c) for c in (c1, c2) if not field.is_zero(c)]
    m = int(min(vals))
    scale = field.uniformizer_power(-m)
    u1 = field.mul(c1, scale)
    u2 = field.mul(c2, scale)
    if not field.is_zero(u1) and field.valuation(u1) == 0:
        u1_inv = field.inv(u1)
        k: Mat = ((u1, ZERO), (u2, u1_inv))
        kinv: Mat = ((u1_inv, ZERO), (field.neg(u2), u1))
    else:
        u2_inv = field.inv(u2)
        k = ((u1, field.neg(u2_inv)), (u2, ZERO))
        kinv = ((ZERO, u2_inv), (field.neg(u2), u1))

    # b21 is zero exactly, or zero to the working precision when every
    # known digit cancels; a surviving digit is a genuine failure
    cancelled = False
    try:
        upper_triangular = field.is_zero(_mat_entry(field, kinv, g, 1, 0))
    except PrecisionExhausted:
        upper_triangular = cancelled = True
    b: Mat = ((_mat_entry(field, kinv, g, 0, 0),
               _mat_entry(field, kinv, g, 0, 1)),
              (ZERO, _mat_entry(field, kinv, g, 1, 1)))

    back = mat_mul(field, k, b)
    multiply_back = all(field.eq(back[i][j], g[i][j])
                        for i in range(2) for j in range(2))
    det_k = mat_det(field, k)
    checks = {
        "k_integral": mat_integral(field, k),
        "k_unit_determinant": (not field.is_zero(det_k)
                               and field.valuation(det_k) == 0
                               and field.eq(det_k, field.one)),
        "b_upper_triangular": upper_triangular,
        "b_determinant_one": field.eq(mat_det(field, b), field.one),
        "multiply_back": multiply_back,
    }
    return {
        "k": k,
        "b": b,
        "checks": checks,
        "b21_cancelled_to_precision": cancelled,
        "ok": all(checks.values()),
    }


def iwasawa_report(field: Field, samples: int, seed: int = 0) -> dict:
    """Decompose `samples` (at least one) sampled SL2 matrices.  A draw
    that runs out of precision, sampled or decomposed, is counted as
    exhausted and drawn again, up to 3 * samples + 30 draws in all."""
    if samples < 1:
        raise InvalidSpec("--samples must be at least 1")
    rng = random.Random(seed)
    drawn = verified = exhausted = 0
    failures = []
    while verified + len(failures) < samples and drawn < 3 * samples + 30:
        drawn += 1
        try:
            g = sl2_sample(field, rng)
            result = iwasawa_decompose(field, g)
        except PrecisionExhausted:
            exhausted += 1
            continue
        if result["ok"]:
            verified += 1
        else:
            failures.append({"sample": drawn - 1,
                             "g": mat_json(field, g),
                             "checks": result["checks"]})
    return {
        "field": field.describe(),
        "samples": samples,
        "verified": verified,
        "exhausted": exhausted,
        "failures": failures[:5],
        "ok": verified == samples and not failures,
    }


# ---------------------------------------------------------------------------
# boundary transitivity at finite depth

def _elementary_steps(field: Field, depth: int) -> list[LocalElement]:
    """Additive generators s of O/pi^depth: 1 alone in characteristic 0
    (Z/p^depth is cyclic), and the lifts of the F_p-basis w^i of the
    residue field times pi^j in characteristic p."""
    if field.char == 0:
        return [field.one]
    return [field.mul(field.residue_lift(b), field.uniformizer_power(j))
            for j in range(depth) for b in field.residue_field.basis()]


def boundary_transitivity_check(field: Field, depth: int) -> dict:
    """Orbit structure of the elementary integral matrices E12(+-s) and
    E21(+-s), s in `_elementary_steps`, on the sphere of radius `depth`
    around the base vertex: the projective line over O/pi^depth, whose
    q^(depth-1)(q+1) vertices must form one orbit.

    A matrix g moves a vertex v to the class of the lattice spanned by the
    columns of g M_v; an image off the sphere is a failure."""
    if depth < 1:
        raise InvalidSpec("depth must be at least 1")
    _require_window(field, depth, "depth")
    ball = TreeBall(field, depth)
    sphere = [ball.vertex(i) for i in ball.level(depth)]
    points = set(sphere)
    q = field.residue_q
    expected = q ** (depth - 1) * (q + 1)

    one = field.one
    gens = []
    for s in _elementary_steps(field, depth):
        for t in (s, field.neg(s)):
            gens.append(((one, t), (ZERO, one)))
            gens.append(((one, ZERO), (t, one)))

    left_sphere = False
    seen: set = set()
    orbits = []
    for start in sphere:
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        size = 1
        while frontier:
            v = frontier.pop()
            for g in gens:
                image = mat_mul(field, g, vertex_matrix(field, v))
                w = hnf_lattice(field, list(zip(*image)))
                if w not in points:
                    left_sphere = True
                elif w not in seen:
                    seen.add(w)
                    frontier.append(w)
                    size += 1
        orbits.append(size)
    return {
        "field": field.describe(),
        "depth": depth,
        "classes": len(points),
        "expected_classes": expected,
        "orbit_count": len(orbits),
        "orbit_sizes": sorted(orbits, reverse=True),
        "generators": len(gens),
        "ok": (len(points) == expected and len(orbits) == 1
               and not left_sphere),
    }


# ---------------------------------------------------------------------------
# valuation filtration of a root group over a local field

FILTRATION_SAMPLES = 40  # sampled elements of each valuation ball


def filtration_indices(field: Field, k_lo: int, k_hi: int,
                       seed: int = 0) -> dict:
    """Indices of successive valuation balls U_k = {t : v(t) >= k}.  The
    index [U_k : U_(k+1)] is measured as the number of distinct classes
    modulo pi^(k+1) (exact representatives from `mod_pi_power`) met by the
    residue representatives t = residue_lift(c) * pi^k.  They form a
    transversal when they lie in U_k with distinct classes, and each
    sampled element of U_k must fall in the class of exactly one of them;
    the measured index is the residue field size at every level when the
    check passes."""
    if not field.local:
        raise InvalidSpec("filtration needs a local field")
    if k_lo > k_hi:
        raise InvalidSpec("empty filtration range")
    rng = random.Random(seed)
    levels = []
    ok = True
    for k in range(k_lo, k_hi + 1):
        pik = field.uniformizer_power(k)
        reps = [field.mul(field.residue_lift(code), pik)
                for code in range(field.residue_q)]
        met = Counter(field.mod_pi_power(rep, k + 1) for rep in reps)
        distinct = (len(met) == len(reps)
                    and all(field.valuation(rep) >= k for rep in reps))
        covered = 0
        for _ in range(FILTRATION_SAMPLES):
            x = field.random_element(rng, min_val=k, max_val=k + 3)
            if met[field.mod_pi_power(x, k + 1)] == 1:
                covered += 1
        level_ok = distinct and covered == FILTRATION_SAMPLES
        ok = ok and level_ok
        levels.append({"k": k, "index": len(met),
                       "distinct": distinct,
                       "samples_covered": covered, "ok": level_ok})
    return {
        "field": field.describe(),
        "range": [k_lo, k_hi],
        "levels": levels,
        "indices": [lvl["index"] for lvl in levels],
        "expected_index": field.residue_q,
        "ok": ok and all(lvl["index"] == field.residue_q for lvl in levels),
    }
