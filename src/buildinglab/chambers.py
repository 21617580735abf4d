"""Chamber complexes and their building structure.

A chamber is a tuple with one component per type; for each type i, an
i-panel collects the chambers that differ only in their type-i component.
The flag geometries are rows in `geometries`, and build_flag_building is
the one place where a family's flags meet the complex.

The W-valued distance delta(c, d) is computed by breadth-first search over
minimal galleries, folding the gallery type into the Coxeter system as the
search goes; well-definedness of that assignment across all minimal
galleries is exactly the consistency property that the verification report
surfaces.  The search scans each panel once, from its gate, and declines
a base at the first conflict it meets: delta from that base is no
W-distance, B2 reports the conflict as its witness, and every other query
from the base raises NotFound naming it.  A row is kept as bytes, its
delta indices and their Coxeter lengths, so a Coxeter group of more than
256 elements is refused.  Apartments are produced constructively: extend
d to a chamber opposite c by length-increasing panel steps, then collect
the convex hull {e : delta(c,e) * delta(e,d') = w0 with lengths adding},
and check it is thin and W-isometric.  Chamber sets on that path are int
bitmasks, bit c for chamber c: the hull is an OR of
cell-mask intersections, thinness counts the hull's bits in each panel
mask, and W-isometry compares one picked delta row per hull chamber
against a row of the Coxeter product table.  Projections to
panels are gates: the unique chamber of the panel at minimal gallery
distance.  Gallery distance is symmetric, so the gate of c on a panel P
reads either c's BFS table or the tables of P's members.  projection
reads c's side; the Schubert coordinates read the side that stays fixed
(c0's table, or a fixed anchor panel's), so checking every cell builds one
table per anchor-panel member plus c0's, not one per chamber.

Cells: C_w(c0) = {d : delta(c0, d) = w} partitions the chambers.  The
complex measures its panel parameters, q_i = the size of an i-panel minus
one per type i, and in a building |C_w| is the product of q_s over the
letters s of a reduced word of w.  Coordinates on a cell, named by a
reduced word of w, peel every letter of that word from the right, one
level each: for the current element v = v' * s_i, with j the conjugate of
i by w0 and d a fixed chamber at delta(c0, d) = v * w0, the maps (a, b)
-> proj_{p^i(a)}(b) and c -> (proj_{p^i(c)}(c0), proj_{p^j(d)}(c)) are
mutually inverse between C_v' x (p^j(d) minus d) and C_v.  The last level
reaches C_e = {c0}, so a cell is a product of punctured panels, the empty
product for w = e.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .coxeter import CoxeterSystem
from .errors import InvalidSpec, NotFound, NotReduced, NotUnique
from .geometries import geometry_flags

Chamber = tuple                  # tuple of per-type components
PanelId = tuple[int, int]        # (type, panel index)


# ---------------------------------------------------------------------------
# chamber sets as bitmasks

def _mask_of(chambers: Iterable[int]) -> int:
    """The chambers as a bitmask: bit c set for each c."""
    mask = 0
    for c in chambers:
        mask |= 1 << c
    return mask


def _picker(indices: Sequence[int]):
    """itemgetter over indices, giving a tuple for any number of them."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[k] for k in indices)


# ---------------------------------------------------------------------------
# the chamber complex

class ChamberComplex:
    """Chambers plus i-panel partitions, with an attached Coxeter system of
    at most 256 elements.  Only this module reads the panel tables panels
    and panel_of, and the delta rows as _delta_from builds them; others ask
    the panel methods, panel_masks, the delta readers and the automorphism
    test.  A delta reader gives byte rows, and refuses with NotFound a
    base where delta is no W-distance.  thickness[i] is the measured
    parameter of type i: the size of its panels minus one, or None where
    they differ in size."""

    def __init__(self, chambers: Sequence[Chamber], matrix, geometry: str):
        if not chambers:
            raise InvalidSpec("empty chamber set")
        self.geometry = geometry
        self.chambers: list[Chamber] = sorted(chambers)
        self.size = len(self.chambers)
        self.rank = len(self.chambers[0])
        self.coxeter = CoxeterSystem(matrix)
        order = self.coxeter.order
        if order > 256:
            raise InvalidSpec(f"Coxeter order {order} passes 256, the most "
                              "a byte delta row holds")
        # translate tables: each index's length; per w, digit 1 at w only
        self._lengths = bytes(self.coxeter.length).ljust(256, b"\0")
        self._cell_digits = [b"0" * w + b"1" + b"0" * (255 - w)
                             for w in range(order)]
        self.panels: list[list[tuple[int, ...]]] = []
        self.panel_of: list[list[int]] = []
        self.panel_masks: list[list[int]] = []     # per type, as bitmasks
        for i in range(self.rank):
            groups: dict[tuple, list[int]] = {}
            for k, ch in enumerate(self.chambers):
                key = ch[:i] + ch[i + 1:]
                groups.setdefault(key, []).append(k)
            plist = sorted(tuple(sorted(g)) for g in groups.values())
            self.panels.append(plist)
            self.panel_masks.append([_mask_of(g) for g in plist])
            lookup = [0] * self.size
            for pidx, members in enumerate(plist):
                for c in members:
                    lookup[c] = pidx
            self.panel_of.append(lookup)
        self.thickness: tuple[Optional[int], ...] = tuple(
            len(plist[0]) - 1 if len({len(m) for m in plist}) == 1 else None
            for plist in self.panels)
        # per type: pick each panel's first member, each chamber's panel
        self._heads = [_picker([m[0] for m in p]) for p in self.panels]
        self._by_panel = [_picker(lookup) for lookup in self.panel_of]
        self._delta_cache: dict[int, tuple] = {}
        self._mask_cache: dict[int, tuple[int, ...]] = {}

    # -- navigation ------------------------------------------------------

    def panel_id(self, i: int, c: int) -> PanelId:
        return (i, self.panel_of[i][c])

    def panel_members(self, panel: PanelId) -> tuple[int, ...]:
        return self.panels[panel[0]][panel[1]]

    def copanel_members(self, i: int, c: int) -> tuple[int, ...]:
        return self.panels[i][self.panel_of[i][c]]

    def all_panel_ids(self) -> Iterator[PanelId]:
        for i in range(self.rank):
            for pidx in range(len(self.panels[i])):
                yield (i, pidx)

    def panel_images(self, g: Sequence[int]) -> list[tuple[int, ...]]:
        """Per type, each panel's image under g, read at its first member."""
        return [_picker(heads(g))(pof)
                for heads, pof in zip(self._heads, self.panel_of)]

    def is_automorphism(self, g: Sequence[int]) -> bool:
        """Whether g is a type-preserving automorphism: a bijection mapping
        each panel into its image (per type, panel_of picked at g equals the
        images picked at panel_of); being onto, it leaves no image shared."""
        n = self.size
        if len(g) != n or len(set(g)) != n or min(g) != 0 or max(g) != n - 1:
            return False
        through_g = _picker(g)
        return all(through_g(pof) == by_panel(images) for pof, by_panel, images
                   in zip(self.panel_of, self._by_panel, self.panel_images(g)))

    # -- W-distance ------------------------------------------------------

    def _delta_from(self, c: int):
        """BFS table from c: (dist, delta index, ()) as byte rows, cached.

        The panel-once pass (_delta_pass) builds it.  A base it declines
        keeps its witness in the cache and raises NotFound naming it, here
        and on every later read, so every query is refused where delta is
        no W-distance.  Every query reads its rows through here, so a
        chamber out of range is refused once, here.
        """
        cached = self._delta_cache.get(c)
        if cached is None:
            if not 0 <= c < self.size:
                raise InvalidSpec(
                    f"base chamber {c} out of range 0..{self.size - 1}")
            cached = self._delta_cache[c] = self._delta_pass(c)
        if cached[1] is None:
            raise NotFound(f"delta from chamber {c} is not a W-distance: "
                           f"{cached[2][0]}")
        return cached

    def _delta_pass(self, c: int):
        """The row from c as bytes, or the first conflict met as a witness.

        Each panel is scanned once, from its first-reached member (its
        gate); every other member lies one step further, at delta(gate) *
        s_i.  A member already holding another delta (closer than the
        step: no-gate; as far: gallery-conflict), an assignment whose
        Coxeter length is not its gallery distance (length-drop) or a
        chamber never reached (disconnected) declines the row, as
        (None, None, (witness,)), the witness (kind, c, d, e, i).  Lengths
        equal distances throughout, so delta alone tells a member's
        distance and dist is read off at the end.
        """
        right = self.coxeter.right
        length = self.coxeter.length
        types = [(i, self.panels[i], self.panel_of[i],
                  bytearray(len(self.panels[i]))) for i in range(self.rank)]
        delta = [-1] * self.size
        delta[c] = 0
        frontier = [c]
        up = 1            # the distance of the chambers found next
        while frontier:
            nxt = []
            for d in frontier:
                right_d = right[delta[d]]
                for i, plist, pof, seen in types:
                    p = pof[d]
                    if seen[p]:
                        continue
                    seen[p] = 1
                    ws = right_d[i]
                    for e in plist[p]:
                        de = delta[e]
                        if de == ws or e == d:
                            continue
                        if de != -1:
                            kind = ("no-gate" if length[de] < up
                                    else "gallery-conflict")
                            return None, None, ((kind, c, d, e, i),)
                        if length[ws] != up:
                            return None, None, (("length-drop", c, d, e, i),)
                        delta[e] = ws
                        nxt.append(e)
            frontier = nxt
            up += 1
        if -1 in delta:
            return None, None, (
                ("disconnected", c, delta.index(-1), None, None),)
        row = bytes(delta)
        return row.translate(self._lengths), row, ()

    def delta_row(self, c: int) -> bytes:
        """delta(c, d) for every chamber d, as element indices."""
        return self._delta_from(c)[1]

    def row_violations(self, c: int) -> tuple[tuple, ...]:
        """The pass's witness from c, as a 1-tuple, or () where it accepts
        c's row; a declined base is reported, not refused."""
        try:
            return self._delta_from(c)[2]
        except NotFound:
            return self._delta_cache[c][2]

    def w_distance(self, c: int, d: int) -> int:
        row = self.delta_row(c)
        if not 0 <= d < self.size:
            raise InvalidSpec(f"chamber {d} out of range 0..{self.size - 1}")
        return row[d]

    def has_row(self, c: int) -> bool:
        """Whether c's delta row is built: reading it, or the cells of c,
        runs no breadth-first pass."""
        return c in self._delta_cache

    def cell_masks(self, x: int) -> tuple[int, ...]:
        """The cells of x as bitmasks: entry w has bit y set when
        delta(x, y) = w.  The byte row is read in C: reversed, so that
        chamber y lands on bit y, and translated once per w into the
        digits of its cell."""
        cached = self._mask_cache.get(x)
        if cached is None:
            back = self.delta_row(x)[::-1]
            cached = self._mask_cache[x] = tuple(
                int(back.translate(digits), 2)
                for digits in self._cell_digits)
        return cached

    # -- gates -----------------------------------------------------------

    def projection(self, panel: PanelId, c: int) -> int:
        """The gate: unique chamber of the panel nearest to c."""
        return self._gate(panel, c)

    def _gate(self, panel: PanelId, c: int, from_panel: bool = False) -> int:
        """The gate of c on the panel.  Gallery distance is symmetric, so
        the distances are read from c's table or, with from_panel, from the
        members' own tables: a fixed panel then answers every c from its
        members' cached tables."""
        members = self.panel_members(panel)
        if from_panel:
            dists = [self._delta_from(e)[0][c] for e in members]
        else:
            dist = self._delta_from(c)[0]
            dists = [dist[e] for e in members]
        best = min(dists)
        gates = [e for e, x in zip(members, dists) if x == best]
        if len(gates) != 1:
            raise NotUnique(
                f"panel {panel} has {len(gates)} chambers nearest to {c}")
        return gates[0]

    # -- apartments --------------------------------------------------------

    def extend_to_opposite(self, c: int, d: int) -> int:
        """A chamber d' opposite c with d on a minimal gallery from c to d',
        built by length-increasing panel steps (lex-least choices)."""
        W = self.coxeter
        v = self.w_distance(c, d)
        rest = W.words[W.multiply(W.inverse[v], W.longest)]
        delta = self.delta_row(c)
        cur = d
        for s in rest:
            target = W.right[delta[cur]][s]
            options = [e for e in self.copanel_members(s, cur)
                       if e != cur and delta[e] == target]
            if not options:
                raise NotFound(
                    f"no length-increasing step of type {s} from {cur}")
            cur = min(options)
        return cur

    def apartment_hull(self, c: int, d_opp: int) -> list[int]:
        """Convex hull of an opposite pair: the chambers where the two
        distances compose to w0 with lengths adding, ascending.

        The chambers e with delta(c, e) = w0 delta(d_opp, e) are the OR
        over u in W of the cell masks of c at u and of d_opp at w0 u; the
        length test then reads only those bits."""
        W = self.coxeter
        w0 = W.longest
        top = W.length[w0]
        w0_times = W.product_row(w0)
        from_c, from_d = self.cell_masks(c), self.cell_masks(d_opp)
        candidates = 0
        for u in range(W.order):
            candidates |= from_c[u] & from_d[w0_times[u]]
        dist_c = self._delta_from(c)[0]
        dist_d = self._delta_from(d_opp)[0]
        out = []
        while candidates:
            low = candidates & -candidates
            e = low.bit_length() - 1
            if dist_c[e] + dist_d[e] == top:
                out.append(e)
            candidates ^= low
        return out

    def apartment_containing(self, c: int, d: int) -> list[int]:
        """An apartment (as a chamber list) containing both c and d."""
        d_opp = self.extend_to_opposite(c, d)
        hull = self.apartment_hull(c, d_opp)
        if c not in hull or d not in hull:
            raise NotFound(f"hull of ({c},{d_opp}) misses the seed pair")
        return hull

    def check_apartment(self, hull: Sequence[int]) -> list[tuple]:
        """Violations of thinness and W-isometry for a candidate apartment.

        Thinness counts the bits of the hull mask in each panel mask.
        W-isometry compares, for each e, the row delta(e, .) picked at the
        hull against the product row of delta(base, e)^-1 picked at the
        distances from the base; only a row that differs is read entry by
        entry."""
        W = self.coxeter
        bad = []
        if len(hull) != W.order:
            bad.append(("size", len(hull), W.order))
        inside = _mask_of(hull)
        types = list(enumerate(zip(self.panel_masks, self.panel_of)))
        for e in hull:
            for i, (masks, pof) in types:
                count = (inside & masks[pof[e]]).bit_count()
                if count != 2:
                    bad.append(("not-thin", e, i, count))
        delta_base = self.delta_row(hull[0])
        at_hull = _picker(hull)
        from_base = at_hull(delta_base)
        seen_w = set(from_base)
        if len(seen_w) != len(hull):
            bad.append(("not-free", len(seen_w)))
        at_base = _picker(from_base)
        for e, we in zip(hull, from_base):
            from_e = self.delta_row(e)
            products = W.product_row(W.inverse[we])
            if at_hull(from_e) == at_base(products):
                continue
            for f, wf in zip(hull, from_base):
                if from_e[f] != products[wf]:
                    bad.append(("not-isometric", e, f))
        return bad

    # -- cells -------------------------------------------------------------

    def schubert_cell(self, c0: int, w: int) -> list[int]:
        delta = self.delta_row(c0)
        return [d for d in range(self.size) if delta[d] == w]

    def cell_sizes(self, c0: int) -> dict[int, int]:
        """Cell size per W-element index."""
        return Counter(self.delta_row(c0))

    def parameter_product(self, types: Iterable[int]) -> Optional[int]:
        """The product of the panel parameters of the given types (1 for
        none), or None if one of those types has panels of unequal size."""
        params = [self.thickness[i] for i in types]
        return None if None in params else math.prod(params)

    def schubert_coordinates(self, c0: int, word: Sequence[int]
                             ) -> "SchubertCoordinates":
        """Coordinates on the cell from c0 named by a reduced word."""
        return SchubertCoordinates(self, c0, word)

    def __repr__(self) -> str:
        return (f"ChamberComplex({self.geometry}, "
                f"{self.size} chambers, rank {self.rank})")


def build_flag_building(spec: str) -> ChamberComplex:
    """Chamber complex of the named flag geometry: its flags and Coxeter
    matrix come from the family's row in `geometries`."""
    flags, matrix = geometry_flags(spec)
    return ChamberComplex(flags, matrix, geometry=spec)


# ---------------------------------------------------------------------------
# cell coordinates

class SchubertCoordinates:
    """Bijection between the cell C_w(c0), w the element a reduced word
    spells, and a product of punctured panels, one coordinate per letter
    of the word; a word that is not reduced raises NotReduced, and a base
    chamber c0 out of range InvalidSpec."""

    def __init__(self, cx: ChamberComplex, c0: int, word: Sequence[int]):
        W = cx.coxeter
        word = tuple(word)
        w = W.element_from_word(word)
        if len(word) != W.length[w]:
            raise NotReduced(f"word {word} is not reduced")
        cx.delta_row(c0)    # refuses c0 out of range, whatever the word
        self.cx = cx
        self.c0 = c0
        self.w = w
        self.word = word
        w0 = W.longest
        # peel letters from the right; each level fixes an anchor chamber d
        # with delta(c0, d) = (current w) * w0
        self.levels: list[tuple[int, int, int]] = []   # (i, j, anchor d)
        cur = w
        for i in reversed(word):
            j = W.conjugate_generator_by_longest(i)
            v = W.multiply(cur, w0)
            cell_v = cx.schubert_cell(c0, v)
            if not cell_v:
                raise NotFound(
                    f"no chamber at distance {W.words[v]} from {c0}")
            self.levels.append((i, j, min(cell_v)))
            cur = W.right[cur][i]

    def level_panel(self, level: int) -> tuple[int, ...]:
        i, j, d = self.levels[level]
        members = self.cx.panel_members(self.cx.panel_id(j, d))
        return tuple(e for e in members if e != d)

    def domain(self) -> Iterator[tuple[int, ...]]:
        """All coordinate tuples: innermost level first, outermost last
        (the empty tuple alone for the identity cell)."""
        return itertools.product(*(self.level_panel(lvl) for lvl in
                                   range(len(self.levels) - 1, -1, -1)))

    def encode(self, c: int) -> tuple[int, ...]:
        cx = self.cx
        coords_rev = []
        for (i, j, d) in self.levels:
            # the anchor panel is the same for every c of the cell
            coords_rev.append(cx._gate(cx.panel_id(j, d), c, from_panel=True))
            c = cx.projection(cx.panel_id(i, c), self.c0)
        return tuple(reversed(coords_rev))

    def decode(self, coords: Sequence[int]) -> int:
        cx = self.cx
        if len(coords) != len(self.levels):
            raise InvalidSpec("coordinate tuple has the wrong arity")
        cur = self.c0
        for (i, j, d), b in zip(reversed(self.levels), coords):
            cur = cx.projection(cx.panel_id(i, cur), b)
        return cur

    def verify(self) -> dict:
        """Walk the coordinate domain once: each tuple must decode into the
        cell and encode back to itself, so decode is injective, and onto
        once the domain and the cell have the same size."""
        cell = set(self.cx.schubert_cell(self.c0, self.w))
        walked = 0
        ok = True
        for coords in self.domain():
            c = self.decode(coords)
            if c not in cell or self.encode(c) != coords:
                ok = False
                break
            walked += 1
        return {
            "word": list(self.word),
            "cell_size": len(cell),
            "domain_size": walked,
            "bijective": ok and walked == len(cell),
        }


# ---------------------------------------------------------------------------
# axiom verification

# B1 lists every chamber pair up to this many pairs, and this many pairs
# drawn from a Random(PAIR_SEED) stream beyond it; a listed pair inside an
# apartment that already passed check_apartment builds no hull of its own
PAIR_BUDGET = 12_000
PAIR_SEED = 0


def verify_building_axioms(cx: ChamberComplex) -> dict:
    """Evidence report for the three building axioms.

    (B3) every panel has at least 3 chambers (thickness); (B2) surfaces as
    single-valuedness of the BFS W-distance over all minimal galleries from
    every base chamber, with the gate condition that every panel has one
    member strictly nearest the base, each base the pass declines giving
    its witness; (B1) puts each listed chamber pair in an apartment, and
    files a refused delta read as an error.
    Pairs are exhaustive up to PAIR_BUDGET, sampled deterministically beyond
    it.  A pair already inside an apartment that passed check_apartment (size,
    thinness, W-isometry) is covered; any other pair gets its own hull, and a
    hull that passes marks all of its ordered pairs covered.  A failing hull
    marks nothing, so a listed failure fails without the cover too.
    The cover is one bitmask per chamber c, bit d for the pair (c, d); a
    passing hull ORs its mask into the row of each member.  Neither walk
    lists its pairs: the exhaustive one jumps to the next uncovered bit of
    row c, and the sampled one draws its pairs one at a time.
    """
    report: dict = {"geometry": cx.geometry, "chambers": cx.size,
                    "rank": cx.rank,
                    "panel_counts": [len(p) for p in cx.panels]}

    thin_witnesses = [(i, pidx) for i in range(cx.rank)
                      for pidx, members in enumerate(cx.panels[i])
                      if len(members) < 3]
    report["B3_thickness"] = {
        "ok": not thin_witnesses,
        "min_panel_size": min(len(m) for p in cx.panels for m in p),
        "violations": thin_witnesses[:10],
    }

    b2_violations = []
    for c in range(cx.size):
        b2_violations.extend(cx.row_violations(c))
    report["B2_w_consistency"] = {
        "ok": not b2_violations,
        "bases_checked": cx.size,
        "violations": [list(map(str, v)) for v in b2_violations[:10]],
    }

    covered = [0] * cx.size    # bit d of covered[c]: (c, d) is covered
    if cx.size * cx.size <= PAIR_BUDGET:
        listed, mode = cx.size * cx.size, "exhaustive"
        pairs = _uncovered_pairs(cx.size, covered)
    else:
        listed, mode = PAIR_BUDGET, "sampled"
        pairs = _sampled_pairs(cx.size, covered)
    b1_failures = []
    hulls = 0
    walked = listed
    for at, c, d in pairs:
        hulls += 1
        try:
            hull = cx.apartment_containing(c, d)
            bad = cx.check_apartment(hull)
        except (NotFound, NotUnique) as exc:
            bad = [("error", str(exc))]
        if bad:
            b1_failures.append({"pair": [c, d], "problems": bad[:4]})
            if len(b1_failures) >= 10:
                walked = at
                break
            continue
        mask = _mask_of(hull)
        for e in hull:
            covered[e] |= mask
    report["B1_apartments"] = {
        "ok": not b1_failures,
        "pairs_checked": walked,
        "mode": mode,
        "apartments_checked": hulls,
        "failures": b1_failures,
    }

    report["ok"] = (report["B3_thickness"]["ok"]
                    and report["B2_w_consistency"]["ok"]
                    and report["B1_apartments"]["ok"])
    return report


def _uncovered_pairs(n: int, covered: list[int]) -> Iterator[tuple]:
    """(position, c, d) for each pair of the c-major listing of all n^2
    pairs that is uncovered when the walk reaches it; the position counts
    every listed pair from 1.  covered is read as it grows."""
    full = (1 << n) - 1
    for c in range(n):
        rest = full & ~covered[c]
        while rest:
            d = (rest & -rest).bit_length() - 1
            yield c * n + d + 1, c, d
            rest = full & ~covered[c] & (-1 << (d + 1))


def _sampled_pairs(n: int, covered: list[int]) -> Iterator[tuple]:
    """(position, c, d) for each uncovered pair of PAIR_BUDGET pairs drawn
    from a Random(PAIR_SEED) stream, drawn one at a time."""
    rng = random.Random(PAIR_SEED)
    for at in range(1, PAIR_BUDGET + 1):
        c, d = rng.randrange(n), rng.randrange(n)
        if not covered[c] >> d & 1:
            yield at, c, d


def cell_decomposition_report(cx: ChamberComplex, c0: int = 0) -> dict:
    """Cell sizes from c0 with the partition total and the size law: C_w
    holds the product of the panel parameters over the letters of w's
    reduced word; a letter whose panels differ in size fails it.  A base
    whose delta is no W-distance raises NotFound before any cell is
    counted, so the cells always cover every chamber."""
    W = cx.coxeter
    sizes = cx.cell_sizes(c0)
    rows = []
    law_ok = True
    for w, size in sorted(sizes.items()):
        length = W.length[w]
        expected = cx.parameter_product(W.words[w])
        if expected != size:
            law_ok = False
        rows.append({"word": list(W.words[w]), "length": length,
                     "size": size, "expected": expected})
    return {
        "base_chamber": c0,
        "cells": rows,
        "nonempty_cells": len(rows),
        "total": sum(sizes.values()),
        "covers_all_chambers": sum(sizes.values()) == cx.size,
        "every_w_nonempty": len(rows) == W.order,
        "size_law_ok": law_ok,
    }
