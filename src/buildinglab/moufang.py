"""Root groups of generalized polygons, computed rather than assumed.

A rank-2 chamber complex of gonality n is viewed through its incidence
graph: vertices are the panels of both types, and each chamber is an edge
joining its two panels.  A vertex is the number of its panel in
`cx.all_panel_ids()` order, type 0 first, so vertex numbers sort as their
panels do.  A MoufangFrame builds that graph once and is the one rank-2
view every check below runs on; the panels, their images and the
automorphism test belong to the ChamberComplex.  An apartment is a
circuit of length 2n, labeled here by residues modulo 2n; the root alpha_i
is the half-circuit path (i, i+1, ..., i+n), and its root group U_i
consists of the type-preserving automorphisms fixing, chamber by chamber,
the star of every interior vertex i+1, ..., i+n-1.  The frame lists the 2n
base interiors once and caches each searched root group by its interior,
so transitivity, mu, stabilizers and commutators search it once; groups
made by conjugation are not kept.

Root groups are found by a forward-checking search for type-preserving
automorphisms, pruned by the W-valued distance, which every automorphism
preserves: the identity constraints on the interior stars seed it, each
open chamber keeps its possible images as a bitmask, each assignment ANDs
the open masks with one cached cell row of its image, a chamber down to one
image is queued and never filtered again, and a complete map is kept
exactly when the complex's automorphism test passes it.  By rigidity the
search branches once, over the images of one chamber, and otherwise only
propagates.  A root group converts the chamber maps it finds once into
vertex maps, Perms of the vertex numbers with 2N/(q+1) entries against N
chambers, which must give the chamber maps back; from there on every root
element is a vertex map.  The Moufang property is then checked head on,
with no list of roots: the walk goes over the root interiors (paths of
n - 2 edges), and each root is an end extension of its interior.  Two
opposite vertices of a generalized n-gon are joined by exactly one path
through each neighbour of either, so the apartments through a root
x0 ... xn are counted as the neighbours y != x1 of x0 at distance n - 1
from xn, read off one byte row of vertex distances; there must be as many
as the measured parameter of x0's panel type.  Each root group must permute
them simply transitively, with order equal to that parameter: it holds the
identity and maps the least of them, once under each element, onto all of
them.  The two types may have different parameters, as in the elliptic
quadric quadrangle of order (q, q^2).  Only the 2n base root groups are
searched for that; every other root group is a conjugate g^-1 U_i g, g the
product of the base root elements on the path to its interior in a
breadth-first walk from the base interiors.  Every element is checked in
full as an automorphism of the incidence graph, and a seeded few groups are
searched again as the independent route.

For a nontrivial u in U_i, mu(u) is the unique element of
U_{i+n}* u U_{i+n}* that maps the base apartment to itself, inducing on it
the reflection fixing the vertices i and i+n; a fit computes it once per
element.  Parametrizations
x_i : (F_q, +) -> U_i are fitted by exhausting the additive isomorphisms
until the product formula mu(x_i(t)) = x_{i+n}(t^-1) x_i(t) x_{i+n}(t^-1)
holds with x_{i+n}(t) := x_i(t) conjugated by m = mu(x_i(1)); the fitted
tables are reported, no textbook normalization is presupposed.  On top of
that sit the product-group stabilizer checks, the commutator containments
[U_i, U_j] <= U_{i+1} ... U_{j-1}, and, on every frame of gonality 4, the
defining quadrangle identity [x_1(1), x_4(u)^-1] = x_2(sigma(u)) x_3(q(u))
with sigma and q fitted by exhaustion over the q^2 parameter pairs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .chambers import ChamberComplex, PanelId, _picker
from .errors import (
    InvalidSpec,
    NotFound,
    NotUnique,
    SearchBudgetExceeded,
)
from .localfield import FiniteField

Perm = tuple[int, ...]

# branch points one automorphism search may visit before giving up
_SEARCH_BUDGET = 2_000_000

# conjugated root groups that each transitivity check also searches
# directly, drawn with this seed
CROSS_CHECK_GROUPS = 4
CROSS_CHECK_SEED = 0


# ---------------------------------------------------------------------------
# permutation plumbing (right action: c^(gh) = (c^g)^h)

def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(g: Perm, h: Perm) -> Perm:
    """Apply g first, then h."""
    return _picker(g)(h)


def inverse_perm(g: Perm) -> Perm:
    out = [0] * len(g)
    for c, x in enumerate(g):
        out[x] = c
    return tuple(out)


def conjugate(x: Perm, m: Perm) -> Perm:
    """x^m = m^-1 x m."""
    return compose(compose(inverse_perm(m), x), m)


def commutator(a: Perm, b: Perm) -> Perm:
    """[a, b] = a^-1 b^-1 a b."""
    return compose(compose(inverse_perm(a), inverse_perm(b)), compose(a, b))


def product_set(first: Iterable[Perm], *rest: Iterable[Perm]) -> set[Perm]:
    """All ordered products g_1 g_2 ... g_k, one factor per group."""
    acc = set(first)
    for grp in rest:
        acc = {compose(g, h) for g in acc for h in grp}
    return acc


# ---------------------------------------------------------------------------
# automorphism search

def find_automorphisms(cx: ChamberComplex,
                       forced: Optional[dict[int, int]] = None,
                       vertex_fixes: frozenset = frozenset()) -> list[Perm]:
    """All type-preserving automorphisms, subject to forced images and
    setwise-fixed panels, in sorted order.

    Each open chamber c keeps the images still possible as a bitmask,
    starting from its forced image or, if it lies on a setwise-fixed
    panel, from that panel.  Assigning e -> y ANDs every open mask with
    the cell of y that delta(e, c) names, from cx.cell_masks; e's own row
    is read only then, so only chambers the queue reaches have it read.  A
    mask down to one image determines its chamber: it leaves the open set
    for a queue, is assigned in turn and is never filtered again.  With the
    queue empty the search branches on the open chamber with the fewest
    images, lowest index first, over its images in ascending order.  A
    complete map is kept exactly when cx.is_automorphism passes it, in
    O(N rank), which settles what the queue left unfiltered and rejects
    non-injective maps.  delta only prunes, and loses no automorphism:
    the walk that builds a row reaches each chamber first along the
    lexicographically least type word of a minimal gallery, so every
    automorphism maps each cached row, walk rows included, onto its
    image's row.  That holds on every rank-2 complex, where the frontier
    chambers of one word step on only by the type their word does not end
    in, and in any rank where the walk records no gallery conflict.
    Constraints naming chambers or panels outside the complex, or chambers
    by anything but ints, raise InvalidSpec.  By rigidity a root group
    search branches once, |U| ways, and then only propagates.
    """
    if not forced and not vertex_fixes:
        raise InvalidSpec("automorphism search needs at least one constraint")
    N = cx.size
    forced = forced or {}
    if not all(isinstance(c, int) and isinstance(x, int) and c in range(N)
               and x in range(N) for c, x in forced.items()):
        raise InvalidSpec(f"forced images must map chambers of 0..{N - 1}")
    if not vertex_fixes <= set(cx.all_panel_ids()):
        raise InvalidSpec("setwise-fixed panels must be panels of the complex")
    rows, cells = cx.delta_row, cx.cell_masks
    image = [-1] * N
    queue: list[int] = []
    open_masks: dict[int, int] = {}
    for c in range(N):
        mask = 1 << forced[c] if c in forced else (1 << N) - 1
        for i in range(cx.rank):
            pid = cx.panel_id(i, c)
            if pid in vertex_fixes:
                mask &= cx.panel_masks[i][pid[1]]
        if not mask:
            return []
        if mask & (mask - 1):
            open_masks[c] = mask
        else:
            image[c] = mask.bit_length() - 1
            queue.append(c)
    solutions: list[Perm] = []
    nodes = 0

    def search(image: list[int], queue: list[int],
               masks: dict[int, int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"automorphism search passed {_SEARCH_BUDGET} nodes")
        for e in queue:            # grows as assignments determine chambers
            if not masks:
                break
            row, cell = rows(e), cells(image[e])
            left = {}
            for c, mask in masks.items():
                mask &= cell[row[c]]
                if mask & (mask - 1):
                    left[c] = mask
                elif mask:
                    image[c] = mask.bit_length() - 1
                    queue.append(c)
                else:
                    return
            masks = left
        if not masks:
            if cx.is_automorphism(image):
                solutions.append(tuple(image))
            return
        _, c = min((mask.bit_count(), c) for c, mask in masks.items())
        mask = masks.pop(c)
        while mask:
            low = mask & -mask
            branch = list(image)
            branch[c] = low.bit_length() - 1
            search(branch, [c], masks)
            mask ^= low

    search(image, queue, open_masks)
    return sorted(solutions)


# ---------------------------------------------------------------------------
# the polygon frame

class MoufangFrame:
    """The rank-2 view of a complex: its incidence graph, a labeled base
    apartment circuit, and one root-group cache.  q is the panel parameter
    the two types share, or None when their measured parameters differ.
    A vertex is the number of its panel, type 0 first; a root element is a
    vertex map, a Perm of those numbers."""

    def __init__(self, cx: ChamberComplex):
        if cx.rank != 2:
            raise InvalidSpec("root-group machinery expects a rank-2 complex")
        self.cx = cx
        self.n = cx.coxeter.matrix[0][1]
        if self.n == 2:
            raise InvalidSpec("root groups need gonality at least 3, got 2")
        self.q = cx.thickness[0] if len(set(cx.thickness)) == 1 else None
        self.N = cx.size
        split = self._split = len(cx.panel_masks[0])
        ends = [[cx.panel_id(t, c)[1] + t * split for c in range(self.N)]
                for t in (0, 1)]
        # vertex -> {neighbour: the chamber joining them}, sorted
        graph: list[dict[int, int]] = [
            {} for _ in range(split + len(cx.panel_masks[1]))]
        for c, (a, b) in enumerate(zip(*ends)):
            if b in graph[a]:
                raise NotFound(f"girth violation: vertices {a} and {b} "
                               "share two chambers")
            graph[a][b] = graph[b][a] = c
        self.graph = [dict(sorted(row.items())) for row in graph]
        self.identity = identity_perm(len(graph))
        self._kinds = set(range(split)), set(range(split, len(graph)))
        self._at_neighbours = [_picker(list(row)) for row in self.graph]
        self._at_ends = [_picker(e) for e in ends]
        self._chamber_at = dict(zip(zip(*ends), range(self.N)))
        self._pairs = frozenset(self._chamber_at)
        self._distance_rows: dict[int, bytes] = {}
        big = cx.schubert_cell(0, cx.coxeter.longest)
        if not big:
            raise NotFound("no chamber opposite the base chamber")
        hull = cx.apartment_hull(0, min(big))
        self.circuit, self.edge_chambers = self._circuit_labels(hull, ends)
        self.base_interiors = [self.interior(self.root_path(i))
                               for i in range(2 * self.n)]
        self._root_cache: dict[tuple, tuple[list[Perm], bool]] = {}

    def _circuit_labels(self, hull: Sequence[int], ends: list[list[int]]):
        """Walk the thin hull as a circuit; returns (vertices, edge chambers)
        with edge k joining vertices k and k+1.  Starts at the least vertex and
        turns toward its least neighbor, so the labeling is reproducible."""
        inside = set(hull)
        ring = {}
        for c in hull:
            for v in (ends[0][c], ends[1][c]):
                ring[v] = {w: e for w, e in self.graph[v].items()
                           if e in inside}
                if len(ring[v]) != 2:
                    raise NotFound(f"hull is not thin at vertex {v}")
        start = min(ring)
        vertices = [start]
        prev, cur = start, next(iter(ring[start]))
        edges = [ring[start][cur]]
        while cur != start:
            vertices.append(cur)
            prev, cur = cur, next(p for p in ring[cur] if p != prev)
            edges.append(ring[prev][cur])
        if len(vertices) != len(ring):
            raise NotFound("hull walk did not close into a single circuit")
        return vertices, edges

    # vertices and roots ---------------------------------------------------

    def vertex(self, k: int) -> int:
        return self.circuit[k % (2 * self.n)]

    def chamber_on_edge(self, k: int) -> int:
        return self.edge_chambers[k % (2 * self.n)]

    def root_path(self, i: int) -> tuple[int, ...]:
        return tuple(self.vertex(i + k) for k in range(self.n + 1))

    def _panel(self, v: int) -> PanelId:
        """The panel numbered v."""
        return (0, v) if v < self._split else (1, v - self._split)

    def star_fixing(self, vertices: Iterable[int]) -> dict[int, int]:
        """Every chamber on the stars of the given vertices, mapped to
        itself: the forced images of a root-group search."""
        return {c: c for v in vertices for c in self.graph[v].values()}

    def _root_group(self, interior: tuple) -> tuple[list[Perm], bool]:
        """The root group of the interior as vertex maps, in the search's
        order, and whether they give back the search's chamber maps."""
        if interior not in self._root_cache:
            found = find_automorphisms(self.cx,
                                       forced=self.star_fixing(interior))
            U = [self._vertex_map(g) for g in found]
            decodes = list(map(self._chamber_map, U)) == found
            self._root_cache[interior] = U, decodes
        return self._root_cache[interior]

    def root_group(self, i: int) -> list[Perm]:
        return self._root_group(self.base_interiors[i % (2 * self.n)])[0]

    def _paths(self, edges: int) -> Iterator[tuple[int, ...]]:
        """The simple paths of that many edges, each once from its smaller
        end, in sorted order: one depth-first walk over the sorted graph.
        With n edges these are the roots, with n - 2 their interiors."""
        stack = [(start,) for start in reversed(range(len(self.graph)))]
        while stack:
            path = stack.pop()
            if len(path) <= edges:
                stack.extend(path + (nxt,)
                             for nxt in reversed(self.graph[path[-1]])
                             if nxt not in path)
            elif path[0] <= path[-1]:
                yield path

    def _roots_of(self, key: tuple, last: Optional[tuple] = None):
        """The roots with the given interior, from their smaller ends: two
        distinct ends off the interior, one at each side; with last, only
        those no later than it in sorted order."""
        back = key[::-1]
        stops = [b for b in self.graph[key[-1]] if b not in key]
        for a in self.graph[key[0]]:
            for b in stops if a not in key else ():
                path = (a,) + key + (b,) if a < b else (b,) + back + (a,)
                if a != b and (last is None or path <= last):
                    yield path

    def _apartments_through(self, path: Sequence[int]) -> int:
        """The apartments containing the root path, counted as the
        neighbours y != path[1] of path[0] at distance n - 1 from path[-1]
        (in a generalized n-gon, y's one path to the opposite path[-1]
        closes the root to a 2n-circuit).  Read off path[-1]'s byte row of
        vertex distances, 255 past n - 1, built once per vertex."""
        x0, x1, xn = path[0], path[1], path[-1]
        dist = self._distance_rows.get(xn)
        if dist is None:
            dist = bytearray(b"\xff" * len(self.graph))
            dist[xn], frontier = 0, [xn]
            for d in range(1, self.n):
                frontier = {y for x in frontier for y in self.graph[x]
                            if dist[y] == 255}
                for y in frontier:
                    dist[y] = d
            dist = self._distance_rows[xn] = bytes(dist)
        far = self.n - 1
        return self._at_neighbours[x0](dist).count(far) - (dist[x1] == far)

    def _regular_on_end_panel(self, path: Sequence[int],
                              U: Sequence[Perm]) -> bool:
        """Whether the vertex maps U, which fix path[0], map its least
        neighbour off the root, once under each element, onto every such
        neighbour: those stand for the apartments containing the root."""
        others = [y for y in self.graph[path[0]] if y != path[1]]
        return sorted(m[others[0]] for m in U) == others

    # the Moufang condition --------------------------------------------------

    @staticmethod
    def interior(path: Sequence[int]) -> tuple[int, ...]:
        """The inner vertices of a root path, read in the smaller direction;
        the root group depends on nothing else."""
        inner = tuple(path[1:-1])
        return min(inner, inner[::-1])

    def _vertex_map(self, g: Perm) -> Perm:
        """The vertex map of the chamber map g: each vertex's image read
        at its first chamber."""
        images = self.cx.panel_images(g)
        return images[0] + tuple(p + self._split for p in images[1])

    def _chamber_map(self, m: Perm) -> tuple:
        """The chamber map of the vertex map m: each chamber to the one
        joining the images of its two vertices, or None if none does."""
        return tuple(map(self._chamber_at.get,
                         zip(self._at_ends[0](m), self._at_ends[1](m))))

    def _near(self, key: tuple) -> tuple:
        """The vertices within distance 1 of the interior key, as (picker,
        their numbers): those every element of its root group fixes."""
        near = sorted({v for x in key for v in (x, *self.graph[x])})
        return _picker(near), tuple(near)

    def _element_ok(self, m: Perm, near: tuple) -> bool:
        """Whether the vertex map m is a bijection on each type, maps the
        vertices of every chamber onto those of a chamber, and fixes the
        vertices `_near` gives."""
        split = self._split
        return (len(m) == len(self.identity) and near[0](m) == near[1]
                and set(m[:split]) == self._kinds[0]
                and set(m[split:]) == self._kinds[1]
                and self._pairs.issuperset(zip(self._at_ends[0](m),
                                               self._at_ends[1](m))))

    def root_groups_by_conjugation(
            self, interiors: Iterable[tuple]) -> Iterator[tuple]:
        """(interior, group, decodes) once for each of the given root
        interiors, in sorted order: the group as vertex maps, made when
        yielded and not kept, and decodes whether a searched group's vertex
        maps give back the search's chamber maps, or None where the group
        was made by conjugation.

        Only the 2n base root groups are searched.  A breadth-first walk over
        the interiors, under the nontrivial base root elements as generators,
        records for each interior it reaches the interior it came from and
        the generator, and stops once every wanted interior is reached.  The
        generator word back to a base interior alpha multiplies into one
        vertex map g, and U_{alpha g} = g^-1 U_alpha g.  Interiors the walk
        misses are searched."""
        wanted = set(interiors)
        base = {key: self._root_group(key) for key in self.base_interiors}
        gens = [m for U, _ in base.values() for m in U if m != self.identity]
        inverses = [inverse_perm(g) for g in gens]
        parent: dict[tuple, Optional[tuple]] = dict.fromkeys(base)
        missing = wanted - parent.keys()
        frontier = list(base)
        while frontier and missing:
            nxt = []
            for key in frontier:
                at = _picker(key)
                for k, g in enumerate(gens):
                    img = at(g)
                    img = min(img, img[::-1])
                    if img not in parent:
                        parent[img] = (key, k)
                        nxt.append(img)
                        missing.discard(img)
            frontier = nxt
        for key in sorted(wanted):
            if key in missing:
                yield (key, *self._root_group(key))
                continue
            g = g_inv = self.identity
            top = key
            while parent[top] is not None:
                top, k = parent[top]
                g, g_inv = compose(gens[k], g), compose(g_inv, inverses[k])
            U, decodes = base[top]
            yield key, [compose(compose(g_inv, u), g) for u in U], (
                decodes if top == key else None)

    def transitivity_check(self, root_limit: Optional[int] = None) -> dict:
        """For each root (the first `root_limit` in sorted order if given; a
        negative one raises InvalidSpec): |U_alpha| is the parameter q_t of
        the type t of its first vertex, and U_alpha is simply transitive on
        the apartments containing it.

        Roots are walked by interior (with a limit, those of the first
        roots, drawn lazily), each interior's group made once; every element
        passes `_element_ok` on the vertices within distance 1 of the
        interior and, where searched, gives back its chamber map.  By
        rigidity q_t such elements are the whole group.  A root passes when
        U_alpha holds the identity, is regular on its end panel, and the
        apartment count (`apartments_per_root`) is q_t, the measured
        `cx.thickness[t]` (None, failing, where a type's panels differ in
        size).  As an independent route, the groups of CROSS_CHECK_GROUPS
        interiors off the base apartment, drawn with CROSS_CHECK_SEED, are
        searched directly and must give the same chamber maps."""
        last = None
        if root_limit is None:
            keys = {key for key in self._paths(self.n - 2)
                    if next(self._roots_of(key), None)}
        elif root_limit < 0:
            raise InvalidSpec(f"root limit {root_limit} is negative")
        else:
            keys = set()
            for last in itertools.islice(self._paths(self.n), root_limit):
                keys.add(self.interior(last))
        thickness = self.cx.thickness
        off_base = sorted(keys - set(self.base_interiors))
        sample = set(random.Random(CROSS_CHECK_SEED).sample(
            off_base, min(CROSS_CHECK_GROUPS, len(off_base))))
        failures = []
        orders = set()
        apartment_counts = set()
        routes = Counter()
        for key, U, decodes in self.root_groups_by_conjugation(keys):
            near = self._near(key)
            elements_ok = all(m == self.identity or self._element_ok(m, near)
                              for m in U) and decodes is not False
            agrees = key not in sample or set(map(self._chamber_map, U)) == (
                set(find_automorphisms(self.cx, forced=self.star_fixing(key))))
            group_ok = elements_ok and self.identity in U
            route = "conjugated" if decodes is None else "searched"
            orders.add(len(U))
            regular = {}      # the end-panel test reads path[:2] only
            for path in self._roots_of(key, last):
                routes[route] += 1
                q = thickness[self._panel(path[0])[0]]
                count = self._apartments_through(path)
                apartment_counts.add(count)
                ok = group_ok and len(U) == q and count == q
                if ok and path[:2] not in regular:
                    regular[path[:2]] = self._regular_on_end_panel(path, U)
                if not (ok and regular[path[:2]] and agrees):
                    failures.append((path, {
                        "root": [list(self._panel(v)) for v in path],
                        "group_order": len(U),
                        "apartments": count,
                        "route": route,
                        "elements_ok": elements_ok,
                        "agrees_with_search": agrees,
                    }))
        roots = sum(routes.values())
        return {
            "geometry": self.cx.geometry,
            "gonality": self.n,
            "q": self.q,
            "roots_checked": roots,
            "mode": "exhaustive",
            "roots_conjugated": routes["conjugated"],
            "roots_searched": routes["searched"],
            "groups_cross_checked": len(sample),
            "group_orders": sorted(orders),
            "apartments_per_root": sorted(apartment_counts),
            "failures": [entry for _, entry in sorted(failures)[:10]],
            "ok": bool(roots) and not failures,
        }

    # the apartment action ---------------------------------------------------

    def is_reflection_through(self, m: Perm, i: int) -> bool:
        """Does the vertex map m act on the circuit as the reflection fixing
        i and i+n."""
        return _picker(self.circuit)(m) == tuple(
            self.vertex(2 * i - k) for k in range(2 * self.n))


def moufang_transitivity_check(cx: ChamberComplex,
                               exhaustive: bool = True,
                               root_limit: Optional[int] = None) -> dict:
    """The transitivity check of a fresh frame on cx.  Only the exhaustive
    check over all roots exists; `exhaustive` stays for callers that name
    it."""
    if not exhaustive:
        raise InvalidSpec("only the exhaustive transitivity check exists")
    return MoufangFrame(cx).transitivity_check(root_limit)


# ---------------------------------------------------------------------------
# mu elements and parametrization

def mu_element(frame: MoufangFrame, u: Perm, i: int) -> Perm:
    """The unique member of U_{i+n}* u U_{i+n}* stabilizing the base
    apartment and reflecting it through the vertices i and i+n."""
    if u == frame.identity:
        raise InvalidSpec("mu is defined for nontrivial root elements")
    U_top = frame.root_group(i + frame.n)
    found = []
    for a in U_top:
        au = compose(a, u)
        for b in U_top:
            g = compose(au, b)
            if frame.is_reflection_through(g, i):
                found.append(g)
    if not found:
        raise NotFound(f"no mu element over root {i}")
    if len(set(found)) > 1:
        raise NotUnique(f"{len(set(found))} mu candidates over root {i}")
    return found[0]


def _additive_isos(field: FiniteField, group: Sequence[Perm],
                   ident: Perm) -> Iterator[dict[int, Perm]]:
    """All additive isomorphisms (F_q, +) -> U, as element -> perm tables.

    An iso is determined by independent images of the basis 1, w, ...,
    w^(m-1) of F_q over F_p; the table is filled by adding basis elements."""
    q, p, m = field.q, field.p, field.degree
    basis = field.basis()
    nontrivial = [g for g in group if g != ident]
    for gens in itertools.permutations(nontrivial, m):
        table = {field.zero: ident}
        for b, g in zip(basis, gens):
            for a, acc in list(table.items()):
                for _ in range(p - 1):
                    a, acc = field.add(a, b), compose(acc, g)
                    table[a] = acc
        table = dict(sorted(table.items()))
        if len(set(table.values())) == q and set(table.values()) == set(group):
            good = all(
                compose(table[a], table[b]) == table[field.add(a, b)]
                for a in range(q) for b in range(q))
            if good:
                yield table


def fit_parametrization(frame: MoufangFrame, field: FiniteField,
                        i: int = 1) -> dict:
    """Fit x_i and x_{i+n} so the mu product formula holds for every t.

    mu(u) is computed once for each nontrivial u in U_i, and a mu that
    fails raises NotFound naming why, with the mu failure as its cause:
    every candidate covers U_i, so none could fit.  x_{i+n}(t) is defined
    as x_i(t) conjugated by m = mu(x_i(1)); the candidate x_i runs over the
    additive isomorphisms onto U_i until x_{i+n} lands in U_{i+n} and
    mu(x_i(t)) = x_{i+n}(t^-1) x_i(t) x_{i+n}(t^-1) holds for all t != 0.
    """
    if field.q != frame.q:
        raise InvalidSpec("parameter field must match the panel parameter")
    U = frame.root_group(i)
    U_top_set = set(frame.root_group(i + frame.n))
    try:
        mu = {u: mu_element(frame, u, i) for u in U if u != frame.identity}
    except (NotFound, NotUnique) as exc:
        raise NotFound(f"no additive parametrization of U_{i}: {exc}") from exc
    inv = {t: field.inv(t) for t in range(1, field.q)}
    for x_table in _additive_isos(field, U, frame.identity):
        m = mu[x_table[1]]
        x_top = {t: conjugate(x, m) for t, x in x_table.items()}
        if U_top_set.issuperset(x_top.values()) and all(
                mu[x_table[t]] == compose(compose(x_top[s], x_table[t]),
                                          x_top[s])
                for t, s in inv.items()):
            return {"x": x_table, "x_top": x_top, "m": m, "index": i}
    raise NotFound(f"no additive parametrization of U_{i} satisfies the "
                   "mu product formula")


def orbit_labeling_check(frame: MoufangFrame, x_table: dict[int, Perm],
                         i: int = 1) -> dict:
    """The simple transitivity of U_i on the punctured star of vertex i:
    t -> image of the chamber on edge (i-1, i) labels the star bijectively,
    with the fixed chamber on edge (i, i+1) excluded."""
    base = frame.chamber_on_edge(i - 1)
    excluded = frame.chamber_on_edge(i)
    star = set(frame.graph[frame.vertex(i)].values())
    images = {t: frame._chamber_map(g)[base] for t, g in x_table.items()}
    distinct = len(set(images.values())) == len(images)
    inside = set(images.values()) == star - {excluded}
    return {"distinct": distinct, "covers_punctured_star": inside,
            "ok": distinct and inside,
            "labels": {t: int(c) for t, c in sorted(images.items())}}


# ---------------------------------------------------------------------------
# product groups, stabilizers, commutators

def fixed_vertices_of_set(frame: MoufangFrame,
                          perms: Collection[Perm]) -> frozenset:
    """The panels of the vertices every vertex map in perms fixes."""
    return frozenset(frame._panel(v) for v in range(len(frame.graph))
                     if all(m[v] == v for m in perms))


def product_stabilizer_check(frame: MoufangFrame, i: int, j: int) -> dict:
    """U_i U_{i+1} ... U_{i+j} against the pointwise stabilizer of its own
    fixed vertex set; its order must be the product of the parameters of
    the roots' first vertices i, ..., i+j."""
    cx = frame.cx
    groups = [frame.root_group(k) for k in range(i, i + j + 1)]
    prod = product_set(*groups)
    fixed = fixed_vertices_of_set(frame, prod)
    stab = set(map(frame._vertex_map,
                   find_automorphisms(cx, vertex_fixes=fixed)))
    expected = cx.parameter_product(frame._panel(frame.vertex(k))[0]
                                    for k in range(i, i + j + 1))
    return {
        "i": i, "j": j,
        "product_order": len(prod),
        "expected_order": expected,
        "stabilizer_order": len(stab),
        "fixed_vertices": len(fixed),
        "equal": prod == stab,
        "ok": prod == stab and len(prod) == expected,
    }


def commutator_containment_check(frame: MoufangFrame) -> dict:
    """[U_i, U_j] inside U_{i+1} ... U_{j-1} for 1 <= i < j <= n+1,
    excluding the opposite pair (1, n+1)."""
    n = frame.n
    U = {k: frame.root_group(k) for k in range(1, n + 2)}
    rows = []
    ok = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            if (i, j) == (1, n + 1):
                continue
            between = [U[k] for k in range(i + 1, j)]
            target = product_set(*between) if between else {frame.identity}
            bad = sum(commutator(a, b) not in target
                      for a in U[i] for b in U[j])
            rows.append({"i": i, "j": j, "target_order": len(target),
                         "violations": bad})
            ok = ok and not bad
    return {"pairs": rows, "ok": ok}


def quadrangle_identity_check(frame: MoufangFrame, field: FiniteField) -> dict:
    """The defining quadrangle identity over F_q, with every ingredient
    fitted from the geometry:

        [x_1(1), x_4(u)^-1] = x_2(sigma(u)) x_3(qmap(u)),

    where x_2(u) = x_4(u)^m, m = mu(x_1(1)), and x_3(t) = r x_1(t) r^-1,
    r = mu(x_4(1)).  The pair (sigma(u), qmap(u)) is found by exhausting
    the q^2 parameter pairs; sigma must come out an additive bijection and
    qmap(0) = 0.
    """
    if frame.n != 4:
        raise InvalidSpec("quadrangle identity needs gonality 4")
    fit1 = fit_parametrization(frame, field, 1)
    fit4 = fit_parametrization(frame, field, 4)
    x1, m = fit1["x"], fit1["m"]
    x4, r = fit4["x"], fit4["m"]
    U2 = set(frame.root_group(2))
    U3 = set(frame.root_group(3))
    x2 = {u: conjugate(x4[u], m) for u in range(field.q)}
    x3 = {t: conjugate(x1[t], inverse_perm(r)) for t in range(field.q)}
    if not (set(x2.values()) == U2 and set(x3.values()) == U3):
        return {"ok": False, "reason": "derived tables do not fill U_2, U_3"}
    table = {}
    for u in range(field.q):
        lhs = commutator(x1[1], inverse_perm(x4[u]))
        matches = [(s, t) for s in range(field.q) for t in range(field.q)
                   if compose(x2[s], x3[t]) == lhs]
        if len(matches) == 1:
            table[u] = matches[0]
    sigma = {u: s for u, (s, _) in table.items()}
    qmap = {u: t for u, (_, t) in table.items()}
    sigma_additive = (len(sigma) == field.q
                      and len(set(sigma.values())) == field.q
                      and all(sigma[field.add(a, b)]
                              == field.add(sigma[a], sigma[b])
                              for a in sigma for b in sigma))
    ok = sigma_additive and qmap.get(0) == 0
    return {
        "ok": ok,
        "sigma": {u: sigma.get(u) for u in range(field.q)},
        "qmap": {u: qmap.get(u) for u in range(field.q)},
        "sigma_is_identity": all(sigma.get(u) == u for u in range(field.q)),
    }
