import hashlib
import itertools
import json
import random
import re
from collections import Counter
from typing import Optional

import pytest

from buildinglab.chambers import (
    ChamberComplex,
    build_flag_building,
    cell_decomposition_report,
)
from buildinglab.coxeter import MATRIX_A2
from buildinglab.errors import (
    InvalidSpec,
    NotFound,
    NotUnique,
    SearchBudgetExceeded,
)
from buildinglab import moufang
from buildinglab.btree import filtration_indices
from buildinglab.localfield import finite_field, parse_field_spec
from buildinglab.moufang import (
    MoufangFrame,
    Perm,
    commutator,
    commutator_containment_check,
    compose,
    conjugate,
    find_automorphisms,
    fit_parametrization,
    fixed_vertices_of_set,
    identity_perm,
    inverse_perm,
    moufang_transitivity_check,
    mu_element,
    orbit_labeling_check,
    product_set,
    product_stabilizer_check,
    quadrangle_identity_check,
)


# The search as it stood before forward checking, kept as the oracle for
# find_automorphisms: a static breadth-first order from the seeds, each
# chamber's candidates drawn from one assigned neighbor's panel.
def _reference_automorphisms(cx: ChamberComplex,
                              forced: Optional[dict[int, int]] = None,
                              vertex_fixes: frozenset = frozenset(),
                              budget: int = 2_000_000) -> list[Perm]:
    """All chamber bijections preserving the W-distance, subject to forced
    images and setwise-fixed panels.

    Preserving delta on all pairs is equivalent to being a type-preserving
    automorphism, so candidates are validated pairwise against everything
    already assigned; chambers are ordered breadth-first from the forced
    seeds so each new chamber is confined to a single image panel.
    """
    N = cx.size
    delta = [cx.delta_row(c) for c in range(N)]
    forced = dict(forced or {})

    # chambers whose panels are all setwise fixed can only map to themselves
    for c in range(N):
        if c in forced:
            continue
        pins = [i for i in range(cx.rank)
                if (i, cx.panel_of[i][c]) in vertex_fixes]
        if len(pins) == cx.rank:
            forced[c] = c

    for (a, x), (b, y) in itertools.combinations(forced.items(), 2):
        if delta[a][b] != delta[x][y]:
            return []
    for c, x in forced.items():
        for i in range(cx.rank):
            pid = (i, cx.panel_of[i][c])
            if pid in vertex_fixes and cx.panel_of[i][x] != pid[1]:
                return []

    # breadth-first order from the seeds, remembering one assigned neighbor
    order: list[tuple[int, int, int]] = []   # (chamber, via-type, neighbor)
    seen = set(forced)
    frontier = sorted(forced)
    if not frontier:
        raise InvalidSpec("automorphism search needs at least one constraint")
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(cx.rank):
                for e in cx.copanel_members(i, c):
                    if e not in seen:
                        seen.add(e)
                        order.append((e, i, c))
                        nxt.append(e)
        frontier = nxt
    if len(seen) != N:
        raise InvalidSpec("chamber graph is not connected")

    assign = list(forced.items())
    image = [-1] * N
    used = [False] * N
    for a, x in forced.items():
        image[a] = x
        used[x] = True
    solutions: list[Perm] = []
    nodes = 0

    def viable(c: int, x: int) -> bool:
        for i in range(cx.rank):
            pid = (i, cx.panel_of[i][c])
            if pid in vertex_fixes and cx.panel_of[i][x] != pid[1]:
                return False
        dc = delta[c]
        dx = delta[x]
        for a, y in assign:
            if dc[a] != dx[y]:
                return False
        return True

    def recurse(k: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"automorphism search passed {budget} nodes")
        if k == len(order):
            solutions.append(tuple(image))
            return
        c, via, nb = order[k]
        target_panel = cx.panel_of[via][image[nb]]
        for x in cx.panels[via][target_panel]:
            if used[x] or not viable(c, x):
                continue
            image[c] = x
            used[x] = True
            assign.append((c, x))
            recurse(k + 1)
            assign.pop()
            used[x] = False
            image[c] = -1

    recurse(0)
    return sorted(solutions)


# The search as it stood before bitmask images, kept as the oracle for
# find_automorphisms: each assignment rebuilds every open image list,
# and a complete map needs no final delta check.
def _forward_checking_automorphisms(cx: ChamberComplex,
                                    forced: Optional[dict[int, int]] = None,
                                    vertex_fixes: frozenset = frozenset(),
                                    budget: int = 2_000_000) -> list[Perm]:
    """All chamber bijections preserving the W-distance, subject to forced
    images and setwise-fixed panels, in sorted order.

    Preserving delta on all pairs is equivalent to being a type-preserving
    automorphism.  The search is forward checking: each open chamber keeps
    the images x still consistent with every assignment made so far
    (delta(c, e) = delta(x, y) for each assigned e -> y), starting from its
    forced image or, if it lies on a setwise-fixed panel, from that panel.
    The open chamber with the fewest images, lowest index first, is
    assigned next and filters every other list; the search branches only
    where two or more images are left.  Since delta(c, e) is the identity
    only for e = c, the filter keeps the map injective.  By rigidity a root
    group search branches once, q ways, and then only propagates.
    """
    if not forced and not vertex_fixes:
        raise InvalidSpec("automorphism search needs at least one constraint")
    N = cx.size
    delta = [cx.delta_row(c) for c in range(N)]
    forced = forced or {}
    open_images: dict[int, list[int]] = {}
    for c in range(N):
        cands = [forced[c]] if c in forced else range(N)
        for i in range(cx.rank):
            p = cx.panel_of[i][c]
            if (i, p) in vertex_fixes:
                cands = [x for x in cands if cx.panel_of[i][x] == p]
        if not cands:
            return []
        open_images[c] = list(cands)
    solutions: list[Perm] = []
    nodes = 0

    def assign(c: int, x: int,
               images: dict[int, list[int]]) -> Optional[dict[int, list[int]]]:
        """The open lists left after c -> x, or None if one empties."""
        dc, dx = delta[c], delta[x]
        out = {}
        for e, ys in images.items():
            if e == c:
                continue
            want = dc[e]
            if len(ys) > 1 or dx[ys[0]] != want:
                ys = [y for y in ys if dx[y] == want]
                if not ys:
                    return None
            out[e] = ys
        return out

    def search(image: list[int], images: dict[int, list[int]]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"automorphism search passed {budget} nodes")
        while images:
            size, c = min(zip(map(len, images.values()), images))
            if size > 1:
                break
            image[c] = images[c][0]
            images = assign(c, image[c], images)
            if images is None:
                return
        if not images:
            solutions.append(tuple(image))
            return
        for x in images[c]:
            rest = assign(c, x, images)
            if rest is not None:
                branch = list(image)
                branch[c] = x
                search(branch, rest)

    search([-1] * N, open_images)
    return sorted(solutions)



def _preserves_delta_by_pairs(cx, g):
    delta = [cx.delta_row(c) for c in range(cx.size)]
    return all(delta[c][e] == delta[g[c]][g[e]]
               for c in range(cx.size) for e in range(cx.size))


def _assert_delta_preserving(cx, perms):
    for g in perms:
        assert _preserves_delta_by_pairs(cx, g)


@pytest.fixture(scope="module")
def pg2_2():
    return build_flag_building("PG2:q=2")


@pytest.fixture(scope="module")
def pg2_3():
    return build_flag_building("PG2:q=3")


@pytest.fixture(scope="module")
def w2():
    return build_flag_building("W:q=2")


@pytest.fixture(scope="module")
def frame2(pg2_2):
    return MoufangFrame(pg2_2)


@pytest.fixture(scope="module")
def frame3(pg2_3):
    return MoufangFrame(pg2_3)


@pytest.fixture(scope="module")
def frame_elliptic(elliptic_quadrangle_2):
    return MoufangFrame(elliptic_quadrangle_2)


@pytest.fixture(scope="module")
def framew(w2):
    return MoufangFrame(w2)


def test_perm_algebra_right_action():
    g = (1, 2, 0, 3)   # 0->1->2->0
    h = (0, 1, 3, 2)
    gh = compose(g, h)
    assert gh[0] == h[g[0]] == 1
    assert compose(g, inverse_perm(g)) == identity_perm(4)
    assert conjugate(g, identity_perm(4)) == g
    a, b = g, h
    manual = compose(compose(inverse_perm(a), inverse_perm(b)),
                     compose(a, b))
    assert commutator(a, b) == manual
    assert product_set([g, h], [identity_perm(4)]) == {g, h}


def _compose_by_generator(g, h):
    """compose as it stood before itemgetter: the oracle."""
    return tuple(h[x] for x in g)


def test_compose_matches_the_generator_form():
    rng = random.Random(13)
    for n in (0, 1, 2, 5, 45, 936):
        ident = identity_perm(n)
        perms = [ident]
        for _ in range(4):
            p = list(ident)
            rng.shuffle(p)
            perms.append(tuple(p))
        for g in perms:
            for h in perms:
                gh = compose(g, h)
                assert type(gh) is tuple
                assert gh == _compose_by_generator(g, h)
        assert compose(ident, perms[-1]) == perms[-1]
        assert compose(perms[-1], ident) == perms[-1]


def test_circuit_shape(frame2):
    n = frame2.n
    assert n == 3
    assert len(frame2.circuit) == 2 * n
    # panel types alternate around the circuit
    types = [_panels(frame2)[v][0] for v in frame2.circuit]
    assert all(types[k] != types[(k + 1) % (2 * n)] for k in range(2 * n))
    # each edge chamber joins its two endpoint panels
    for k in range(2 * n):
        c = frame2.chamber_on_edge(k)
        assert c in _star(frame2, frame2.vertex(k))
        assert c in _star(frame2, frame2.vertex(k + 1))
    assert len(set(frame2.circuit)) == len(set(frame2.edge_chambers)) == 2 * n


def test_identity_forced_search(pg2_2, chamber_neighbors):
    sols = find_automorphisms(pg2_2, forced={c: c for c in range(pg2_2.size)})
    assert sols == [identity_perm(pg2_2.size)]
    # a neighbor of a fixed chamber cannot go to a chamber not adjacent to it
    i, nb = next(chamber_neighbors(pg2_2, 0))
    far = next(d for d in range(pg2_2.size)
               if pg2_2._delta_from(0)[0][d] > 1)
    assert find_automorphisms(pg2_2, forced={0: 0, nb: far}) == []
    # a forced image off a setwise-fixed panel
    pinned = frozenset({pg2_2.panel_id(1 - i, 0)})
    assert find_automorphisms(pg2_2, forced={0: nb},
                              vertex_fixes=pinned) == []
    # every image forced: the forced pairs are delta-checked too
    swapped = dict(enumerate(range(pg2_2.size)))
    swapped[nb], swapped[far] = far, nb
    assert find_automorphisms(pg2_2, forced=swapped) == []
    with pytest.raises(InvalidSpec):
        find_automorphisms(pg2_2)
    # one chamber: the final delta check reads a row at a single image
    lone = ChamberComplex([((1,), (1,))], MATRIX_A2, geometry="lone")
    assert find_automorphisms(lone, forced={0: 0}) == [(0,)]


@pytest.mark.parametrize("forced, vertex_fixes", [
    ({500: 0, 1: 1}, frozenset()),
    ({-1: 0, 1: 1}, frozenset()),
    ({0: 500}, frozenset()),
    ({0: -1}, frozenset()),
    ({0: 1.0}, frozenset()),
    ({0.0: 0}, frozenset()),
    ({0: 0}, frozenset({(0, 500)})),
    (None, frozenset({(2, 0)})),
], ids=["key-past-the-end", "negative-key", "image-past-the-end",
        "negative-image", "float-image", "float-key", "panel-past-the-end",
        "type-past-the-rank"])
def test_search_rejects_constraints_outside_the_complex(pg2_2, forced,
                                                        vertex_fixes):
    with pytest.raises(InvalidSpec):
        find_automorphisms(pg2_2, forced=forced, vertex_fixes=vertex_fixes)


@pytest.mark.parametrize("q", [2, 3])
def test_frame_refuses_a_digon(q):
    # in the (q+1) x (q+1) digon the star fixer is Sym(q), not a root group;
    # the transitivity check passes at q = 2 (order 2) and fails at q = 3
    # (order 6), so the refusal must come before any check runs
    flags = list(itertools.product(range(q + 1), repeat=2))
    digon = ChamberComplex(flags, [[1, 2], [2, 1]], geometry="digon")
    with pytest.raises(InvalidSpec, match="gonality at least 3, got 2"):
        MoufangFrame(digon)


# roots 0, 3 and 5 of PG2:q=4 take seconds each in the reference search
@pytest.mark.parametrize("spec, roots", [
    ("PG2:q=2", range(6)),
    ("PG2:q=3", range(6)),
    ("W:q=2", range(8)),
    ("PG2:q=4", (1, 2, 4)),
], ids=["PG2:q=2", "PG2:q=3", "W:q=2", "PG2:q=4"])
def test_search_matches_reference_on_base_roots(spec, roots):
    frame = MoufangFrame(build_flag_building(spec))
    for i in roots:
        interior = frame.root_path(i)[1:-1]
        fixed = {c: c for v in interior for c in _star(frame, v)}
        got = find_automorphisms(frame.cx, forced=fixed)
        assert got == _reference_automorphisms(frame.cx, forced=fixed)
        assert len(got) == frame.q
        _assert_delta_preserving(frame.cx, got)


def test_search_matches_reference_on_stabilizers(framew):
    for j in (0, 1):
        for i in range(1, framew.n - j + 1):
            groups = [framew.root_group(k) for k in range(i, i + j + 1)]
            fixed = fixed_vertices_of_set(framew, product_set(*groups))
            got = find_automorphisms(framew.cx, vertex_fixes=fixed)
            assert got == _reference_automorphisms(framew.cx,
                                                   vertex_fixes=fixed)
            assert len(got) == 2 ** (j + 1)
            _assert_delta_preserving(framew.cx, got)


# every base root of PG2:q=4, roots 0, 3 and 5 among them
@pytest.mark.parametrize("spec", ["PG2:q=4", "PG2:q=5", "W:q=3"])
def test_search_matches_forward_checking_on_base_roots(spec):
    frame = MoufangFrame(build_flag_building(spec))
    for i in range(2 * frame.n):
        fixed = frame.star_fixing(frame.root_path(i)[1:-1])
        got = find_automorphisms(frame.cx, forced=fixed)
        assert got == _forward_checking_automorphisms(frame.cx, forced=fixed)
        assert len(got) == frame.q


def test_search_matches_forward_checking_on_stabilizers():
    frame = MoufangFrame(build_flag_building("W:q=3"))
    for j in (0, 1):
        for i in range(1, frame.n - j + 1):
            groups = [frame.root_group(k) for k in range(i, i + j + 1)]
            fixed = fixed_vertices_of_set(frame, product_set(*groups))
            got = find_automorphisms(frame.cx, vertex_fixes=fixed)
            assert got == _forward_checking_automorphisms(
                frame.cx, vertex_fixes=fixed)
            assert len(got) == 3 ** (j + 1)


OFF_BUILDINGS = ["minus-chamber-0", "two-copies", "W-as-A2"]


def _off_building(name, pg2_2, w2):
    """(complex, automorphisms fixing the star of chamber 0) for one of
    the complexes that fail B2 in test_chambers."""
    chambers, star_maps = {
        "minus-chamber-0": (pg2_2.chambers[1:], 2),
        "two-copies": ([tuple((tag, x) for x in ch) for tag in (0, 1)
                        for ch in pg2_2.chambers], 2 * 168),
        "W-as-A2": (w2.chambers, 4),
    }[name]
    cx = ChamberComplex(chambers, MATRIX_A2, geometry=name)
    return cx, star_maps


def _star_of_chamber_0(cx):
    return {e: e for i in range(cx.rank) for e in cx.copanel_members(i, 0)}


def _assert_refused(search, cx, forced):
    """The search raises NotFound at a base whose delta is no W-distance,
    naming the witness the pass keeps for it."""
    with pytest.raises(NotFound) as exc:
        search(cx, forced=forced)
    message = str(exc.value)
    base = re.match(r"delta from chamber (\d+) is not a W-distance: ",
                    message)
    assert message.endswith(str(cx.row_violations(int(base[1]))[0]))


@pytest.mark.parametrize("name", OFF_BUILDINGS)
def test_search_matches_forward_checking_off_buildings(name, pg2_2, w2):
    # delta is no W-distance from the chambers these searches read first,
    # so both routes refuse; the panels alone still define the maps
    cx, star_maps = _off_building(name, pg2_2, w2)
    star = _star_of_chamber_0(cx)
    for search in (find_automorphisms, _forward_checking_automorphisms):
        _assert_refused(search, cx, star)
    assert len(_panel_automorphisms(cx, star)) == star_maps
    # every image forced: the search reads no row, and the final test
    # keeps the map; the oracle reads every row first and refuses
    identity = dict(enumerate(range(cx.size)))
    assert find_automorphisms(cx, forced=identity) == [tuple(range(cx.size))]
    _assert_refused(_forward_checking_automorphisms, cx, identity)


# Twelve flags (point, line) of an A2 complex that is no building: delta
# from chamber 3 is no W-distance, so a search fixing chamber 3 is
# refused, where the panels alone admit the identity only.
TWELVE_FLAGS = [(0, 0), (0, 3), (0, 4), (1, 2), (3, 0), (3, 1), (3, 3),
                (4, 0), (4, 1), (5, 3), (6, 0), (6, 3)]


def test_the_final_automorphism_test_rejects_a_complete_map(pg2_2,
                                                            monkeypatch):
    cx = ChamberComplex(TWELVE_FLAGS, MATRIX_A2, geometry="twelve-flags")
    _assert_refused(find_automorphisms, cx, {3: 3})
    assert _panel_automorphisms(cx, {3: 3}) == [tuple(range(12))]
    # on a building, a map with every image forced is complete before any
    # filtering, and only the final test rejects it
    verdicts = []
    test = pg2_2.is_automorphism

    def recorded(image):
        verdicts.append(test(image))
        return verdicts[-1]

    monkeypatch.setattr(pg2_2, "is_automorphism", recorded)
    swapped = dict(enumerate(range(pg2_2.size)))
    swapped[0], swapped[20] = 20, 0
    assert find_automorphisms(pg2_2, forced=swapped) == []
    assert verdicts == [False]


# The automorphisms as the panels alone define them, kept as the oracle
# for the pruning by delta in find_automorphisms: no delta row is read.
def _panel_automorphisms(cx: ChamberComplex,
                         forced: dict[int, int]) -> list[Perm]:
    """All chamber bijections extending `forced` that map each panel onto
    a panel of the same type, in sorted order.

    Chambers are placed breadth-first from the forced ones, each further
    component of the chamber graph entered at its least chamber.  A
    chamber goes into the image of one of its panels that already has
    one, else anywhere; a placement must keep the panel map one to one.
    Being a bijection that maps distinct panels into distinct panels of
    the same type, a complete map maps each panel onto one.
    """
    N = cx.size
    order, seen = [], set()
    for seeds in [sorted(forced)] + [[c] for c in range(N)]:
        new = [c for c in seeds if c not in seen]
        seen.update(new)
        while new:
            order += new
            nxt = []
            for c in new:
                for i in range(cx.rank):
                    for e in cx.copanel_members(i, c):
                        if e not in seen:
                            seen.add(e)
                            nxt.append(e)
            new = nxt
    image = [-1] * N
    used: set[int] = set()
    panel_map: dict = {}        # panel -> image panel
    solutions: list[Perm] = []

    def place(k: int) -> None:
        if k == N:
            solutions.append(tuple(image))
            return
        c = order[k]
        panels = [cx.panel_id(i, c) for i in range(cx.rank)]
        mapped = [panel_map[pid] for pid in panels if pid in panel_map]
        cands = ([forced[c]] if c in forced
                 else cx.panel_members(mapped[0]) if mapped else range(N))
        taken = set(panel_map.values())
        for x in cands:
            pairs = [(pid, cx.panel_id(pid[0], x)) for pid in panels]
            fresh = [(pid, img) for pid, img in pairs if pid not in panel_map]
            if x in used or any(panel_map.get(pid, img) != img
                                for pid, img in pairs) or any(
                    img in taken for _, img in fresh):
                continue
            panel_map.update(fresh)
            image[c] = x
            used.add(x)
            place(k + 1)
            used.discard(x)
            for pid, _ in fresh:
                del panel_map[pid]

    place(0)
    return sorted(solutions)


# Buildings: automorphisms fixing the star of chamber 0
STAR_MAPS = {"PG2:q=2": 2, "W:q=2": 4, "Aflags:n=3,q=2": 8}


def _fresh_complex(name, pg2_2, w2):
    """(a complex no search has read, automorphisms fixing the star of
    chamber 0) for a building of STAR_MAPS, TWELVE_FLAGS or an
    off-building complex."""
    if name in STAR_MAPS:
        return build_flag_building(name), STAR_MAPS[name]
    if name == "twelve-flags":
        return ChamberComplex(TWELVE_FLAGS, MATRIX_A2, geometry=name), 1
    return _off_building(name, pg2_2, w2)


def _oracle_constraints(cx):
    """Forced images to search under: the star of chamber 0, then chamber
    3 fixed and the last chamber sent to 0.  In rank 3 the panel oracle
    takes most of a minute on those two, and an apartment fixed chamber by
    chamber stands in for them."""
    star, last = _star_of_chamber_0(cx), cx.size - 1
    if cx.rank == 2:
        return [star, {3: 3}, {last: 0}]
    return [star, {e: e for e in cx.apartment_containing(0, last)}]


@pytest.mark.parametrize("name", list(STAR_MAPS) + ["twelve-flags"]
                         + OFF_BUILDINGS)
def test_search_matches_the_panel_oracle(name, pg2_2, w2):
    # delta only prunes: on a building the search keeps exactly the maps
    # the panels define.  It handles the chambers whose rows are built
    # first, so on a complex with every cell row built it runs the
    # constraints in another order; the result must not move.  Off
    # buildings, warm or cold, it refuses where the panels still answer
    warm, star_maps = _fresh_complex(name, pg2_2, w2)
    building = not any(map(warm.row_violations, range(warm.size)))
    if building:
        for x in range(warm.size):
            warm.cell_masks(x)
    for k, forced in enumerate(_oracle_constraints(warm)):
        maps = _panel_automorphisms(warm, forced)
        if k == 0:
            assert len(maps) == star_maps
        cold = _fresh_complex(name, pg2_2, w2)[0]
        if not building:
            for cx in (cold, warm):
                _assert_refused(find_automorphisms, cx, forced)
            continue
        got = find_automorphisms(cold, forced=forced)
        assert got == find_automorphisms(warm, forced=forced) == maps


def _flag_automorphisms(cx):
    """Search results of a building of any rank: the automorphisms fixing
    chamber 0, and those fixing a chamber farthest from it."""
    dist = cx._delta_from(0)[0]
    far = max(range(cx.size), key=dist.__getitem__)
    return [g for c in (0, far) for g in find_automorphisms(cx, forced={c: c})
            if g != identity_perm(cx.size)]


@pytest.mark.parametrize("spec", ["PG2:q=3", "W:q=2", "Aflags:n=3,q=2"])
def test_panel_test_matches_the_pairwise_delta_check(spec):
    # the search keeps a complete map by the panel test; on a complex whose
    # delta rows pass B2 it must agree with delta on every pair
    cx = build_flag_building(spec)
    assert not any(cx.row_violations(c) for c in range(cx.size))
    verdicts = Counter()
    for kind, g in _perturbed_elements(cx, _flag_automorphisms(cx), 200, 29):
        ok = cx.is_automorphism(g)
        assert ok == _preserves_delta_by_pairs(cx, g), (kind, g)
        verdicts[kind, ok] += 1
    assert verdicts == {("none", True): 50, ("swap", False): 50,
                        ("panel-swap", False): 50,
                        ("non-bijection", False): 50}


def test_search_budget_is_counted_per_branch(monkeypatch):
    # a base-root search on PG2:q=3 branches q ways, one node past one
    frame = MoufangFrame(build_flag_building("PG2:q=3"))
    fixed = frame.star_fixing(frame.root_path(0)[1:-1])
    monkeypatch.setattr(moufang, "_SEARCH_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded, match="passed 1 nodes"):
        find_automorphisms(frame.cx, forced=fixed)


def test_root_groups_pg2_5():
    frame = MoufangFrame(build_flag_building("PG2:q=5"))
    for i in range(6):
        U = frame.root_group(i)
        assert len(U) == 5 and frame.identity in U
    fit = fit_parametrization(frame, finite_field(5), 1)
    assert orbit_labeling_check(frame, fit["x"], 1)["ok"]


def test_root_groups_have_order_q(frame2, frame3):
    for i in range(6):
        assert len(frame2.root_group(i)) == 2
        assert len(frame3.root_group(i)) == 3


def test_root_group_fixes_interior_and_moves_something(frame2):
    U = frame2.root_group(1)
    interior = frame2.root_path(1)[1:-1]
    fixed = {c for v in interior for c in _star(frame2, v)}
    for g in map(frame2._chamber_map, U):
        assert all(g[c] == c for c in fixed)
    nontrivial = [m for m in U if m != frame2.identity]
    assert nontrivial and all(
        any(g[c] != c for c in range(frame2.N))
        for g in map(frame2._chamber_map, nontrivial))


def test_root_enumeration_counts(frame2, framew):
    # PG(2,2): 14 panels of degree 3, paths of 3 edges: 14*3*2*2/2
    # W(2): 30 panels of degree 3, paths of 4 edges: 30*3*2*2*2/2
    for frame, count in ((frame2, 84), (framew, 360)):
        assert len(_all_roots(frame)[0]) == count
        assert sum(1 for _ in frame._paths(frame.n)) == count
        assert sum(1 for key in frame._paths(frame.n - 2)
                   for _ in frame._roots_of(key)) == count


# The root list and its index by ends, as MoufangFrame kept them before
# the transitivity check walked root interiors: the oracle of the interior
# walk and of the apartment count read off vertex distances.
def _all_roots(frame):
    """All n-edge paths in the incidence graph, up to reversal, each from
    its smaller end, in sorted order; and the same filed under their ends."""
    roots, by_ends = [], {}
    stack = [(start,) for start in reversed(range(len(frame.graph)))]
    while stack:
        path = stack.pop()
        if len(path) <= frame.n:
            stack.extend(path + (nxt,)
                         for nxt in reversed(frame.graph[path[-1]])
                         if nxt not in path)
        elif path[0] < path[-1]:
            roots.append(path)
            by_ends.setdefault((path[0], path[-1]), []).append(path)
    return roots, by_ends


def _apartment_count(by_ends, path):
    """The apartments containing the root path, counted as the roots
    between the same ends that miss its interior (each closes it to a
    2n-circuit; the path itself meets its own interior)."""
    ends = min((path[0], path[-1]), (path[-1], path[0]))
    inner = set(path[1:-1])
    return sum(inner.isdisjoint(other[1:-1])
               for other in by_ends.get(ends, ()))


def _reference_roots(cx):
    """all_roots as it stood before the one-sided walk, kept as its oracle:
    every n-edge path of panels from every start, each reduced to the
    smaller of it and its reversal in a set, then sorted."""
    graph, n = _panel_graph(cx), cx.coxeter.matrix[0][1]
    found = set()
    for start in graph:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            if len(path) == n + 1:
                found.add(min(path, path[::-1]))
                continue
            for nxt in graph[path[-1]]:
                if nxt not in path:
                    stack.append(path + (nxt,))
    return sorted(found)


# The incidence graph as MoufangFrame kept it before vertices were
# numbered, keyed by panel: the oracle of the vertex numbering.
def _panel_graph(cx):
    """panel -> {neighbouring panel: the chamber joining them}, sorted."""
    return {pid: dict(sorted((cx.panel_id(1 - pid[0], c), c)
                             for c in cx.panel_members(pid)))
            for pid in cx.all_panel_ids()}


def _panels(frame):
    """The panels in sorted order: vertex v is the v-th."""
    return sorted(frame.cx.all_panel_ids())


def _star(frame, v):
    return frame.cx.panel_members(_panels(frame)[v])


def _reported_path(frame, root):
    """A failure's root, reported as panels, as vertex numbers."""
    return tuple(map(_panels(frame).index, map(tuple, root)))


@pytest.mark.parametrize("spec", ["PG2:q=2", "PG2:q=3", "PG2:q=4", "W:q=2",
                                  "W:q=3", "Q-(5,2)"])
def test_root_walk_matches_the_reference(spec, request):
    frame = (request.getfixturevalue("frame_elliptic") if spec == "Q-(5,2)"
             else MoufangFrame(build_flag_building(spec)))
    # vertex v is the v-th panel in sorted order, and the graph is the
    # panel graph so numbered, each row in sorted order
    panels = _panels(frame)
    number = {pid: v for v, pid in enumerate(panels)}
    assert [frame._panel(v) for v in range(len(panels))] == panels
    assert frame.identity == tuple(range(len(panels)))
    assert [list(row.items()) for row in frame.graph] == [
        [(number[other], c) for other, c in row.items()]
        for row in _panel_graph(frame.cx).values()]
    reference = [tuple(map(number.get, path))
                 for path in _reference_roots(frame.cx)]
    by_ends = {}
    for path in reference:
        by_ends.setdefault((path[0], path[-1]), []).append(path)
    roots, oracle_by_ends = _all_roots(frame)
    assert roots == reference
    assert all(path[0] < path[-1] for path in roots)
    assert oracle_by_ends == by_ends
    # the sorted walk the root limit draws from, and the interior walk:
    # every interior once, sorted, and its end extensions are the roots
    assert list(frame._paths(frame.n)) == reference
    interiors = list(frame._paths(frame.n - 2))
    assert interiors == sorted({frame.interior(path) for path in reference})
    extended = [path for key in interiors for path in frame._roots_of(key)]
    assert sorted(extended) == reference
    assert all(frame.interior(path) == key for key in interiors
               for path in frame._roots_of(key))


def test_apartments_containing_base_root(frame2):
    path = frame2.root_path(0)
    apartments = _reference_apartments(frame2, path)
    by_ends = _all_roots(frame2)[1]
    assert len(apartments) == _apartment_count(by_ends, path) == 2
    assert frame2._apartments_through(path) == 2
    assert frozenset(frame2.edge_chambers) in apartments


@pytest.mark.parametrize("frame_name", ["frame3", "framew"])
def test_completed_apartments_are_hulls(frame_name, request):
    # the graph route (closing a root path) against the W-distance route
    # (the convex hull of an opposite pair inside the apartment)
    frame = request.getfixturevalue(frame_name)
    cx = frame.cx
    w0 = cx.coxeter.longest
    for i in range(2 * frame.n):
        apartments = _reference_apartments(frame, frame.root_path(i))
        assert len(apartments) == frame.q
        for apartment in apartments:
            c = min(apartment)
            d = next(e for e in sorted(apartment) if cx.w_distance(c, e) == w0)
            assert frozenset(cx.apartment_hull(c, d)) == apartment


# The apartment-image rule as it stood before the end-panel rule, kept as
# its oracle: close the root with a second n-edge path from its end back
# to its start that misses its interior, and map one such apartment under
# the root group.
def _reference_paths(frame, start, edges, avoid=frozenset()):
    """Simple paths of the given number of edges from start that miss
    the avoided panels."""
    stack = [(start,)]
    while stack:
        path = stack.pop()
        if len(path) == edges + 1:
            yield path
            continue
        for nxt in frame.graph[path[-1]]:
            if nxt not in path and nxt not in avoid:
                stack.append(path + (nxt,))


def _reference_apartments(frame, path):
    """Apartments (as chamber sets) whose circuit contains the root
    path, found by closing it with a second n-edge path."""
    out = []
    for back in _reference_paths(frame, path[-1], frame.n,
                                 frozenset(path[1:-1])):
        if back[-1] == path[0]:
            circuit = tuple(path) + back[1:]
            out.append(frozenset(frame.graph[a][b] for a, b
                                 in zip(circuit, circuit[1:])))
    return sorted(out, key=sorted)


def _root_parameter(frame, path):
    """The measured parameter of the type of the root's first vertex."""
    return frame.cx.thickness[_panels(frame)[path[0]][0]]


def _reference_verdict(frame, path, U):
    """The apartment-image rule: as many apartments through the root as
    its parameter, and U maps the first onto that many distinct images
    that are all of them."""
    apartments = _reference_apartments(frame, path)
    images = {frozenset(g[c] for c in apartments[0]) for g in U}
    q = _root_parameter(frame, path)
    return (len(apartments) == q and len(images) == q
            and images == set(apartments))


def _panel_verdict(frame, path, U):
    return (frame._apartments_through(path) == _root_parameter(frame, path)
            and frame._regular_on_end_panel(path, U))


def _assert_panel_rule_matches_reference(frame, roots):
    # Both rules presume a group fixing the interior stars, which the
    # element check settles first (a foreign group may pass either rule
    # alone).  Each root, both ways round, gets its own group (both rules
    # pass) and that group with the identity replaced by another element
    # (both fail); the panel rule reads vertex maps, the reference rule
    # their chamber maps.  The apartment count read off vertex distances
    # equals both the closed circuits and the root-list count.
    groups = {key: U for key, U, _ in frame.root_groups_by_conjugation(
        {frame.interior(path) for path in roots})}
    by_ends = _all_roots(frame)[1]
    ident = frame.identity
    for path in roots:
        U = groups[frame.interior(path)]
        u = next(m for m in U if m != ident)
        doubled = [m if m != ident else u for m in U]
        for oriented in (path, path[::-1]):
            count = len(_reference_apartments(frame, oriented))
            assert frame._apartments_through(oriented) == count
            assert _apartment_count(by_ends, oriented) == count
            assert _panel_verdict(frame, oriented, U)
            assert _reference_verdict(
                frame, oriented, [frame._chamber_map(m) for m in U])
            assert not _panel_verdict(frame, oriented, doubled)
            assert not _reference_verdict(
                frame, oriented, [frame._chamber_map(m) for m in doubled])


@pytest.mark.parametrize("spec", ["PG2:q=2", "PG2:q=3", "W:q=2"])
def test_apartments_match_reference_on_every_root(spec):
    frame = MoufangFrame(build_flag_building(spec))
    _assert_panel_rule_matches_reference(frame, _all_roots(frame)[0])


@pytest.mark.parametrize("spec", ["PG2:q=4", "W:q=3"])
def test_apartments_match_reference_on_sampled_roots(spec):
    frame = MoufangFrame(build_flag_building(spec))
    roots = random.Random(7).sample(_all_roots(frame)[0], 40)
    _assert_panel_rule_matches_reference(frame, roots)


def test_apartments_match_reference_on_the_elliptic_quadrangle(
        frame_elliptic):
    # both parameters: roots from a line of 3 points and from a point on
    # 5 lines
    roots = random.Random(7).sample(_all_roots(frame_elliptic)[0], 40)
    panels = _panels(frame_elliptic)
    assert {panels[path[0]][0] for path in roots} == {0, 1}
    _assert_panel_rule_matches_reference(frame_elliptic, roots)


def test_transitivity_fails_on_an_incidence_missing_from_the_distances():
    # one incidence dropped from the graph the distance rows are read on:
    # a neighbour of a root's end whose one path to the far end ran through
    # it is no longer at distance n - 1, so its root loses one apartment
    frame = MoufangFrame(build_flag_building("PG2:q=3"))
    x, y = 5, next(iter(frame.graph[5]))
    del frame.graph[x][y], frame.graph[y][x]
    report = frame.transitivity_check()
    assert not report["ok"]
    assert frame.q - 1 in report["apartments_per_root"]
    assert all(f["elements_ok"] and f["agrees_with_search"]
               and f["group_order"] == frame.q for f in report["failures"])


def test_girth_violation_is_not_found(pg2_2, monkeypatch):
    # every chamber reports the same two panels: a 2-cycle in the graph
    monkeypatch.setattr(pg2_2, "panel_id", lambda i, c: (i, 0))
    with pytest.raises(NotFound, match="girth"):
        MoufangFrame(pg2_2)


def test_moufang_transitivity_pg2_2(pg2_2):
    report = moufang_transitivity_check(pg2_2, exhaustive=True)
    assert report["ok"]
    assert report["roots_checked"] == 84
    assert report["group_orders"] == [2]
    assert report["apartments_per_root"] == [2]


def test_moufang_transitivity_pg2_3(pg2_3):
    report = moufang_transitivity_check(pg2_3, exhaustive=True)
    assert report["ok"]
    assert report["roots_checked"] == 468
    assert report["group_orders"] == [3]


def test_moufang_transitivity_quadrangle(w2):
    report = moufang_transitivity_check(w2, exhaustive=True)
    assert report["ok"]
    assert report["roots_checked"] == 360
    assert report["group_orders"] == [2]


def test_moufang_transitivity_elliptic_quadrangle(frame_elliptic):
    # order (2, 4): each root group has the order of its first vertex's
    # type, and no single q is assumed
    report = frame_elliptic.transitivity_check()
    assert report["ok"], report["failures"]
    assert report["roots_checked"] == 3240
    assert report["group_orders"] == [2, 4]
    assert report["apartments_per_root"] == [2, 4]
    assert report["q"] is None and frame_elliptic.q is None


@pytest.mark.parametrize("forced", [(2, 2), (2, None)])
def test_a_forced_parameter_fails_the_law_and_transitivity(
        forced, frame_elliptic, monkeypatch):
    # one parameter for both types, or none for the lines through a point:
    # the cells of the second type and its root groups no longer match
    cx = frame_elliptic.cx
    monkeypatch.setattr(cx, "thickness", forced)
    assert not cell_decomposition_report(cx, 0)["size_law_ok"]
    report = frame_elliptic.transitivity_check()
    assert not report["ok"]
    assert {entry["group_order"] for entry in report["failures"]} == {4}


def test_a_root_takes_the_parameter_of_its_first_vertex(pg2_3, monkeypatch):
    # a root of a projective plane, read from its smaller end, runs from a
    # point to a line: with the points' parameter forced to 2, every root
    # fails, though the lines keep the true parameter 3
    monkeypatch.setattr(pg2_3, "thickness", (2, 3))
    report = MoufangFrame(pg2_3).transitivity_check()
    assert not report["ok"] and len(report["failures"]) == 10
    assert all(f["root"][0][0] == 0 and f["group_order"] == 3
               and f["apartments"] == 3 for f in report["failures"])


def test_cell_law_fails_where_a_type_has_unequal_panels(pg2_2, w2):
    # a missing chamber leaves panels of 2 and 3 chambers in both types;
    # delta is a W-distance from 8 of the 20 chambers, the first chamber 9
    cx, _ = _off_building("minus-chamber-0", pg2_2, w2)
    assert cx.thickness == (None, None)
    accepted = [c for c in range(cx.size) if not cx.row_violations(c)]
    assert accepted == [9, 10, 12, 13, 14, 15, 17, 18]
    report = cell_decomposition_report(cx, accepted[0])
    assert not report["size_law_ok"] and report["covers_all_chambers"]
    assert [row["expected"] for row in report["cells"]][:2] == [1, None]


def test_transitivity_check_is_exhaustive_only(pg2_2):
    with pytest.raises(InvalidSpec, match="exhaustive"):
        moufang_transitivity_check(pg2_2, exhaustive=False)
    report = MoufangFrame(pg2_2).transitivity_check(root_limit=5)
    assert report["mode"] == "exhaustive"
    assert report["roots_checked"] == 5
    assert report["ok"]


def test_root_limit_takes_the_first_roots_and_refuses_a_negative_one(
        pg2_2, monkeypatch):
    # a negative limit once dropped the last roots of the list silently
    # (79 checked, ok); a limit of 0 checks nothing and fails
    frame = MoufangFrame(pg2_2)
    for limit in (-1, -5):
        with pytest.raises(InvalidSpec, match="negative"):
            frame.transitivity_check(root_limit=limit)
    empty = frame.transitivity_check(root_limit=0)
    assert (empty["roots_checked"], empty["ok"]) == (0, False)
    assert empty["group_orders"] == [] and empty["failures"] == []
    for limit in (1, 7, 40, 84, 1000):
        report = frame.transitivity_check(root_limit=limit)
        assert report["roots_checked"] == min(limit, 84) and report["ok"]
    # the first roots of a failing check: the same failures, cut at the
    # limit, as the whole check lists (with no cross-check, whose sample
    # the limit changes)
    monkeypatch.setattr(moufang, "CROSS_CHECK_GROUPS", 0)
    doubled = _broken_base_frame("PG2:q=3", 1, _doubled)
    whole = doubled.transitivity_check()["failures"]
    roots = _all_roots(doubled)[0]
    for limit in (50, 200, 400):
        cut = doubled.transitivity_check(root_limit=limit)["failures"]
        assert cut == [f for f in whole if _reported_path(
            doubled, f["root"]) <= roots[limit - 1]]


# sha256 of the transitivity reports, taken at the parent of the interior
# walk: the buildings benchmark's op, and a failing report whose failure
# list keeps its order and fields
TRANSITIVITY_DIGESTS = {
    "W:q=3 root_limit=300":
        "d6ec02545cd4b80c086c5be98ae3321d368bf1069bd4fb43cfd8b6e6d4b555e2",
    "PG2:q=3 base group 1 doubled":
        "7616eceb2729c39aaa85f023acaced1e9ec2f1c2c21c8909855c13dc2e4fc994",
}


def _digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_transitivity_reports_are_pinned():
    report = moufang_transitivity_check(build_flag_building("W:q=3"),
                                        exhaustive=True, root_limit=300)
    assert _digest(report) == TRANSITIVITY_DIGESTS["W:q=3 root_limit=300"]
    report = _broken_base_frame("PG2:q=3", 1, _doubled).transitivity_check()
    assert not report["ok"] and len(report["failures"]) == 10
    assert _digest(report) == TRANSITIVITY_DIGESTS[
        "PG2:q=3 base group 1 doubled"]


# the search stays the oracle for the groups the walk makes by conjugation
@pytest.mark.parametrize("spec", ["PG2:q=2", "PG2:q=3", "PG2:q=4", "W:q=2"])
def test_conjugated_groups_match_search_on_every_root(spec):
    frame = MoufangFrame(build_flag_building(spec))
    roots = _all_roots(frame)[0]
    interiors = {frame.interior(path) for path in roots}
    base = {frame.interior(frame.root_path(i)) for i in range(2 * frame.n)}
    seen = []
    for key, U, decodes in frame.root_groups_by_conjugation(interiors):
        seen.append(key)
        assert decodes is (None if key not in base else True)
        assert len(U) == frame.q
        found = find_automorphisms(frame.cx, forced=frame.star_fixing(key))
        assert {frame._chamber_map(m) for m in U} == set(found)
        assert {frame._vertex_map(g) for g in found} == set(U)
    assert len(seen) == len(set(seen)) and set(seen) == interiors


def test_conjugated_groups_match_search_on_sampled_roots():
    frame = MoufangFrame(build_flag_building("W:q=3"))
    roots = random.Random(7).sample(_all_roots(frame)[0], 24)
    interiors = {frame.interior(path) for path in roots}
    got = {key: U for key, U, _ in frame.root_groups_by_conjugation(interiors)}
    assert set(got) == interiors
    for key, U in got.items():
        found = find_automorphisms(frame.cx, forced=frame.star_fixing(key))
        assert {frame._chamber_map(m) for m in U} == set(found)
        assert len(U) == 3


def test_element_check_rejects_a_conjugate_with_two_points_swapped():
    # two points off the interior's neighbourhood swapped in a conjugated
    # element: still a bijection on each type fixing the interior, but some
    # flag now goes to a point and a line that are not incident
    frame = MoufangFrame(build_flag_building("W:q=3"))
    key, U, _ = next(item for item in frame.root_groups_by_conjugation(
        {frame.interior(path) for path in _all_roots(frame)[0][::97]})
        if item[2] is None)
    near = frame._near(key)
    assert all(frame._element_ok(m, near) for m in U)
    points = [v for v in range(frame._split, len(frame.graph))
              if v not in near[1]]
    checked = 0
    for a, b in itertools.combinations(points[:12], 2):
        for m in U:
            bad = list(m)
            bad[a], bad[b] = bad[b], bad[a]
            assert not frame._element_ok(tuple(bad), near)
            assert None in frame._chamber_map(tuple(bad))
            checked += 1
    assert checked == 66 * 3


NOTHING_NEAR = (lambda m: (), ())


@pytest.mark.parametrize("spec", ["PG2:q=4", "W:q=3"])
def test_vertex_element_check_matches_the_automorphism_test(spec):
    # a chamber map g passes as its vertex map, read at each vertex's first
    # chamber, passing the element check and giving g back as its chamber
    # map, exactly when cx.is_automorphism passes it
    frame = MoufangFrame(build_flag_building(spec))
    verdicts = Counter()
    for kind, g in _perturbed_elements(frame.cx, _base_root_elements(frame),
                                       400, 31):
        m = frame._vertex_map(g)
        ok = frame._element_ok(m, NOTHING_NEAR) and frame._chamber_map(m) == g
        assert ok == frame.cx.is_automorphism(g), (kind, g)
        verdicts[kind, ok] += 1
    assert verdicts == {("none", True): 100, ("swap", False): 100,
                        ("panel-swap", False): 100,
                        ("non-bijection", False): 100}


def test_element_check_rejects_a_vertex_map_that_is_no_bijection(frame2):
    # the retraction onto an apartment through chambers 0 and 20 maps each
    # chamber's two vertices onto a chamber's, but folds vertices together
    cx = frame2.cx
    at = {cx.w_distance(0, e): e for e in cx.apartment_containing(0, 20)}
    m = frame2._vertex_map(tuple(at[cx.w_distance(0, d)]
                                 for d in range(cx.size)))
    assert len(set(m)) < len(m)
    assert None not in frame2._chamber_map(m)
    assert not frame2._element_ok(m, NOTHING_NEAR)


@pytest.mark.parametrize("spec, rows", [("W:q=3", 49), ("W:q=4", 78)])
def test_search_reads_only_the_rows_its_stacks_hand_on(spec, rows):
    # with every cell row cached first, the rows the base root searches
    # read themselves: those of the chambers handled before the masks close
    frame = MoufangFrame(build_flag_building(spec))
    cx = frame.cx
    for x in range(cx.size):
        cx.cell_masks(x)
    read, row = set(), cx.delta_row
    cx.delta_row = lambda c: read.add(c) or row(c)
    for i in range(2 * frame.n):
        frame.root_group(i)
    assert len(read) == rows < cx.size


@pytest.mark.parametrize("spec, most", [("W:q=3", 60), ("PG2:q=4", 60)])
def test_base_searches_build_few_rows_from_cold(spec, most):
    # a chamber whose row is built is handled before one whose row is not,
    # so the base searches build at most 60 rows from cold; handled in
    # order of discovery they built all 160 and 105
    frame = MoufangFrame(build_flag_building(spec))
    cx = frame.cx
    for i in range(2 * frame.n):
        frame.root_group(i)
    assert sum(map(cx.has_row, range(cx.size))) <= most < cx.size


# sha256 of the 2n base root groups as JSON, taken before the search
# handled chambers with built rows first
BASE_GROUP_DIGESTS = {
    "PG2:q=4":
        "50c3b4732a5fbdea48f4fe6abb308cdd2a112501f6323eb323c5c4305e443715",
    "W:q=3":
        "b13d687721120f6a1ea2ca5e53aad71408f25877eb862c48769e0ceb5b744056",
}


@pytest.mark.parametrize("spec", sorted(BASE_GROUP_DIGESTS))
def test_base_root_groups_are_pinned(spec):
    frame = MoufangFrame(build_flag_building(spec))
    groups = [frame.root_group(i) for i in range(2 * frame.n)]
    assert hashlib.sha256(json.dumps(groups).encode()).hexdigest() == (
        BASE_GROUP_DIGESTS[spec])


def test_transitivity_counts_routes(pg2_2):
    report = MoufangFrame(pg2_2).transitivity_check()
    # six base interiors carry four roots each; the rest are conjugated
    assert report["roots_searched"] == 24
    assert report["roots_conjugated"] == 60
    assert report["groups_cross_checked"] == moufang.CROSS_CHECK_GROUPS


def _doubled(frame, U):
    """q listed elements, the identity among them, one of the others
    twice."""
    u = next(m for m in U if m != frame.identity)
    return [frame.identity, u, u]


def _broken_base_frame(spec, i, transform):
    """A frame whose base group i is transform(frame, U_i), with the
    search's chamber maps taken as given back."""
    frame = MoufangFrame(build_flag_building(spec))
    U = frame.root_group(i)
    frame._root_cache[frame.base_interiors[i]] = transform(frame, U), True
    return frame


def test_transitivity_fails_on_base_group_missing_an_element():
    frame = _broken_base_frame(
        "PG2:q=3", 1, lambda f, U: [g for g in U if g != f.identity][:2])
    report = frame.transitivity_check()
    assert not report["ok"]
    assert 2 in report["group_orders"]


def test_transitivity_fails_on_base_group_listing_an_element_twice():
    # q listed elements, the identity among them, but only two distinct
    # apartment images: the action is not injective
    frame = _broken_base_frame("PG2:q=3", 1, _doubled)
    report = frame.transitivity_check()
    assert not report["ok"]
    assert report["group_orders"] == [3]
    assert any(f["elements_ok"] and f["agrees_with_search"]
               and f["group_order"] == f["apartments"] == 3
               for f in report["failures"])


def _swap_off_the_apartments(frame, U):
    # the far vertices of two chambers on the star of the middle interior
    # vertex of root 1 that no apartment through a root with this interior
    # contains: swapping their images leaves every orbit and stabilizer
    # count as it was
    middle = frame.vertex(3)
    a, b = [v for v in frame.graph[middle]
            if v not in (frame.vertex(2), frame.vertex(4))]
    u = next(m for m in U if m != frame.identity)
    bad = list(u)
    bad[a], bad[b] = bad[b], bad[a]
    return [m if m != u else tuple(bad) for m in U]


def test_transitivity_fails_on_base_group_with_a_non_automorphism():
    frame = _broken_base_frame("W:q=3", 1, _swap_off_the_apartments)
    assert any(None in frame._chamber_map(m) for m in frame.root_group(1))
    report = frame.transitivity_check()
    assert not report["ok"]
    # the explicit element check alone catches it: orbits and the search
    # agree on these roots
    assert any(not f["elements_ok"] and f["agrees_with_search"]
               and f["group_order"] == f["apartments"] == 3
               for f in report["failures"])


def _mutate_first_conjugated(frame, transform):
    """Make the frame's walk hand back transform(U) in place of the first
    group it makes by conjugation; returns the interiors mutated."""
    walk, mutated = frame.root_groups_by_conjugation, []

    def wrapped(interiors):
        for key, U, searched in walk(interiors):
            if searched is None and not mutated:
                mutated.append(key)
                U = transform(U)
            yield key, U, searched
    frame.root_groups_by_conjugation = wrapped
    return mutated


def test_transitivity_fails_on_a_conjugated_group_missing_an_element():
    frame = MoufangFrame(build_flag_building("PG2:q=3"))
    e = frame.identity
    mutated = _mutate_first_conjugated(
        frame, lambda U: [g for g in U if g != e][1:] + [e])
    report = frame.transitivity_check()
    assert not report["ok"]
    assert report["group_orders"] == [2, 3]
    assert report["failures"] and all(
        f["route"] == "conjugated" and f["group_order"] == 2
        and frame.interior(_reported_path(frame, f["root"])) == mutated[0]
        for f in report["failures"])


def test_transitivity_fails_on_a_group_conjugated_by_a_wrong_word():
    # one extra base generator at the end of the parent word: the group of
    # another interior, whose elements move the mutated interior's stars
    frame = MoufangFrame(build_flag_building("W:q=3"))
    gens = [m for i in range(2 * frame.n) for m in frame.root_group(i)
            if m != frame.identity]

    def extra_generator(U):
        for v in gens:
            moved = [conjugate(g, v) for g in U]
            if set(moved) != set(U):
                return moved
    mutated = _mutate_first_conjugated(frame, extra_generator)
    report = frame.transitivity_check()
    assert not report["ok"]
    assert report["group_orders"] == [3]
    assert report["failures"] and all(
        f["route"] == "conjugated" and not f["elements_ok"]
        and frame.interior(_reported_path(frame, f["root"])) == mutated[0]
        for f in report["failures"])


def test_transitivity_fails_when_vertex_maps_invert_the_search(monkeypatch):
    # a _vertex_map giving the vertex map of g^-1 makes every root group as
    # a set, since root groups are closed under inverses: each element
    # passes its check and the sampled searches agree.  Only the searched
    # groups' round trip to the search's chamber maps refuses it.  Over F_2
    # and F_4 every root element is an involution, so q = 3.
    vertex_map = MoufangFrame._vertex_map
    monkeypatch.setattr(MoufangFrame, "_vertex_map",
                        lambda self, g: vertex_map(self, inverse_perm(g)))
    report = MoufangFrame(build_flag_building("PG2:q=3")).transitivity_check()
    assert not report["ok"]
    assert report["failures"] and all(
        f["route"] == "searched" and not f["elements_ok"]
        and f["agrees_with_search"]
        and f["group_order"] == f["apartments"] == 3
        for f in report["failures"])


def test_transitivity_fails_when_the_search_disagrees(monkeypatch):
    # with the base groups found, a search that returns nothing makes the
    # sampled cross-checks disagree with the conjugated groups
    frame = MoufangFrame(build_flag_building("PG2:q=2"))
    for i in range(2 * frame.n):
        frame.root_group(i)
    monkeypatch.setattr(moufang, "find_automorphisms", lambda *a, **k: [])
    report = frame.transitivity_check()
    assert not report["ok"]
    assert report["failures"]
    assert all(f["route"] == "conjugated" and not f["agrees_with_search"]
               for f in report["failures"])


def test_interiors_the_walk_misses_are_searched():
    # trivial base groups leave the walk no generator, so every interior
    # off the base apartment falls back to the search
    frame = MoufangFrame(build_flag_building("PG2:q=2"))
    for i in range(2 * frame.n):
        frame._root_cache[frame.base_interiors[i]] = [frame.identity], True
    report = frame.transitivity_check()
    assert report["roots_conjugated"] == 0
    assert report["roots_searched"] == report["roots_checked"] == 84
    assert not report["ok"]
    assert report["group_orders"] == [1, 2]
    assert report["failures"] and all(
        f["route"] == "searched" and f["group_order"] == 1
        for f in report["failures"])


def test_is_automorphism(frame2):
    cx = frame2.cx
    U = frame2.root_group(1)
    assert all(cx.is_automorphism(frame2._chamber_map(m)) for m in U)
    identity = identity_perm(cx.size)
    g = list(identity)
    g[0], g[1] = g[1], g[0]
    assert not cx.is_automorphism(tuple(g))
    assert not cx.is_automorphism(identity[:-1])
    assert not cx.is_automorphism((0,) * frame2.N)
    # the retraction from chamber 0 onto an apartment through the first and
    # the last chamber maps each panel into a panel and reaches both ends,
    # but is no bijection
    last = cx.size - 1
    at = {cx.w_distance(0, e): e for e in cx.apartment_containing(0, last)}
    retraction = tuple(at[cx.w_distance(0, d)] for d in range(cx.size))
    assert min(retraction) == 0 and max(retraction) == last
    assert not cx.is_automorphism(retraction)
    assert not _is_automorphism_by_pairs(cx, retraction)


def test_automorphism_test_on_one_panel_is_the_bijection_test():
    # every map sends the one panel into a panel, so only the bijection
    # test decides; -1 would read the last chamber
    cx = ChamberComplex([(x,) for x in range(3)], [[1]], geometry="panel")
    for n in (2, 3, 4):
        for g in itertools.product(range(-3, 4), repeat=n):
            assert cx.is_automorphism(g) == _is_automorphism_by_pairs(cx, g)


# The automorphism test and the panel images as they stood in moufang.py
# before the complex owned its panels: the oracles of
# ChamberComplex.is_automorphism and ChamberComplex.panel_images.
def _is_automorphism_by_pairs(cx, g):
    """Per type, the pairs (panel of c, panel of g(c)) are exactly as many
    as the panels, and g is a bijection."""
    if sorted(g) != list(range(cx.size)):
        return False
    return all(len(set(zip(po, [po[x] for x in g]))) == len(plist)
               for po, plist in zip(cx.panel_of, cx.panels))


def _panel_images_by_first_member(cx, g):
    return [[po[g[members[0]]] for members in plist]
            for po, plist in zip(cx.panel_of, cx.panels)]


PERTURBATIONS = ("none", "swap", "panel-swap", "non-bijection")


def _base_root_elements(frame):
    """The nontrivial base root elements as chamber maps."""
    return [frame._chamber_map(m) for i in range(2 * frame.n)
            for m in frame.root_group(i) if m != frame.identity]


def _perturbed_elements(cx, gens, count, seed):
    """(perturbation, g) for count seeded products of up to four of the
    generators, perturbed in turn: not at all, by a swap of two chambers,
    by a swap of two chambers of one panel, and by giving one chamber the
    image of another."""
    rng = random.Random(seed)
    for k in range(count):
        g = identity_perm(cx.size)
        for _ in range(rng.randrange(5)):
            g = compose(g, rng.choice(gens))
        g = list(g)
        kind = PERTURBATIONS[k % len(PERTURBATIONS)]
        a = rng.randrange(cx.size)
        if kind == "panel-swap":
            i = rng.randrange(cx.rank)
            b = rng.choice([x for x in cx.copanel_members(i, a) if x != a])
        else:
            b = rng.choice([x for x in range(cx.size) if x != a])
        if kind == "non-bijection":
            g[a] = g[b]
        elif kind != "none":
            g[a], g[b] = g[b], g[a]
        yield kind, tuple(g)


@pytest.mark.parametrize("spec", ["PG2:q=4", "W:q=3"])
def test_automorphism_test_matches_the_pair_count(spec):
    # the swaps are bijections that only the panel rows reject
    frame = MoufangFrame(build_flag_building(spec))
    cx = frame.cx
    verdicts = Counter()
    for kind, g in _perturbed_elements(cx, _base_root_elements(frame), 3000,
                                       28):
        ok = cx.is_automorphism(g)
        assert ok == _is_automorphism_by_pairs(cx, g), (kind, g)
        images = cx.panel_images(g)
        assert list(map(list, images)) == _panel_images_by_first_member(cx, g)
        if ok:
            assert all(len(set(row)) == len(row) for row in images)
        verdicts[kind, ok] += 1
    assert verdicts == {("none", True): 750, ("swap", False): 750,
                        ("panel-swap", False): 750,
                        ("non-bijection", False): 750}


def test_mu_exists_unique_and_reflects(frame2, frame3):
    for frame in (frame2, frame3):
        for u in frame.root_group(1):
            if u == frame.identity:
                continue
            m = mu_element(frame, u, 1)
            assert frame.is_reflection_through(m, 1)
            # involution on the circuit: m^2 fixes every circuit vertex
            square = compose(m, m)
            assert all(square[v] == v for v in frame.circuit)
            # a reflection through vertex 2, and the rotation k -> k + 2
            # that follows it with the one through vertex 1, are refused
            u2 = next(g for g in frame.root_group(2) if g != frame.identity)
            m2 = mu_element(frame, u2, 2)
            assert frame.is_reflection_through(m2, 2)
            assert not frame.is_reflection_through(m2, 1)
            rotation = compose(m, m2)
            assert [rotation[v] for v in frame.circuit] == [
                frame.vertex(k + 2) for k in range(2 * frame.n)]
            assert not any(frame.is_reflection_through(rotation, i)
                           for i in range(2 * frame.n))


def test_mu_rejects_identity(frame2):
    with pytest.raises(InvalidSpec):
        mu_element(frame2, frame2.identity, 1)


def test_mu_refuses_more_than_one_candidate(frame2, monkeypatch):
    # with every map taken for a reflection, each product a u b of the
    # double coset is a candidate, and no single mu is left
    monkeypatch.setattr(frame2, "is_reflection_through", lambda g, i: True)
    u = next(g for g in frame2.root_group(1) if g != frame2.identity)
    top = frame2.root_group(1 + frame2.n)
    candidates = {compose(compose(a, u), b) for a in top for b in top}
    assert len(candidates) > 1
    with pytest.raises(NotUnique,
                       match=f"^{len(candidates)} mu candidates over root 1$"):
        mu_element(frame2, u, 1)


def test_fit_refuses_a_field_of_another_order(frame2):
    with pytest.raises(InvalidSpec, match="must match the panel parameter"):
        fit_parametrization(frame2, finite_field(3), 1)


def test_quadrangle_identity_says_no_where_u2_is_not_filled(framew,
                                                            monkeypatch):
    # U_2 read as the trivial group: the tables x_2 derived from x_4 by
    # conjugation land outside it
    true_group = framew.root_group
    monkeypatch.setattr(framew, "root_group", lambda i: (
        [framew.identity] if i == 2 else true_group(i)))
    assert quadrangle_identity_check(framew, finite_field(2)) == {
        "ok": False, "reason": "derived tables do not fill U_2, U_3"}


def test_parametrization_formula_pg2(frame2, frame3):
    for frame, q in ((frame2, 2), (frame3, 3)):
        field = finite_field(q)
        fit = fit_parametrization(frame, field, 1)
        x, x_top = fit["x"], fit["x_top"]
        assert len(set(x.values())) == q
        assert set(x.values()) == set(frame.root_group(1))
        assert set(x_top.values()) == set(frame.root_group(1 + frame.n))
        # additivity of the fitted table
        for a in range(q):
            for b in range(q):
                assert compose(x[a], x[b]) == x[field.add(a, b)]
        # the formula held during fitting; spot-check it once more
        for t in range(1, q):
            tinv = field.inv(t)
            lhs = mu_element(frame, x[t], 1)
            rhs = compose(compose(x_top[tinv], x[t]), x_top[tinv])
            assert lhs == rhs
        labels = orbit_labeling_check(frame, x, 1)
        assert labels["ok"]


@pytest.mark.parametrize("spec", ["PG2:q=3", "PG2:q=4", "W:q=3"])
def test_fit_rejects_mu_off_by_a_top_element(spec, monkeypatch):
    # each mu is shifted by one nontrivial element of U_{i+n}: the tables
    # still land in U_{i+n}, so only the product formula can reject them
    frame = MoufangFrame(build_flag_building(spec))
    v = next(g for g in frame.root_group(1 + frame.n)
             if g != frame.identity)
    true_mu = moufang.mu_element
    monkeypatch.setattr(moufang, "mu_element",
                        lambda f, u, i: compose(true_mu(f, u, i), v))
    with pytest.raises(NotFound, match="mu product formula"):
        fit_parametrization(frame, finite_field(frame.q), 1)


def test_fit_names_a_missing_mu():
    frame = MoufangFrame(build_flag_building("PG2:q=3"))
    frame._root_cache[frame.base_interiors[1 + frame.n]] = (
        [frame.identity], True)
    with pytest.raises(NotFound, match="no mu element"):
        fit_parametrization(frame, finite_field(3), 1)


def test_product_groups_are_stabilizers_pg2(frame2, frame3):
    for frame in (frame2, frame3):
        for i in (1, 2, 3):
            report = product_stabilizer_check(frame, i, 0)
            assert report["ok"], report


def test_product_groups_are_stabilizers_quadrangle(framew):
    for j in (0, 1):
        for i in range(1, framew.n - j + 1):
            report = product_stabilizer_check(framew, i, j)
            assert report["ok"], report
            assert report["product_order"] == 2 ** (j + 1)


def test_product_groups_and_commutators_elliptic_quadrangle(frame_elliptic):
    # |U_i| alternates 4, 2 with the type of vertex i; two adjacent roots
    # give 2 * 4
    orders = {}
    for j in (0, 1):
        for i in range(1, frame_elliptic.n - j + 1):
            report = product_stabilizer_check(frame_elliptic, i, j)
            assert report["ok"], report
            orders[i, j] = report["product_order"]
    assert orders == {(1, 0): 4, (2, 0): 2, (3, 0): 4, (4, 0): 2,
                      (1, 1): 8, (2, 1): 8, (3, 1): 8}
    report = commutator_containment_check(frame_elliptic)
    assert report["ok"], report["pairs"]


def test_commutator_containments(frame2, framew):
    for frame in (frame2, framew):
        report = commutator_containment_check(frame)
        assert report["ok"], report["pairs"]


def test_fixed_vertices_of_root_group(frame2):
    U = frame2.root_group(1)
    fixed = fixed_vertices_of_set(frame2, U)
    # at least the full root path stays fixed
    for v in frame2.root_path(1):
        assert _panels(frame2)[v] in fixed


def test_quadrangle_identity_f2(framew):
    field = finite_field(2)
    report = quadrangle_identity_check(framew, field)
    assert report["ok"], report
    assert report["qmap"][0] == 0
    assert report["qmap"][1] == 1


def test_quadrangle_identity_needs_gonality_4(frame2):
    with pytest.raises(InvalidSpec):
        quadrangle_identity_check(frame2, finite_field(2))


def test_filtration_indices_local_fields():
    for spec, q in (("Qp:p=2,prec=8", 2), ("Qp:p=5,prec=8", 5),
                    ("Laurent:q=3,prec=8", 3)):
        field = parse_field_spec(spec)
        report = filtration_indices(field, 0, 3, seed=11)
        assert report["ok"], report
        assert report["indices"] == [q] * 4
        assert report["expected_index"] == q


def test_filtration_negative_levels():
    field = parse_field_spec("Qp:p=3,prec=8")
    report = filtration_indices(field, -2, 1, seed=5)
    assert report["ok"]
    assert report["indices"] == [3, 3, 3, 3]


def test_filtration_index_is_measured(monkeypatch):
    # representatives that miss the class of 2 * pi^k: the measured index
    # falls below q and the level fails
    field = parse_field_spec("Laurent:q=3,prec=8")
    lift = field.residue_lift
    monkeypatch.setattr(field, "residue_lift",
                        lambda code: lift(min(code, 1)))
    report = filtration_indices(field, 0, 2, seed=11)
    assert report["indices"] == [2, 2, 2]
    assert not any(level["ok"] for level in report["levels"])
    assert not report["ok"]


def test_filtration_rejects_finite_field():
    with pytest.raises(InvalidSpec):
        filtration_indices(finite_field(5), 0, 2)
