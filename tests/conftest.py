"""Reference routines shared by several test modules, as fixtures."""

import itertools

import pytest

from buildinglab.chambers import ChamberComplex
from buildinglab.coxeter import MATRIX_B2
from buildinglab.geometries import subspace_flags
from buildinglab.localfield import finite_field


def _reduced_words(W, a):
    """All reduced words of the element a of the Coxeter system W, sorted:
    for each descent s of a, the reduced words of a s followed by s."""
    if a == 0:
        return [()]
    return sorted(word + (s,) for s, b in enumerate(W.right[a])
                  if W.length[b] < W.length[a]
                  for word in _reduced_words(W, b))


@pytest.fixture(scope="session")
def reduced_words():
    return _reduced_words


def _chamber_neighbors(cx, c):
    """(i, e) for each chamber e i-adjacent to c, by type i."""
    for i in range(cx.rank):
        for e in cx.copanel_members(i, c):
            if e != c:
                yield i, e


@pytest.fixture(scope="session")
def chamber_neighbors():
    return _chamber_neighbors


def _singular(F, space):
    """Whether x0x1 + x2x3 + x4^2 + x4x5 + x5^2 vanishes on the span over
    F_2; its last three terms are anisotropic, so the quadric is elliptic."""
    for coeffs in itertools.product(range(2), repeat=len(space)):
        x = [sum(c * v[k] for c, v in zip(coeffs, space)) % 2
             for k in range(6)]
        if (x[0] * x[1] + x[2] * x[3] + x[4] + x[4] * x[5] + x[5]) % 2:
            return False
    return True


@pytest.fixture(scope="session")
def elliptic_singular():
    """The filter of the Q-(5, 2) subspaces, as `subspace_flags` takes it."""
    return _singular


@pytest.fixture(scope="session")
def elliptic_quadrangle_2():
    """The point-line flags of the elliptic quadric Q-(5, 2): 27 singular
    points, 45 singular lines, 135 chambers.  A Moufang quadrangle of
    order (2, 4): a line has 3 points, a point lies on 5 lines."""
    flags = subspace_flags(finite_field(2), 6, (1, 2), _singular, "Q-(5,2)")
    return ChamberComplex(flags, MATRIX_B2, geometry="Q-(5,2)")
