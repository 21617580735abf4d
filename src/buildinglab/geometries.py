"""Flag geometries over finite fields, one row of FAMILIES per family: its
parameter names, and a function of them giving the ambient dimension m, the
ascending dimensions of a flag's subspaces, the filter its spaces pass (or
None) and the Coxeter matrix.  A chamber is a maximal flag.

  PG2:q=<n>       point-line flags of the projective plane PG(2, q),
                  attached Coxeter system of the 6-element dihedral type;
  W:q=<n>         point-line flags of the symplectic quadrangle in PG(3, q)
                  (all points, totally isotropic lines of an alternating
                  form), attached dihedral type of order 8;
  Aflags:n=<k>,q=<n>  complete flags of subspaces of F_q^{k+1}, attached
                  symmetric-group type.

All three are flag complexes of subspaces of F_q^m and are built one way,
top-down.  The subspaces of the top dimension are listed once each as
reduced-row-echelon bases, one Schubert cell of the Grassmannian per choice
of pivot columns, and each flag is then extended one dimension down inside
its last-chosen space.  The d-subspaces of the span of an echelon basis B
are exactly the products A.B for A an echelon basis of a d-subspace of
F^len(B), and A.B is already echelon: as B is echelon, A.B read at B's
pivot columns is A itself, and as A is echelon, row r of A.B then leads
with a one at the pivot of the B row that A's r-th pivot picks, the only
nonzero entry of that column.  So no containment is tested and no row
reduced.  A family may filter the spaces of every dimension (W keeps the
totally isotropic ones).  Partial flags never outnumber chambers, so the
build raises BoundExceeded as soon as a layer passes CHAMBER_BOUND, from
the top layer on: its spaces are generated and filtered one at a time, and
none past the bound is listed.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .coxeter import MATRIX_A2, MATRIX_B2, type_a_matrix
from .errors import BoundExceeded, InvalidSpec
from .localfield import FiniteField, finite_field

Vector = tuple[int, ...]
Subspace = tuple[Vector, ...]    # reduced-row-echelon basis, canonical

# the largest flag complex built (see the module docstring)
CHAMBER_BOUND = 2000


def all_subspaces(F: FiniteField, n: int, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of F^n, each once as its canonical
    reduced-row-echelon basis, one at a time.

    The bases are enumerated cell by cell (the Schubert cells of the
    Grassmannian): for each choice of pivot columns, row r has a one in its
    pivot column, zeros left of it and in the other pivot columns, and a free
    entry in every other column right of its pivot."""
    for pivots in itertools.combinations(range(n), dim):
        free = [(r, c) for r, p in enumerate(pivots)
                for c in range(p + 1, n) if c not in pivots]
        for values in itertools.product(range(F.q), repeat=len(free)):
            rows = [[0] * n for _ in pivots]
            for r, p in enumerate(pivots):
                rows[r][p] = F.one
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield tuple(map(tuple, rows))


def _combine(F: FiniteField, coeffs: Subspace, basis: Subspace) -> Subspace:
    """The product coeffs.basis: row r combines basis's rows with the
    entries of coeffs' row r, whose first nonzero entry is a one."""
    add, mul = F.add, F.mul
    out = []
    for weights in coeffs:
        terms = [(c, brow) for c, brow in zip(weights, basis) if c]
        row = terms[0][1]
        for c, brow in terms[1:]:
            row = tuple([add(x, mul(c, y)) for x, y in zip(row, brow)])
        out.append(row)
    return tuple(out)


def subspace_flags(F: FiniteField, ambient: int, dims: Sequence[int],
                   keep, label: str) -> list[tuple]:
    """The flags of F^ambient with one subspace of each of the ascending
    dims, every one passing keep(F, space) unless keep is None; a flag lists
    its spaces in the order of dims.

    Built top-down, as the module docstring describes: each flag grows one
    dimension down inside its lowest space, as the products A.B over one
    listed layer of A's.  Raises BoundExceeded, naming label, once the
    flags pass CHAMBER_BOUND, with no layer listed past it.
    """
    flags: list[tuple] = [()]
    above = ambient
    for dim in reversed(dims):
        # the top layer is read once, lazily; a lower one by every flag
        layer = all_subspaces(F, above, dim)
        if above < ambient:
            layer = list(layer)
        grown = []
        for flag in flags:
            spaces = ((_combine(F, a, flag[0]) for a in layer) if flag
                      else layer)
            kept = ((sp,) + flag for sp in spaces
                    if keep is None or keep(F, sp))
            grown.extend(itertools.islice(kept,
                                          CHAMBER_BOUND + 1 - len(grown)))
            if len(grown) > CHAMBER_BOUND:
                raise BoundExceeded(
                    f"flag count passed {CHAMBER_BOUND} for {label}")
        flags = grown
        above = dim
    return flags


def _totally_isotropic(F: FiniteField, space: Subspace) -> bool:
    """Whether the alternating form x0y1 - x1y0 + x2y3 - x3y2 on F^4
    vanishes on the span."""
    return all(F.add(F.sub(F.mul(x[0], y[1]), F.mul(x[1], y[0])),
                     F.sub(F.mul(x[2], y[3]), F.mul(x[3], y[2]))) == 0
               for x, y in itertools.combinations(space, 2))


def _full_flags(n: int, q: int):
    if n < 2:
        raise InvalidSpec("Aflags rank must be at least 2")
    return n + 1, tuple(range(1, n + 1)), None, type_a_matrix(n)


# family -> (its parameter names, all required; its row function)
FAMILIES = {
    "PG2": (("q",), lambda q: (3, (1, 2), None, MATRIX_A2)),
    "W": (("q",), lambda q: (4, (1, 2), _totally_isotropic, MATRIX_B2)),
    "Aflags": (("n", "q"), _full_flags),
}


def parse_geometry_spec(spec: str) -> tuple[str, dict]:
    head, _, rest = spec.strip().partition(":")
    if head not in FAMILIES:
        raise InvalidSpec(f"unknown geometry family {head!r}")
    names = FAMILIES[head][0]
    params = {}
    for piece in rest.split(",") if rest else ():
        key, _, val = piece.partition("=")
        if key not in names or key in params:
            raise InvalidSpec(f"{head} takes each of {', '.join(names)} "
                              f"once, got {piece!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise InvalidSpec(f"bad geometry parameter {piece!r}") from None
    if len(params) != len(names):
        raise InvalidSpec(f"{head} needs "
                          + ",".join(f"{k}=<int>" for k in names))
    return head, params


def geometry_flags(spec: str) -> tuple[list[tuple], list[list[int]]]:
    """The flags of the named geometry and its row's Coxeter matrix."""
    head, params = parse_geometry_spec(spec)
    F = finite_field(params["q"])
    ambient, dims, keep, matrix = FAMILIES[head][1](**params)
    return subspace_flags(F, ambient, dims, keep, spec), matrix
