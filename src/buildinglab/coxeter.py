"""Finite Coxeter systems as integer-indexed tables.

A Coxeter system (W, I) is presented by its Coxeter matrix m, where
m[i][i] = 1 and m[i][j] = m[j][i] >= 2 is the order of s_i s_j.  Elements
are plain ints indexing the system's tables: element k is the k-th in
shortlex order (0 is the identity), `words[k]` is its canonical reduced
word (the lexicographically least reduced word in the letters
I = {0, ..., r-1}), and `length`, `right` (the right Cayley table) and
`inverse` are lists indexed the same way.  No linear representation is
involved, so all arithmetic stays in small integers and is exact by
construction.

Enumeration is breadth-first over right multiplication by generators, ties
broken by generator index, and is decided by rank-2 descents alone.  If s
and t are both right descents of an element x, then x = y w0(s, t) with
lengths adding, y the shortest element of its <s, t>-coset (the parabolic
factorisation; Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).  So
for w and a non-descent s, ws was reached before exactly when, for some
t != s, walking w down by t, s, t, ... takes m_st - 1 steps to y and the
element u = y (... t s) of length l(w) already has its t-entry set: that
entry is ws.  Otherwise ws is new and its word is words[w] + (s,).

The enumeration aborts with BoundExceeded once ELEMENT_BOUND = 10**5
elements are passed.  That bound is how infinite systems surface: on a
2-vCPU VM affine A~2 (rows 1 3 3 / 3 1 3 / 3 3 1) reaches it in under a
second, holding 17.2 million letters in its words.  The words are stored
in full, so it also aborts once they hold LETTER_BOUND = 2 * 10**7
letters (about 160 MB): a dihedral I2(m), with about m^2 letters, is
admitted up to m = 4472 and I2(10**6) stops in well under a second.  E6
(51 840 elements, 933 120 letters) and H4 are far inside both bounds.
A walk for ws is tried only from a w of length at least m_st - 1, so a
dihedral element costs no walk until the top of its group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BoundExceeded, InvalidSpec

Word = tuple[int, ...]

ELEMENT_BOUND = 100_000
LETTER_BOUND = 20_000_000


def parse_coxeter_matrix(text: str) -> list[list[int]]:
    """Parse a Coxeter matrix from whitespace-separated integer rows."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    try:
        matrix = [[int(entry) for entry in row] for row in rows]
    except ValueError as exc:
        raise InvalidSpec(f"non-integer entry in Coxeter matrix: {exc}") from None
    _validate_matrix(matrix)
    return matrix


def _validate_matrix(matrix: Sequence[Sequence[int]]) -> None:
    rank = len(matrix)
    if rank == 0:
        raise InvalidSpec("empty Coxeter matrix")
    for i, row in enumerate(matrix):
        if len(row) != rank:
            raise InvalidSpec(f"row {i} has {len(row)} entries, expected {rank}")
        for j, entry in enumerate(row):
            if i == j:
                if entry != 1:
                    raise InvalidSpec(f"diagonal entry m[{i}][{i}] must be 1")
            else:
                if entry < 2:
                    raise InvalidSpec(
                        f"off-diagonal entry m[{i}][{j}] must be >= 2 (finite)")
                if matrix[j][i] != entry:
                    raise InvalidSpec(f"matrix not symmetric at ({i},{j})")


class CoxeterSystem:
    """Fully enumerated finite Coxeter system as integer-indexed tables.

    Element k is the k-th element in shortlex order, so 0 is the identity.
    The tables are the whole group API: `words[k]` (canonical reduced
    word), `length[k]`, `right[k][s]` (index of k s), `inverse[k]`,
    `longest` (index of w0), `order`, and `product_row(a)` (row a of the
    product table, built on first use).
    """

    def __init__(self, matrix: Sequence[Sequence[int]]):
        _validate_matrix(matrix)
        self.matrix = tuple(tuple(row) for row in matrix)
        self.rank = len(matrix)
        self.words: list[Word] = [()]
        self.length: list[int] = [0]
        self.right: list[list[int]] = [[-1] * self.rank]
        self._enumerate()
        self.order = len(self.words)
        top = max(self.length)
        longest = [k for k, l in enumerate(self.length) if l == top]
        # unique in a finite Coxeter group; a tie would mean a broken engine
        assert len(longest) == 1, "longest element is not unique"
        self.longest = longest[0]
        self.inverse = self._inverses()
        self._product_rows: dict[int, tuple[int, ...]] = {}

    def _enumerate(self) -> None:
        """Breadth-first fill of the tables (see the module docstring).

        right[w][s] and right[ws][s] are set together, so when w comes up
        its s-entry is already set exactly when s is a descent of w.
        """
        words, length, right = self.words, self.length, self.right
        w = held = 0
        while w < len(words):
            row = right[w]
            for s in range(self.rank):
                if row[s] >= 0:
                    continue
                ws = self._known_product(w, s)
                if ws < 0:
                    ws = len(words)
                    if ws >= ELEMENT_BOUND:
                        raise BoundExceeded(
                            f"enumeration passed {ELEMENT_BOUND} elements; "
                            "system is infinite or over desk scale")
                    held += length[w] + 1
                    if held > LETTER_BOUND:
                        raise BoundExceeded(
                            f"enumeration passed {LETTER_BOUND} letters in "
                            "its reduced words; system is over desk scale")
                    words.append(words[w] + (s,))
                    length.append(length[w] + 1)
                    right.append([-1] * self.rank)
                row[s] = ws
                right[ws][s] = w
            w += 1

    def _inverses(self) -> list[int]:
        """The inverse table, in time linear in the order.

        With t the last letter of w's word, w = u t for u = right[w][t],
        earlier in shortlex order.  Left and right multiplication commute,
        so s w = (s u) t fills the left table row by row, flat, entry
        w * rank + s, and w^-1 = t u^-1 is read off it.
        """
        right, words, rank = self.right, self.words, self.rank
        left = list(right[0])
        inverse = [0]
        for w in range(1, len(words)):
            t = words[w][-1]
            u = right[w][t]
            left += [right[x][t] for x in left[u * rank:(u + 1) * rank]]
            inverse.append(left[inverse[u] * rank + t])
        return inverse

    def _known_product(self, w: int, s: int) -> int:
        """ws if the table already holds it, else -1 (s not a descent of w).

        ws is already held only if it has a second descent t, and then
        ws = y w0(s, t) = u t with u = y (... t s) one shorter.
        """
        right, length = self.right, self.length
        for t in range(self.rank):
            if t == s:
                continue
            m = self.matrix[s][t]
            if length[w] < m - 1:
                continue  # too short to walk m - 1 steps down
            # walk w down by t, s, t, ...; ws = y w0(s, t) needs m - 1 steps
            y, k = w, 0
            while k < m - 1:
                down = right[y][(t, s)[k % 2]]
                if down < 0 or length[down] > length[y]:
                    break
                y, k = down, k + 1
            if k < m - 1:
                continue
            u = y
            for i in range(k, 0, -1):  # k alternating letters ending in s
                u = right[u][(t, s)[i % 2]]
            if right[u][t] >= 0:
                return right[u][t]
        return -1

    # -- element constructors -------------------------------------------

    def generator(self, i: int) -> int:
        if not 0 <= i < self.rank:
            raise InvalidSpec(f"generator index {i} out of range")
        return self.right[0][i]

    def element_from_word(self, word: Iterable[int]) -> int:
        word = tuple(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise InvalidSpec(f"letter {s} out of range for rank {self.rank}")
        e = 0
        for s in word:
            e = self.right[e][s]
        return e

    # -- structure -------------------------------------------------------

    def poincare_polynomial(self) -> list[int]:
        """Coefficients of sum_w q^l(w), ascending in q."""
        coeffs = [0] * (self.length[self.longest] + 1)
        for l in self.length:
            coeffs[l] += 1
        return coeffs

    def diagram_components(self) -> list[tuple[int, ...]]:
        """Connected components of the diagram (edges where m >= 3)."""
        remaining = set(range(self.rank))
        comps = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                i = frontier.pop()
                for j in range(self.rank):
                    if j in remaining and j not in comp and self.matrix[i][j] >= 3:
                        comp.add(j)
                        frontier.append(j)
            remaining -= comp
            comps.append(tuple(sorted(comp)))
        return comps

    def is_decomposable(self) -> bool:
        return len(self.diagram_components()) > 1

    def relation_violation(self) -> tuple[int, int, int] | None:
        """First (w, i, j), i <= j, with w (s_i s_j)^m_ij != w in the
        table, or None when every row satisfies the Coxeter relations."""
        right = self.right
        for w in range(self.order):
            for i in range(self.rank):
                for j in range(i, self.rank):
                    x = w
                    for _ in range(self.matrix[i][j]):
                        x = right[right[x][i]][j]
                    if x != w:
                        return w, i, j
        return None

    # -- arithmetic -------------------------------------------------------

    def multiply(self, a: int, b: int) -> int:
        right = self.right
        for s in self.words[b]:
            a = right[a][s]
        return a

    def product_row(self, a: int) -> tuple[int, ...]:
        """Row a of the product table, built on first use: entry b is a b.
        With s the last letter of b's word, b s comes earlier in shortlex
        order, and a b is its entry times s."""
        row = self._product_rows.get(a)
        if row is None:
            right, words = self.right, self.words
            out = [a]
            for b in range(1, self.order):
                s = words[b][-1]
                out.append(right[out[right[b][s]]][s])
            row = self._product_rows[a] = tuple(out)
        return row

    def conjugate_generator_by_longest(self, i: int) -> int:
        """The index j with s_j = w0 s_i w0 (diagram symmetry of w0)."""
        w0 = self.longest
        conj = self.multiply(self.multiply(w0, self.generator(i)), w0)
        word = self.words[conj]
        assert len(word) == 1, "conjugate of a generator by w0 must be a generator"
        return word[0]


# Matrices for the rank-2 catalog and small flag geometries.
MATRIX_A2 = [[1, 3], [3, 1]]
MATRIX_B2 = [[1, 4], [4, 1]]


def type_a_matrix(n: int) -> list[list[int]]:
    """Coxeter matrix of the symmetric group S_{n+1} (n generators)."""
    return [[1 if i == j else (3 if abs(i - j) == 1 else 2)
             for j in range(n)] for i in range(n)]
