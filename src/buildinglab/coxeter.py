"""Finite Coxeter systems by pure word combinatorics.

A Coxeter system (W, I) is presented by its Coxeter matrix m, where
m[i][i] = 1 and m[i][j] = m[j][i] >= 2 is the order of s_i s_j.  Elements
are plain ints indexing the system's tables: element k is the k-th in
shortlex order (0 is the identity), `words[k]` is its canonical reduced
word (the lexicographically least reduced word in the letters
I = {0, ..., r-1}), and `length`, `right` (the right Cayley table) and
`inverse` are lists indexed the same way.  Everything rests on Tits'
solution of the word problem: two reduced words express the same element
exactly when they are connected by braid moves, and a word is reduced
exactly when no sequence of braid moves exposes a doubled letter.  No
linear representation is involved, so all arithmetic stays in small integer
tuples and is exact by construction.

Enumeration is breadth-first over right multiplication by generators, ties
broken by generator index, and aborts with BoundExceeded once the element
bound is passed (default 10**5).  That bound is the only concession to
infinite systems, which are otherwise out of scope at desk scale, and in
practice it surfaces them slowly: the braid closure behind each normal
form grows exponentially with word length.  On a 2-vCPU VM affine A~2
(rows 1 3 3 / 3 1 3 / 3 3 1) passed a bound of 1000 after about 25 s and
had not reached the default bound after 120 s.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BoundExceeded, InvalidSpec

Word = tuple[int, ...]

DEFAULT_ELEMENT_BOUND = 100_000


def _alt(i: int, j: int, length: int) -> Word:
    """Alternating word i j i j ... of the given length."""
    return tuple(i if k % 2 == 0 else j for k in range(length))


def _braid_closure(word: Word, matrix) -> set[Word]:
    """All words reachable from `word` by braid moves alone.

    For a reduced word this is the full set of reduced expressions of the
    element (Tits); for a non-reduced word it is still closed under braid
    moves, which is all the reduction loop needs.
    """
    seen = {word}
    queue = [word]
    while queue:
        w = queue.pop()
        n = len(w)
        for k in range(n - 1):
            i, j = w[k], w[k + 1]
            if i == j:
                continue
            order = matrix[i][j]
            if k + order > n or w[k:k + order] != _alt(i, j, order):
                continue
            new = w[:k] + _alt(j, i, order) + w[k + order:]
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return seen


def _normal_form(word: Word, matrix) -> Word:
    """Canonical reduced word: lex-least element of the braid class.

    Repeatedly closes under braid moves and strikes the first doubled
    letter found (scanning variants in sorted order keeps the reduction
    deterministic); a class with no doubled letter is reduced.
    """
    w = tuple(word)
    while True:
        closure = _braid_closure(w, matrix)
        shrunk = None
        for cand in sorted(closure):
            for k in range(len(cand) - 1):
                if cand[k] == cand[k + 1]:
                    shrunk = cand[:k] + cand[k + 2:]
                    break
            if shrunk is not None:
                break
        if shrunk is None:
            return min(closure)
        w = shrunk


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
    `longest` (index of w0) and `order`.
    """

    def __init__(self, matrix: Sequence[Sequence[int]],
                 element_bound: int = DEFAULT_ELEMENT_BOUND):
        _validate_matrix(matrix)
        self.matrix = tuple(tuple(row) for row in matrix)
        self.rank = len(matrix)
        self.words: list[Word] = []
        self.right: list[list[int]] = []
        self._enumerate(element_bound)
        self.order = len(self.words)
        self.length = [len(w) for w in self.words]
        top = max(self.length)
        longest = [k for k, l in enumerate(self.length) if l == top]
        # unique in a finite Coxeter group; a tie would mean a broken engine
        assert len(longest) == 1, "longest element is not unique"
        self.longest = longest[0]
        self.inverse = [self.element_from_word(reversed(w))
                        for w in self.words]

    def _enumerate(self, bound: int) -> None:
        matrix = self.matrix
        index: dict[Word, int] = {(): 0}
        self.words.append(())
        k = 0
        while k < len(self.words):
            w = self.words[k]
            row = []
            for s in range(self.rank):
                nf = _normal_form(w + (s,), matrix)
                j = index.get(nf)
                if j is None:
                    j = len(self.words)
                    if j >= bound:
                        raise BoundExceeded(
                            f"enumeration passed {bound} elements; "
                            "system is infinite or over desk scale")
                    index[nf] = j
                    self.words.append(nf)
                row.append(j)
            self.right.append(row)
            k += 1

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

    # -- arithmetic -------------------------------------------------------

    def multiply(self, a: int, b: int) -> int:
        right = self.right
        for s in self.words[b]:
            a = right[a][s]
        return a

    def reduce_word(self, word: Iterable[int]) -> Word:
        """Canonical reduced word of the element the input word spells."""
        return self.words[self.element_from_word(word)]

    def reduced_words(self, a: int) -> list[Word]:
        """All reduced words of a, sorted (braid-move closure)."""
        return sorted(_braid_closure(self.words[a], self.matrix))

    def conjugate_generator_by_longest(self, i: int) -> int:
        """The index j with s_j = w0 s_i w0 (diagram symmetry of w0)."""
        w0 = self.longest
        conj = self.multiply(self.multiply(w0, self.generator(i)), w0)
        word = self.words[conj]
        assert len(word) == 1, "conjugate of a generator by w0 must be a generator"
        return word[0]


def build_coxeter_system(matrix: Sequence[Sequence[int]],
                         element_bound: int = DEFAULT_ELEMENT_BOUND) -> CoxeterSystem:
    """Enumerate the Coxeter system of the given matrix.

    Raises BoundExceeded if the enumeration passes element_bound.  An
    infinite (e.g. affine) matrix gets there only slowly; see the module
    docstring.
    """
    return CoxeterSystem(matrix, element_bound)


# Matrices for the rank-2 catalog and small flag geometries.
MATRIX_A1xA1 = [[1, 2], [2, 1]]
MATRIX_A2 = [[1, 3], [3, 1]]
MATRIX_B2 = [[1, 4], [4, 1]]


def dihedral_matrix(m: int) -> list[list[int]]:
    return [[1, m], [m, 1]]


def type_a_matrix(n: int) -> list[list[int]]:
    """Coxeter matrix of the symmetric group S_{n+1} (n generators)."""
    return [[1 if i == j else (3 if abs(i - j) == 1 else 2)
             for j in range(n)] for i in range(n)]
