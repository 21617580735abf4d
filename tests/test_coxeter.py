import copy
import random
import time

import pytest

from buildinglab.coxeter import (
    LETTER_BOUND,
    MATRIX_A2,
    MATRIX_B2,
    CoxeterSystem,
    Word,
    parse_coxeter_matrix,
    type_a_matrix,
)
from buildinglab.errors import BoundExceeded, InvalidSpec

MATRIX_A1xA1 = [[1, 2], [2, 1]]
MATRIX_B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
MATRIX_H3 = [[1, 3, 2], [3, 1, 5], [2, 5, 1]]


def dihedral_matrix(m):
    return [[1, m], [m, 1]]


def _diagram(rank, edges):
    """Coxeter matrix with m = 2 except on the given (i, j, m) edges."""
    matrix = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, m in edges:
        matrix[i][j] = matrix[j][i] = m
    return matrix


MATRIX_E6 = _diagram(6, [(0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)])


# -- braid-closure oracle ----------------------------------------------------
# The earlier enumeration engine: every element named by the lex-least word
# of its braid class (Tits' solution of the word problem).  Slow (its cost
# grows exponentially with word length) but independent of the table walk.


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


def _reference_tables(matrix):
    """(words, right) by the braid-closure engine, in the same BFS order."""
    rank = len(matrix)
    index: dict[Word, int] = {(): 0}
    words: list[Word] = [()]
    right = []
    k = 0
    while k < len(words):
        row = []
        for s in range(rank):
            nf = _normal_form(words[k] + (s,), matrix)
            if nf not in index:
                index[nf] = len(words)
                words.append(nf)
            row.append(index[nf])
        right.append(row)
        k += 1
    return words, right


@pytest.fixture(scope="module")
def a2():
    return CoxeterSystem(MATRIX_A2)


@pytest.fixture(scope="module")
def b2():
    return CoxeterSystem(MATRIX_B2)


def test_a2_order_and_longest(a2):
    assert a2.order == 6
    assert a2.length[a2.longest] == 3
    # w0 is an involution
    w0 = a2.longest
    assert a2.multiply(w0, w0) == 0


def test_b2_order_and_longest(b2):
    assert b2.order == 8
    assert b2.length[b2.longest] == 4
    w0 = b2.longest
    assert b2.multiply(w0, w0) == 0


def test_a1xa1_decomposable():
    sys = CoxeterSystem(MATRIX_A1xA1)
    assert sys.order == 4
    assert sys.is_decomposable()
    assert sys.diagram_components() == [(0,), (1,)]


def test_irreducible_not_decomposable(a2, b2):
    assert not a2.is_decomposable()
    assert not b2.is_decomposable()


def test_poincare_polynomials(a2, b2):
    assert a2.poincare_polynomial() == [1, 2, 2, 1]
    assert b2.poincare_polynomial() == [1, 2, 2, 2, 1]


def test_poincare_palindromic_and_counts(a2, b2):
    for sys in (a2, b2, CoxeterSystem(type_a_matrix(3))):
        coeffs = sys.poincare_polynomial()
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == sys.order
        # evaluation at q=1 is the order; at q=2 and 3 used as chamber counts
        assert sum(c * 2 ** k for k, c in enumerate(coeffs)) > sys.order


def test_reduce_word_examples(a2):
    def reduce(word):
        return a2.words[a2.element_from_word(word)]
    # s0 s1 s0 s0 s1 collapses: the middle s0 s0 cancels
    assert reduce((0, 1, 0, 0, 1)) == (0,)
    assert reduce(()) == ()
    assert reduce((0, 0)) == ()
    # braid relation: 010 = 101, canonical is the lex-least
    assert reduce((1, 0, 1)) == (0, 1, 0)


def test_reduced_words_closure(a2, b2, reduced_words):
    w0 = a2.longest
    assert reduced_words(a2, w0) == [(0, 1, 0), (1, 0, 1)]
    assert reduced_words(b2, b2.longest) == [(0, 1, 0, 1), (1, 0, 1, 0)]


def test_length_law_exhaustive(a2, b2):
    # l(ws) = l(w) +- 1 for every element and generator
    for sys in (a2, b2, CoxeterSystem(type_a_matrix(3))):
        for w in range(sys.order):
            for s in range(sys.rank):
                ws = sys.right[w][s]
                assert abs(sys.length[ws] - sys.length[w]) == 1


def test_multiplication_is_group_law(b2):
    for a in range(b2.order):
        assert b2.multiply(a, b2.inverse[a]) == 0
        for b in range(b2.order):
            c = b2.multiply(a, b)
            # associativity spot check against word concatenation
            assert c == b2.element_from_word(b2.words[a] + b2.words[b])


def test_longest_descends_everywhere(b2):
    w0 = b2.longest
    for s in range(b2.rank):
        assert b2.length[b2.right[w0][s]] < b2.length[w0]


def test_conjugation_by_longest_permutes_generators(a2, b2):
    for sys in (a2, b2, CoxeterSystem(type_a_matrix(3))):
        image = [sys.conjugate_generator_by_longest(i) for i in range(sys.rank)]
        assert sorted(image) == list(range(sys.rank))


def test_type_a3():
    sys = CoxeterSystem(type_a_matrix(3))
    assert sys.order == 24
    assert sys.length[sys.longest] == 6


def test_dihedral_orders():
    for m in (3, 4, 5, 6):
        assert CoxeterSystem(dihedral_matrix(m)).order == 2 * m


@pytest.mark.parametrize("matrix", [
    [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    [[1, 2, 3], [2, 1, 7], [3, 7, 1]],
], ids=["affine-A2", "affine-C2", "triangle-237"])
def test_bound_exceeded_on_infinite_system(matrix):
    # affine and hyperbolic triangle groups are infinite; the default bound
    # is reached in about a second
    with pytest.raises(BoundExceeded):
        CoxeterSystem(matrix)


def test_letter_bound_stops_a_huge_dihedral_group_quickly():
    # I2(m) holds about m^2 letters in its words: I2(10^6) passes the
    # letter bound after about 9 000 elements; I2(1000) is admitted whole
    dihedral = CoxeterSystem([[1, 1000], [1000, 1]])
    assert dihedral.order == 2000 and dihedral.length[dihedral.longest] == 1000
    assert dihedral.relation_violation() is None
    started = time.perf_counter()
    with pytest.raises(BoundExceeded, match=f"{LETTER_BOUND} letters"):
        CoxeterSystem([[1, 10**6], [10**6, 1]])
    assert time.perf_counter() - started < 1.0


def _oracle_pairs(sys, sample):
    if sample is None:
        return [(a, b) for a in range(sys.order) for b in range(sys.order)]
    rng = random.Random(5)
    return [(rng.randrange(sys.order), rng.randrange(sys.order))
            for _ in range(sample)]


@pytest.mark.parametrize("matrix, sample", [
    (type_a_matrix(3), None),
    (dihedral_matrix(5), None),
    (MATRIX_B3, 300),
], ids=["A3", "I2(5)", "B3"])
def test_tables_against_braid_closure_oracle(matrix, sample):
    # the table walk and a fresh normal form of the concatenated words are
    # two routes to the same canonical word
    sys = CoxeterSystem(matrix)
    for a, b in _oracle_pairs(sys, sample):
        expected = _normal_form(sys.words[a] + sys.words[b], sys.matrix)
        assert sys.words[sys.multiply(a, b)] == expected, (a, b)
    for a in range(sys.order):
        inv = sys.inverse[a]
        assert sys.multiply(a, inv) == sys.multiply(inv, a) == 0
        assert sys.length[a] == len(sys.words[a])


@pytest.mark.parametrize("matrix", [
    type_a_matrix(3), MATRIX_B3, MATRIX_H3, dihedral_matrix(5),
    dihedral_matrix(6), _diagram(3, [(0, 1, 3)]), _diagram(3, []),
], ids=["A3", "B3", "H3", "I2(5)", "I2(6)", "A2xA1", "A1^3"])
def test_tables_match_braid_closure_enumerator(matrix):
    words, right = _reference_tables(matrix)
    sys = CoxeterSystem(matrix)
    assert sys.words == words
    assert sys.right == right


@pytest.mark.parametrize("matrix", [type_a_matrix(3), MATRIX_B3, MATRIX_H3],
                         ids=["A3", "B3", "H3"])
def test_reduced_words_match_braid_closure(matrix, reduced_words):
    sys = CoxeterSystem(matrix)
    for a in range(sys.order):
        assert reduced_words(sys, a) == sorted(
            _braid_closure(sys.words[a], sys.matrix)), a


@pytest.mark.parametrize("matrix, order, top", [
    (type_a_matrix(5), 720, 15),
    (_diagram(4, [(0, 1, 4), (1, 2, 3), (2, 3, 3)]), 384, 16),
    (_diagram(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)]), 1152, 24),
    (_diagram(4, [(0, 1, 5), (1, 2, 3), (2, 3, 3)]), 14_400, 60),
    (MATRIX_E6, 51_840, 36),
], ids=["A5", "B4", "F4", "H4", "E6"])
def test_known_orders_and_longest_lengths(matrix, order, top):
    sys = CoxeterSystem(matrix)
    assert sys.order == order
    assert sys.length[sys.longest] == top
    coeffs = sys.poincare_polynomial()
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == order


@pytest.mark.parametrize("matrix", [
    type_a_matrix(3), MATRIX_B3, MATRIX_H3, dihedral_matrix(5), MATRIX_E6,
], ids=["A3", "B3", "H3", "I2(5)", "E6"])
def test_inverse_matches_the_reversed_words(matrix):
    # the left-action table against each word read backwards
    sys = CoxeterSystem(matrix)
    assert sys.inverse == [sys.element_from_word(reversed(w))
                           for w in sys.words]


def test_relation_violation_catches_swapped_entries(b2):
    assert b2.relation_violation() is None
    broken = copy.copy(b2)
    broken.right = [row[:] for row in b2.right]
    w = 3
    broken.right[w][0], broken.right[w][1] = b2.right[w][1], b2.right[w][0]
    assert broken.relation_violation() is not None
    assert b2.relation_violation() is None


def test_generator_and_word_bounds(a2):
    with pytest.raises(InvalidSpec):
        a2.generator(a2.rank)
    with pytest.raises(InvalidSpec):
        a2.generator(-1)
    with pytest.raises(InvalidSpec):
        a2.element_from_word((0, a2.rank))


def test_matrix_validation():
    with pytest.raises(InvalidSpec):
        CoxeterSystem([[1, 1], [1, 1]])
    with pytest.raises(InvalidSpec):
        CoxeterSystem([[1, 3], [4, 1]])
    with pytest.raises(InvalidSpec):
        parse_coxeter_matrix("1 x\nx 1")


def test_parse_matrix_roundtrip():
    matrix = parse_coxeter_matrix("1 4\n4 1\n")
    assert matrix == MATRIX_B2
    assert CoxeterSystem(matrix).order == 8
