import random

import pytest

from buildinglab.coxeter import (
    MATRIX_A1xA1,
    MATRIX_A2,
    MATRIX_B2,
    _normal_form,
    build_coxeter_system,
    dihedral_matrix,
    parse_coxeter_matrix,
    type_a_matrix,
)
from buildinglab.errors import BoundExceeded, InvalidSpec

MATRIX_B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]


@pytest.fixture(scope="module")
def a2():
    return build_coxeter_system(MATRIX_A2)


@pytest.fixture(scope="module")
def b2():
    return build_coxeter_system(MATRIX_B2)


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
    sys = build_coxeter_system(MATRIX_A1xA1)
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
    for sys in (a2, b2, build_coxeter_system(type_a_matrix(3))):
        coeffs = sys.poincare_polynomial()
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == sys.order
        # evaluation at q=1 is the order; at q=2 and 3 used as chamber counts
        assert sum(c * 2 ** k for k, c in enumerate(coeffs)) > sys.order


def test_reduce_word_examples(a2):
    # s0 s1 s0 s0 s1 collapses: the middle s0 s0 cancels
    assert a2.reduce_word((0, 1, 0, 0, 1)) == (0,)
    assert a2.reduce_word(()) == ()
    assert a2.reduce_word((0, 0)) == ()
    # braid relation: 010 = 101, canonical is the lex-least
    assert a2.reduce_word((1, 0, 1)) == (0, 1, 0)


def test_reduced_words_closure(a2, b2):
    w0 = a2.longest
    assert a2.reduced_words(w0) == [(0, 1, 0), (1, 0, 1)]
    assert b2.reduced_words(b2.longest) == [(0, 1, 0, 1), (1, 0, 1, 0)]


def test_length_law_exhaustive(a2, b2):
    # l(ws) = l(w) +- 1 for every element and generator
    for sys in (a2, b2, build_coxeter_system(type_a_matrix(3))):
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
    for sys in (a2, b2, build_coxeter_system(type_a_matrix(3))):
        image = [sys.conjugate_generator_by_longest(i) for i in range(sys.rank)]
        assert sorted(image) == list(range(sys.rank))


def test_type_a3():
    sys = build_coxeter_system(type_a_matrix(3))
    assert sys.order == 24
    assert sys.length[sys.longest] == 6


def test_dihedral_orders():
    for m in (3, 4, 5, 6):
        assert build_coxeter_system(dihedral_matrix(m)).order == 2 * m


def test_bound_exceeded_on_infinite_system():
    # the (3,3,3) triangle reflection group is infinite
    triangle = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    with pytest.raises(BoundExceeded):
        build_coxeter_system(triangle, element_bound=200)


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
    sys = build_coxeter_system(matrix)
    for a, b in _oracle_pairs(sys, sample):
        expected = _normal_form(sys.words[a] + sys.words[b], sys.matrix)
        assert sys.words[sys.multiply(a, b)] == expected, (a, b)
    for a in range(sys.order):
        inv = sys.inverse[a]
        assert sys.multiply(a, inv) == sys.multiply(inv, a) == 0
        assert sys.length[a] == len(sys.words[a])


def test_generator_and_word_bounds(a2):
    with pytest.raises(InvalidSpec):
        a2.generator(a2.rank)
    with pytest.raises(InvalidSpec):
        a2.generator(-1)
    with pytest.raises(InvalidSpec):
        a2.element_from_word((0, a2.rank))


def test_matrix_validation():
    with pytest.raises(InvalidSpec):
        build_coxeter_system([[1, 1], [1, 1]])
    with pytest.raises(InvalidSpec):
        build_coxeter_system([[1, 3], [4, 1]])
    with pytest.raises(InvalidSpec):
        parse_coxeter_matrix("1 x\nx 1")


def test_parse_matrix_roundtrip():
    matrix = parse_coxeter_matrix("1 4\n4 1\n")
    assert matrix == MATRIX_B2
    assert build_coxeter_system(matrix).order == 8
