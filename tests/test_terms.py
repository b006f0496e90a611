import pytest
from hypothesis import given

from kauffman import (
    CIRCLE,
    Block,
    DomainError,
    JonesNF,
    Measure,
    Term,
    make_block,
    measure_word,
    nf_to_term,
)

from helpers import expand, normal_forms_st, terms_st


def test_make_block_expands_to_descending_diapsides():
    t = Term(4, (make_block(4, 3, 1),))
    assert expand(t).word == (Block(3, 3), Block(2, 2), Block(1, 1))


def test_make_block_singular_is_diapsis():
    assert make_block(2, 1, 1) == Block(1, 1)


def test_make_block_rejects_inverted_indices():
    with pytest.raises(DomainError):
        make_block(4, 1, 3)


@pytest.mark.parametrize("n, b, a", [(4, 4, 1), (4, 1, 0), (1, 1, 1), (5, 5, 5)])
def test_make_block_rejects_out_of_range(n, b, a):
    with pytest.raises(DomainError):
        make_block(n, b, a)


def test_term_validates_blocks_against_size():
    with pytest.raises(DomainError):
        Term(3, (Block(3, 3),))
    with pytest.raises(DomainError):
        Term(1, ())


@pytest.mark.parametrize("build", [
    lambda: Term(3, (Block(True, True), Block(1.5, 1))),
    lambda: Term(3, (Block(1.5, 1),)),
    lambda: Term(3, (Block("2", 1),)),
    lambda: Term(3.0),
    lambda: JonesNF(3, True),
    lambda: JonesNF(3, 1.0),
    lambda: JonesNF(3.0, 0, ((2.0, 1),)),
    lambda: JonesNF(3, 0, ((2, 1.0),)),
    lambda: JonesNF("3"),
], ids=["bool-and-float-index", "float-index", "str-index", "float-size",
        "bool-circles", "float-circles", "float-size-and-index", "float-nf-index",
        "str-nf-size"])
def test_sizes_circles_and_indices_must_be_integers(build):
    with pytest.raises(DomainError):
        build()


def test_expand_unit_and_singulars():
    assert expand(Term(5)).word == ()
    t = Term(3, (CIRCLE, Block(2, 2)))
    assert expand(t) == t


def test_measure_of_single_block():
    # weight of h^[2,1] is 2 - 1 + 2 = 3, nothing to its right
    assert measure_word((Block(2, 1),)) == Measure(3, 0)


def test_measure_of_unit():
    assert measure_word(()) == Measure(0, 0)


def test_measure_counts_blocks_left_of_circles():
    # one block of weight 2; the circle has one block on its left
    assert measure_word((Block(1, 1), CIRCLE)) == Measure(2, 1)


def test_measure_mixed_word():
    # h2 h1 c h3: weights 2+2+2; h2 dominates h1; the circle follows two blocks
    t = Term(4, (Block(2, 2), Block(1, 1), CIRCLE, Block(3, 3)))
    assert measure_word(t.word) == Measure(6, 3)


def test_measure_orders_lexicographically():
    assert Measure(1, 99) < Measure(2, 0)
    assert Measure(2, 0) < Measure(2, 1)


@given(terms_st())
def test_measure_positive_on_block_words(t):
    n1, _ = measure_word(t.word)
    if any(isinstance(g, Block) for g in t.word):
        assert n1 > 0
    elif not t.word:
        assert measure_word(t.word) == Measure(0, 0)


def test_nf_to_term_worked_example():
    f = JonesNF(11, 6, ((3, 1), (4, 4), (7, 7), (9, 8), (10, 9)))
    t = nf_to_term(f)
    assert t.word == (
        CIRCLE, CIRCLE, CIRCLE, CIRCLE, CIRCLE, CIRCLE,
        Block(3, 1), Block(4, 4), Block(7, 7), Block(9, 8), Block(10, 9),
    )


def test_nf_to_term_unit_and_pure_circles():
    assert nf_to_term(JonesNF(5)).word == ()
    assert nf_to_term(JonesNF(3, 2)).word == (CIRCLE, CIRCLE)


@pytest.mark.parametrize("blocks", [
    ((2, 1), (2, 2)),   # upper indices not strictly increasing
    ((1, 1), (3, 1)),   # lower indices not strictly increasing
    ((3, 1), (2, 2)),   # decreasing uppers
])
def test_jones_nf_rejects_non_increasing_blocks(blocks):
    with pytest.raises(DomainError):
        JonesNF(5, 0, blocks)


def test_jones_nf_rejects_negative_circles():
    with pytest.raises(DomainError):
        JonesNF(3, -1)


@given(normal_forms_st())
def test_expanded_normal_forms_interleave_neighbouring_indices(f):
    # between two occurrences of the diapsis index i there is an i+1 and an i-1
    word = expand(nf_to_term(f)).word
    indices = [g.upper for g in word if isinstance(g, Block)]
    for i in set(indices):
        positions = [p for p, v in enumerate(indices) if v == i]
        for lo, hi in zip(positions, positions[1:]):
            between = set(indices[lo + 1:hi])
            assert i + 1 in between and i - 1 in between
