import sys
import tracemalloc

import pytest
from hypothesis import given

from kauffman import (
    CIRCLE,
    Block,
    DomainError,
    ParseError,
    Term,
    format_term,
    parse,
)
from kauffman.syntax import MAX_WORD_LENGTH

from helpers import terms_st

GOLDEN = [
    ("1", 2),
    ("c", 2),
    ("c^1", 2),
    ("c^4 h1", 2),
    ("c^0 h1", 2),
    ("h1", 2),
    ("h10 h2", 11),
    ("h[3,1]", 4),
    ("h[2,2]", 3),
    ("h1*h2*c", 3),
    ("  h1   c  ", 2),
    ("1 1 h1 1", 2),
    ("c^2h1", 2),
    ("h[ 10 , 9 ] h[3,1]", 11),
    ("c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]", 11),
]


def test_parse_worked_example():
    t = parse("c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]", 11)
    assert t.word == (CIRCLE,) * 6 + (
        Block(3, 1), Block(4, 4), Block(7, 7), Block(9, 8), Block(10, 9),
    )


def test_parse_unit():
    assert parse("1", 5) == Term(5)


def test_parse_diapsis_word():
    assert parse("h2 h1 h2", 3).word == (Block(2, 2), Block(1, 1), Block(2, 2))


def test_format_contracts_singular_blocks():
    assert format_term(parse("h[3,3]", 4)) == "h3"


def test_format_unit():
    assert format_term(Term(4)) == "1"


def test_format_contracts_circle_runs():
    assert format_term(parse("c c h1", 2)) == "c^2 h1"
    assert format_term(parse("h1 c c c h1", 2)) == "h1 c^3 h1"


@pytest.mark.parametrize("text, n", [
    ("x", 3),
    ("h", 3),
    ("h[1", 3),
    ("h[1 2]", 3),
    ("c^", 3),
    ("h1 )", 3),
    ("h1,h2", 3),
])
def test_parse_errors_carry_position(text, n):
    with pytest.raises(ParseError) as err:
        parse(text, n)
    assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize("text, n", [
    ("h0", 3),
    ("h3", 3),
    ("h[1,3]", 5),   # upper index comes first, so this inverts the bounds
    ("h[7,1]", 5),
])
def test_parse_rejects_out_of_range_indices(text, n):
    with pytest.raises(DomainError) as err:
        parse(text, n)
    assert "offset" in str(err.value)


def test_parse_requires_size_at_least_two():
    with pytest.raises(DomainError):
        parse("1", 1)


@given(terms_st(max_n=9, max_len=14))
def test_parse_inverts_format(t):
    assert parse(format_term(t), t.n) == t


@pytest.mark.parametrize("text, n", GOLDEN)
def test_format_idempotent_on_golden_corpus(text, n):
    once = format_term(parse(text, n))
    assert format_term(parse(once, n)) == once


def test_parse_refuses_an_oversized_circle_power_before_building_it():
    tracemalloc.start()
    try:
        for text, offset in [("c^1000000000", 2), ("h1 c^1000001", 5),
                             ("c^" + "9" * 5000, 2)]:
            with pytest.raises(ParseError) as info:
                parse(text, 3)
            assert info.value.position == offset, text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_parse_accepts_a_word_of_exactly_the_maximal_length():
    text = f"h1 c^{MAX_WORD_LENGTH - 2} h2"
    assert len(parse(text, 3).word) == MAX_WORD_LENGTH
    with pytest.raises(ParseError) as info:
        parse(text + " h1", 3)
    assert info.value.position == len(text) + 1


@pytest.mark.parametrize("int_digit_limit", [None, 0])
def test_parse_refuses_long_numbers_whatever_the_interpreter_converts(int_digit_limit):
    """Long indices are out of range and long powers too long, by digit count alone."""
    if int_digit_limit is not None:
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int digit limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(int_digit_limit)
    try:
        for index in ("h" + "9" * 5000, "h[" + "9" * 5000 + ",1]", "h[2," + "9" * 5000 + "]"):
            with pytest.raises(DomainError, match="^offset 3: block index exceeds n-1 = 2$"):
                parse("h1 " + index, 3)
        with pytest.raises(ParseError) as info:
            parse("h1 c^" + "9" * 5000, 3)
        assert info.value.position == 5
        assert parse("h000002 c^0003", 3) == parse("h2 c c c", 3)
    finally:
        if int_digit_limit is not None:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, offset", [("h１", 0), ("h٣", 0), ("h1 c^２", 4),
                                          ("h[２,1]", 0), ("1٣", 1)])
def test_parse_reads_ascii_digits_only(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text, 5)
    assert info.value.position == offset
