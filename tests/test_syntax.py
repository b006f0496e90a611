import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kauffman import (
    CIRCLE,
    Block,
    Circle,
    DomainError,
    ParseError,
    Term,
    format_term,
    format_word,
    parse,
)
from kauffman import syntax
from kauffman.syntax import MAX_WORD_LENGTH, _scan

from helpers import format_word_reference, generators_st, terms_st

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


def test_a_repeated_invalid_block_text_raises_at_its_first_offset():
    for text, n in [("h1 h[1,3] h2 h[1,3]", 5), ("h1 h7 h7", 5), ("h2 h0 h0", 3)]:
        with pytest.raises(DomainError, match="^offset 3: "):
            parse(text, n)


def test_texts_of_one_block_parse_to_equal_blocks():
    assert parse("h01 h1 h[1,1] h[01, 001]", 3).word == (Block(1, 1),) * 4
    assert parse("h[2,1] h2 h[02,1]", 3).word == (Block(2, 1), Block(2, 2), Block(2, 1))


VALID_FACTORS = ("1", "c", "c^2", "c^0", "h1", "h01", "h[2,1]", "h[ 2 , 1 ]", "h[1,1]")
SEPARATORS = st.text(alphabet=" \t*", min_size=1, max_size=3)
# each fails to parse at its first character, or names a block outside K_3
MALFORMED = ("x", "h", "h[1", "h[2 1]", "h\uff11", "%", "h0", "h3", "h[1,2]", "h[9,1]")


@given(st.lists(st.tuples(st.sampled_from(VALID_FACTORS), SEPARATORS), max_size=8),
       st.data())
def test_an_error_is_reported_at_the_malformed_factor(factors, data):
    at = data.draw(st.integers(0, len(factors)))
    bad = data.draw(st.sampled_from(MALFORMED))
    pieces = [f + sep for f, sep in factors]
    lead = data.draw(st.sampled_from(["", " ", "*"]))
    before = lead + "".join(pieces[:at])
    text = before + bad + data.draw(SEPARATORS) + "".join(pieces[at:])
    with pytest.raises((ParseError, DomainError)) as info:
        parse(text, 3)
    if isinstance(info.value, ParseError):
        position = info.value.position
    else:
        position = int(re.match(r"offset (\d+): ", str(info.value)).group(1))
    assert position == len(before), text


# Runs of one generator: circle runs of every length, and repeated blocks and diapsides.
RUNS = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.tuples(generators_st(n) | st.builds(Circle), st.integers(1, 5)),
                       max_size=10))


@given(RUNS)
def test_format_word_matches_the_reference_loop(runs):
    word = tuple(g for g, k in runs for _ in range(k))
    assert format_word(word) == format_word_reference(word)
    assert format_word(word) == format_word_reference(word)  # again, from the kept block texts


def outcome(read, text, n):
    """The Term that `read` returns, or the type, message and position of what it raises."""
    try:
        return read(text, n)
    except (ParseError, DomainError) as e:
        return type(e), str(e), getattr(e, "position", None)


# Atoms of texts for parse against _scan: tokens the fast path builds, texts only the
# regex loop reads, and malformed or out-of-range factors of K_3.
FAST_ATOMS = ("c", "h1", "h2", "h[2,1]", "h[2,2]", "h01", "h[02,001]")
SCANNED_ATOMS = ("1", "c^0", "c^3", "c^007", "h[ 2 , 1 ]", "h[2 ,1]", "h[\u30002,1]", "h1*h2",
                 "h1h2", "*", "**")
BAD_ATOMS = ("x", "h", "h0", "h3", "h9", "h[1,2]", "h[9,1]", "h[1", "h[2 1]", "c^", "c2",
             "h" + "9" * 30, "h[" + "9" * 30 + ",1]", "c^" + "9" * 30, "h\uff11", "h\u0663",
             "1\u0663", "\u00e9", "\x00")
ATOMS = FAST_ATOMS + SCANNED_ATOMS + BAD_ATOMS
# ASCII, no-break, em, ideographic and line-separator spaces, an information separator
# (whitespace to str.split()), a star, and nothing at all
GAPS = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "*", " * ", "")


@given(st.lists(st.tuples(st.sampled_from(GAPS), st.sampled_from(ATOMS)), max_size=12),
       st.sampled_from(GAPS), st.sampled_from([2, 3, 11]), st.sampled_from([1, 2, 5, 1 << 16]),
       st.sampled_from([4, MAX_WORD_LENGTH]))
def test_parse_equals_the_regex_loop(pieces, tail, n, slice_size, max_length):
    """Same Term, or same exception type, message and position, at any slice size and bound."""
    text = "".join(gap + atom for gap, atom in pieces) + tail
    with mock.patch.object(syntax, "_SLICE", slice_size), \
            mock.patch.object(syntax, "MAX_WORD_LENGTH", max_length):
        assert outcome(parse, text, n) == outcome(_scan, text, n), text


def test_parse_equals_the_regex_loop_with_a_bad_atom_at_each_slice_cut():
    """Texts over 200K characters, a scanned or malformed atom across, at and after a cut."""
    n = 13
    filler = "h[12,1] h[11,3] "  # fast tokens only
    base = filler * (210_000 // len(filler))
    cuts, pos = [], 0
    while len(base) - pos > syntax._SLICE:
        pos = syntax._SPACE.search(base, pos + syntax._SLICE).start()
        cuts.append(pos)
    assert len(cuts) == 3
    for cut in (cuts[0], cuts[-1]):  # the word empty, then long, where the regex loop takes over
        for atom in ("x", "h0", "c^2", "h[ 12 , 1 ]", "\u3000", "*"):
            for shift in (-len(atom) // 2, 0, 1):
                at = cut + shift
                text = base[:at] + atom + base[at:]
                assert outcome(parse, text, n) == outcome(_scan, text, n), (cut, atom, shift)


@pytest.mark.parametrize("text", ["h1 h2 h[2,1] c^2 h1 h2 h[2,1] h1", "h[2,1] h1 * h2 h1 h[2,1]",
                                  "c h2 h1 1 h2 h[2,1] h1", "h1 h[2,2] h[ 2 , 1 ] h[2,2] h1"])
def test_parse_builds_each_factor_text_once_when_the_regex_loop_takes_over(text):
    """The regex loop reuses the blocks that the fast path built before it refused a token."""
    counts = []
    for read in (parse, _scan):
        # one token per slice, so every token before the refused one is built first
        with mock.patch.object(syntax, "_SLICE", 1), \
                mock.patch.object(syntax, "make_block", wraps=syntax.make_block) as build:
            counts.append((read(text, 3), build.call_count))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("text", ["h1 c h[2,1] h1", "h1 c^1 * h[2,1] h1"])
def test_parse_hands_over_its_word_without_term_walking_it_again(text):
    """`_block` has checked each distinct block, on the fast path and in the regex loop."""
    expected = Term(3, (Block(1, 1), CIRCLE, Block(2, 1), Block(1, 1)))
    with mock.patch.object(Term, "__post_init__", side_effect=AssertionError(text)):
        assert parse(text, 3) == expected


@pytest.mark.parametrize("text", ["c^2 h1 h2", "h1 h2 * h[2,1]", "h1*h2", "h1 c^0 h2 1"])
def test_a_star_or_a_circle_power_sends_the_text_to_the_regex_loop_unsplit(text):
    """Canonical texts ("c^k ...") and starred ones cost the fast path no token check."""
    with mock.patch.object(syntax, "_fast", side_effect=AssertionError(text)):
        assert parse(text, 3) == _scan(text, 3)


def test_str_split_separates_on_exactly_the_whitespace_the_regex_loop_skips():
    """The fast path's premise, on every code point: split() and _scan agree on what a gap is."""
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        splits = len(("a" + ch + "a").split()) == 2
        skipped = syntax._SEPARATORS.fullmatch(ch) is not None and ch != "*"
        assert splits == skipped == (syntax._SPACE.fullmatch(ch) is not None), hex(code)


# `_scan`, one regex match per factor, peaks at 15.7-15.8 MiB traced on 10**6 such
# factors; the sliced split may take 1.2 times that, one split of the whole text takes 4.7
PARSE_PEAK_BOUND = 1.2 * 15.8 * 2**20


def test_parse_of_a_maximal_word_is_bounded_in_memory_and_refuses_one_factor_more():
    rng = random.Random(1)
    factors = [f"h{rng.randint(1, 31)}" for _ in range(1000)]
    for k in range(0, 1000, 5):  # every fifth factor a wide block
        b = rng.randint(2, 31)
        factors[k] = f"h[{b},{rng.randint(1, b - 1)}]"
    text = " ".join(factors * (MAX_WORD_LENGTH // 1000))
    del factors
    tracemalloc.start()
    try:
        assert len(parse(text, 32).word) == MAX_WORD_LENGTH
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PARSE_PEAK_BOUND, peak
    text += " h1"
    expected = outcome(_scan, text, 32)
    assert expected == (ParseError, f"offset {len(text) - 2}: word longer than "
                        f"{MAX_WORD_LENGTH} factors", len(text) - 2)
    assert outcome(parse, text, 32) == expected
