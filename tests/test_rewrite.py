import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings

from kauffman import (
    CIRCLE,
    Block,
    ConsistencyError,
    JonesNF,
    Term,
    delta,
    format_step,
    measure_word,
    normal_form,
    nf_to_term,
    normalize,
    parse,
    rewrite,
    rewrite_steps,
)
from kauffman.rewrite import STRATEGIES

from helpers import apply_rule, find_redex, is_jones_shape, naive_leftmost_steps, replay, terms_st


def all_blocks(n):
    return [Block(b, a) for b in range(1, n) for a in range(1, b + 1)]


def test_find_redex_hcII():
    t = Term(4, (Block(3, 1), Block(1, 1)))
    assert find_redex(t) == (0, "hcII")


def test_find_redex_none_on_ascending_pair():
    assert find_redex(Term(4, (Block(1, 1), Block(3, 3)))) is None


def test_find_redex_hI():
    assert find_redex(Term(4, (Block(3, 3), Block(1, 1)))) == (0, "hI")


def test_find_redex_hcI():
    assert find_redex(Term(3, (Block(2, 2), CIRCLE))) == (0, "hcI")
    assert find_redex(Term(3, (CIRCLE, Block(2, 2)))) is None


def test_find_redex_returns_leftmost():
    t = Term(3, (Block(1, 1), Block(2, 2), CIRCLE))
    assert find_redex(t) == (1, "hcI")


def test_apply_hcII_diapsis_squares_to_circle():
    t = apply_rule(Term(2, (Block(1, 1), Block(1, 1))), 0, "hcII")
    assert t.word == (CIRCLE, Block(1, 1))


def test_apply_hII_twice_collapses_zigzag():
    t = Term(3, (Block(2, 2), Block(1, 1), Block(2, 2)))
    t = apply_rule(t, 0, "hII")
    assert t.word == (Block(2, 1), Block(2, 2))
    t = apply_rule(t, 0, "hII")
    assert t.word == (Block(2, 2),)


def test_apply_hIII2_example():
    t = Term(5, (Block(2, 2), Block(4, 2)))
    assert find_redex(t) == (0, "hIII.2")
    out = apply_rule(t, 0, "hIII.2")
    assert out.word == (Block(2, 2), Block(4, 4))
    assert delta(out) == delta(t)


def test_apply_rule_rejects_mismatch():
    t = Term(3, (Block(1, 1), Block(2, 2)))
    with pytest.raises(ConsistencyError):
        apply_rule(t, 0, "hII")
    with pytest.raises(ConsistencyError):
        apply_rule(t, 5, "hI")


def test_classification_complete_and_sound_for_all_block_pairs():
    """Exhaust all block pairs at n = 5 against the diagram oracle.

    A pair is a redex exactly when the left block dominates the right in
    either coordinate, and firing the classified rule must preserve the
    interpreting diagram exactly.
    """
    n = 5
    for x, y in product(all_blocks(n), repeat=2):
        t = Term(n, (x, y))
        redex = find_redex(t)
        dominates = x.upper >= y.upper or x.lower >= y.lower
        if redex is None:
            assert not dominates
            assert is_jones_shape(t)
        else:
            assert dominates
            position, rule = redex
            out = apply_rule(t, position, rule)
            assert delta(out) == delta(t)
            # rule discipline on the local measure
            m_before, m_after = measure_word(t.word), measure_word(out.word)
            if rule in ("hI", "hcI"):
                assert m_after.n1 == m_before.n1 and m_after.n2 < m_before.n2
            else:
                assert m_after.n1 < m_before.n1


def test_circle_rules_preserve_delta():
    for x in all_blocks(4):
        t = Term(4, (x, CIRCLE))
        out = apply_rule(t, 0, "hcI")
        assert out.word == (CIRCLE, x)
        assert delta(out) == delta(t)


def test_normalize_diapsis_square():
    assert normalize(Term(2, (Block(1, 1), Block(1, 1)))).output == \
        JonesNF(2, 1, ((1, 1),))


def test_normalize_unit():
    assert normalize(Term(4)).output == JonesNF(4)


def test_normalize_zigzag():
    t = Term(3, (Block(2, 2), Block(1, 1), Block(2, 2)))
    assert normalize(t).output == JonesNF(3, 0, ((2, 2),))


def test_normalize_commutes_distant_diapsides():
    t = Term(4, (Block(3, 3), Block(1, 1)))
    assert normalize(t).output == JonesNF(4, 0, ((1, 1), (3, 3)))


def test_normalized_words_are_fixed_points():
    f = JonesNF(11, 6, ((3, 1), (4, 4), (7, 7), (9, 8), (10, 9)))
    from kauffman import nf_to_term
    trace = normalize(nf_to_term(f))
    assert trace.steps == ()
    assert trace.output == f


def test_normalize_on_huge_n_keeps_counts_sparse():
    """Trace mode on 10^5 strands: dominance counts sized by the word, not n^2."""
    t = parse("h99998 h1 h50000 h49999 h50000 c h3", 100000)
    tracemalloc.start()
    try:
        trace = normalize(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps, final = naive_leftmost_steps(t)
    assert [(s.position, s.rule) for s in trace.steps] == steps
    assert nf_to_term(trace.output) == final
    assert peak < 2_000_000, peak


def test_normal_form_counts_circles_instead_of_moving_them(monkeypatch):
    """normal_form fires no hcI; trace mode still records every hcI step."""
    fired = Counter()
    rhs = rewrite._rhs

    def counting_rhs(x, y, rule):
        fired[rule] += 1
        return rhs(x, y, rule)

    monkeypatch.setattr(rewrite, "_rhs", counting_rhs)
    t = parse("h2 c^3 h1 c h3 h2 c^2 h2 h2 c h1 h3 c^4", 4)
    nf = normal_form(t)
    assert fired["hcI"] == 0 and fired["hcII"] > 0
    assert nf.circles == 11 + fired["hcII"]
    fired.clear()
    trace = normalize(t)
    hcI_steps = sum(step.rule == "hcI" for step in trace.steps)
    assert hcI_steps > 0
    assert fired["hcI"] == hcI_steps
    assert trace.output == nf


@settings(max_examples=150)
@given(terms_st(max_n=40, max_len=30))
def test_trace_measures_strictly_decrease(t):
    """Recounted from the definition, the measure drops at every step of
    both scan orders, on wide blocks over many strands and with circles
    anywhere."""
    for strategy in STRATEGIES:
        measures = [measure_word(term.word) for term in replay(normalize(t, strategy))]
        for before, after in zip(measures, measures[1:]):
            assert after < before


@pytest.mark.parametrize("rule, word", [("hI", "h3 h1"), ("hII", "h2 h1 h2")])
def test_mutated_rule_is_refused(monkeypatch, rule, word):
    """A rule whose right-hand side keeps the pair as it is fails the
    per-step measure check at the first step instead of looping."""
    rhs = rewrite._rhs

    def mutated_rhs(x, y, tag):
        return [x, y] if tag == rule else rhs(x, y, tag)

    monkeypatch.setattr(rewrite, "_rhs", mutated_rhs)
    with pytest.raises(ConsistencyError, match=f"^measure did not decrease for {rule} at 0: "):
        normalize(parse(word, 4))


@settings(max_examples=150)
@given(terms_st(max_n=40, max_len=30))
def test_rewrite_steps_streams_the_trace_then_returns_the_normal_form(t):
    for strategy in STRATEGIES:
        trace = normalize(t, strategy)
        assert tuple(rewrite_steps(t, strategy)) == trace.steps
        stream = rewrite_steps(t, strategy)
        for _ in trace.steps:
            next(stream)
        with pytest.raises(StopIteration) as done:
            next(stream)
        assert done.value.value == trace.output


@settings(max_examples=100)
@given(terms_st(max_n=6, max_len=12))
def test_cursor_scan_matches_naive_leftmost(t):
    steps, final = naive_leftmost_steps(t)
    trace = normalize(t)
    assert [(s.position, s.rule) for s in trace.steps] == steps
    from kauffman import nf_to_term
    assert final == nf_to_term(trace.output)


@settings(max_examples=150)
@given(terms_st(max_n=7, max_len=14))
def test_strategies_reach_the_same_normal_form(t):
    assert normal_form(t, "leftmost") == normal_form(t, "rightmost")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        normal_form(Term(2), "innermost")


def test_redex_free_iff_jones_shape_exhaustive():
    """Scan all short words: no redex exactly when the shape is normal."""
    singulars = [Block(i, i) for i in range(1, 3)] + [CIRCLE]
    for length in range(5):
        for word in product(singulars, repeat=length):
            t = Term(3, word)
            assert (find_redex(t) is None) == is_jones_shape(t)
    wide = all_blocks(4) + [CIRCLE]
    for word in product(wide, repeat=2):
        t = Term(4, word)
        assert (find_redex(t) is None) == is_jones_shape(t)


def test_step_serialization_format():
    trace = normalize(Term(2, (Block(1, 1), Block(1, 1))))
    assert [format_step(s) for s in trace.steps] == ["hcII@0: h1 h1 => c h1"]
