import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import (
    CIRCLE,
    Block,
    Circle,
    ConsistencyError,
    JonesNF,
    NormalizationTrace,
    RewriteStep,
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

import helpers
from helpers import (apply_rule, circle_runs_st, find_redex, is_jones_shape, naive_leftmost_steps,
                     naive_rightmost_steps, replay, terms_st)


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
    assert list(trace.steps) == steps
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


def test_normal_form_classifies_linearly_many_pairs_on_descending_runs(monkeypatch):
    """(h_{n-1} h_{n-3} ... h_1)^4 at n = 4096, L = 8192 factors, takes about n^2 / 2
    hI swaps step by step; normal_form moves each hI run at once, skips the pairs
    the move leaves clean and classifies at most 4 L pairs."""
    n = 4096
    t = Term(n, tuple(Block(i, i) for i in range(n - 1, 0, -2)) * 4)
    calls, classify = 0, rewrite._classify

    def counting(x, y):
        nonlocal calls
        calls += 1
        return classify(x, y)

    monkeypatch.setattr(rewrite, "_classify", counting)
    nf = normal_form(t)
    assert calls <= 4 * len(t.word), calls
    assert nf == JonesNF(n, 3 * n // 2, tuple((i, i) for i in range(1, n, 2)))


@settings(max_examples=150)
@given(terms_st(max_n=40, max_len=30))
def test_trace_measures_strictly_decrease(t):
    """Recounted from the definition, the measure drops at every step of
    the kernel's leftmost reduction and of the rightmost rescan, on wide
    blocks over many strands and with circles anywhere."""
    rightmost = tuple(RewriteStep(*step) for step in naive_rightmost_steps(t)[0])
    for trace in (normalize(t), NormalizationTrace(t, rightmost, normal_form(t))):
        measures = [measure_word(term.word) for term in replay(trace)]
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


RULE_TAGS = ("hcI", "hI", "hII", "hcII", "hIII.1", "hIII.2", "hIII.3")


def candidate_right_hand_sides(rhs, x, y):
    """Every rule's right-hand side of the pair, whether or not the rule is the
    pair's, then mutants: the pair kept, swapped, shrunk, grown or emptied,
    some as lists and some with a circle that is not the CIRCLE object."""
    for tag in RULE_TAGS:
        try:
            yield rhs(x, y, tag)
        except TypeError:  # a block rule unpacks y's indices, and y is a circle
            pass
    yield from ([x, y], [y, x], (x, y), (y, x), (x,), (y,), (), [CIRCLE, x], (Circle(), x),
                (x, CIRCLE), (CIRCLE, y), (y, x, CIRCLE), (CIRCLE, CIRCLE), (Block(1, 1), x))


def test_step_check_agrees_with_measure_word_on_every_pair_and_mutant(monkeypatch):
    """For each redex pair of K_n, n <= 6, and each candidate right-hand side,
    `rewrite_steps` accepts the first step exactly when the check recounted
    by `measure_word` does, and refuses it with that check's message."""
    rule_rhs, candidate = rewrite._rhs, None
    monkeypatch.setattr(rewrite, "_rhs", lambda x, y, tag: candidate)
    checked = 0
    for n in range(2, 7):
        for x, y in product(all_blocks(n) + [CIRCLE], repeat=2):
            tag = rewrite._classify(x, y)
            if tag is None:
                continue
            for candidate in candidate_right_hand_sides(rule_rhs, x, y):
                rhs = tuple(candidate)
                before, after = measure_word((x, y)), measure_word(rhs)
                if after.n1 < before.n1 or (rhs == (y, x) and after.n2 < before.n2):
                    assert next(rewrite_steps(Term(n, (x, y)))) == (tag, 0, (x, y), rhs)
                else:
                    with pytest.raises(ConsistencyError) as err:
                        next(rewrite_steps(Term(n, (x, y))))
                    assert str(err.value) == (f"measure did not decrease for {tag} at 0: "
                                              f"pair {tuple(before)} -> {tuple(after)}")
                checked += 1
    assert checked == 6734  # every candidate of every redex pair, none dropped


@pytest.mark.parametrize("word", [(Block(1, 1), CIRCLE), (Block(2, 1), Block(1, 1))])
def test_a_word_the_kernel_leaves_unreduced_is_an_internal_error(monkeypatch, word):
    """A circle right of a block, or a redex, left in the trace's final word."""
    def no_rewriting(word, trace=False):
        yield from ()
        return 0

    monkeypatch.setattr(rewrite, "_reduce", no_rewriting)
    with pytest.raises(ConsistencyError, match="reduced word is not a normal form"):
        list(rewrite_steps(Term(3, word)))


@settings(max_examples=150)
@given(terms_st(max_n=40, max_len=30))
def test_rewrite_steps_streams_the_trace_then_returns_the_normal_form(t):
    trace = normalize(t)
    assert tuple(rewrite_steps(t)) == trace.steps
    stream = rewrite_steps(t)
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
    assert list(trace.steps) == steps
    assert final == nf_to_term(trace.output)


def assert_streams_the_rescan(t):
    """`rewrite_steps` yields the steps of the leftmost rescan, rule, position,
    before and after, one at a time, then returns its final word's normal
    form.  Returns those steps."""
    steps, final = naive_leftmost_steps(t)
    stream = rewrite_steps(t)
    for expected in steps:
        assert next(stream) == expected
    with pytest.raises(StopIteration) as done:
        next(stream)
    assert nf_to_term(done.value.value) == final
    return steps


@settings(max_examples=200)
@given(st.one_of(circle_runs_st(max_n=40), terms_st(max_n=40, max_len=30)))
def test_both_scan_orders_match_a_full_rescan_step_by_step(t):
    """Block runs with circles after them and between them: the kernel moves
    each circle past its blocks in one run and still fires exactly the redex
    that rescanning the whole word from the left finds; rescanning from the
    right, step by step, reaches the same normal form."""
    assert_streams_the_rescan(t)
    _, final = naive_rightmost_steps(t)
    assert final == nf_to_term(normal_form(t))


def empties_an_hcI(rhs, emptied_call):
    """The rule table, but the `emptied_call`-th hcI step gets the right-hand side ()."""
    calls = 0

    def mutated_rhs(x, y, tag):
        nonlocal calls
        if tag == "hcI":
            calls += 1
            if calls == emptied_call:
                return ()
        return rhs(x, y, tag)

    return mutated_rhs


@pytest.mark.parametrize("emptied_call", [1, 3, 6, 8])
def test_an_emptied_hcI_step_inside_a_run_fires_as_in_the_rescan(monkeypatch, emptied_call):
    """() drops n1, so the check lets it through: the step ends the circle's
    run where it stands, and the stream and the word are those of a full
    rescan under the same rule."""
    t = parse("h1 h2 h3 h4 h5 h6 c^2 h2 h4 c", 7)
    monkeypatch.setattr(helpers, "_rhs", empties_an_hcI(rewrite._rhs, emptied_call))
    monkeypatch.setattr(rewrite, "_rhs", empties_an_hcI(rewrite._rhs, emptied_call))
    steps = assert_streams_the_rescan(t)
    assert [rule for rule, _, _, after in steps if after == ()] == ["hcI"]


@settings(max_examples=150)
@given(terms_st(max_n=7, max_len=14))
def test_strategies_reach_the_same_normal_form(t):
    """The kernel fires the leftmost redex; the rescan that fires the rightmost
    one ends at the same normal form, in both of the kernel's modes."""
    _, final = naive_rightmost_steps(t)
    assert nf_to_term(normal_form(t)) == final
    assert nf_to_term(normalize(t).output) == final


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
