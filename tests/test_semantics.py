import random
from itertools import product

import pytest
from hypothesis import given, settings

from kauffman import (
    CIRCLE,
    Block,
    Diagram,
    DomainError,
    JonesNF,
    Term,
    compose,
    decide_equal,
    delta,
    delta_block,
    diagram_to_nf,
    diapsis_diagram,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    expand,
    identity,
    nf_to_term,
    normal_form,
    normalize,
    parse,
    peel,
    peel_steps,
    slope_points,
    span,
)

from helpers import compose_fold, normal_forms_st, terms_st

WORKED_EXAMPLE = "c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]"


def test_delta_diapsis_square():
    d = delta(Term(2, (Block(1, 1), Block(1, 1))))
    assert d == Diagram(2, ((1, 2), (-2, -1)), 1)


def test_delta_unit():
    assert delta(Term(7)) == identity(7)


def test_delta_orientation_first_factor_is_bottom():
    # h1 h2 stacks H^2 on top of H^1
    t = Term(3, (Block(1, 1), Block(2, 2)))
    assert delta(t) == compose(diapsis_diagram(3, 1), diapsis_diagram(3, 2))
    assert delta(t) == Diagram(3, ((-3, 1), (-2, -1), (2, 3)))


def test_delta_worked_example_slopes():
    d = delta(parse(WORKED_EXAMPLE, 11))
    assert d.circles == 6
    assert slope_points(d) == ((1, 4, 7, 8, 9), (3, 4, 7, 9, 10))


def test_delta_block_singular_is_diapsis():
    assert delta_block(2, 1, 1) == diapsis_diagram(2, 1)
    assert delta_block(6, 4, 4) == diapsis_diagram(6, 4)


def test_delta_block_slopes():
    for n in range(2, 7):
        for b in range(1, n):
            for a in range(1, b + 1):
                assert slope_points(delta_block(n, b, a)) == ((a,), (b,))


def test_delta_block_matches_diapsis_expansion():
    for n in range(2, 8):
        for b in range(1, n):
            for a in range(1, b + 1):
                assert delta_block(n, b, a) == compose_fold(Term(n, (Block(b, a),)))


@settings(max_examples=300)
@given(terms_st(max_n=9, max_len=30))
def test_delta_matches_compose_fold(t):
    assert delta(t) == compose_fold(t)


def test_delta_constructs_one_diagram(monkeypatch):
    rng = random.Random(1600)
    word = []
    for _ in range(1600):
        b = rng.randint(1, 31)
        word.append(rng.choice([CIRCLE, Block(b, b), Block(b, rng.randint(1, b))]))
    t = Term(32, tuple(word))
    expected = compose_fold(t)
    built = []
    post_init = Diagram.__post_init__

    def counting_post_init(d) -> None:
        built.append(d)
        post_init(d)

    monkeypatch.setattr(Diagram, "__post_init__", counting_post_init)
    d = delta(t)
    assert len(built) == 1 and built[0] is d
    assert d == expected


def test_delta_block_range_check():
    with pytest.raises(DomainError):
        delta_block(4, 4, 1)


def test_decide_equal_examples():
    assert decide_equal(parse("h1 h1", 2), parse("c h1", 2)).equal
    assert not decide_equal(parse("h1", 3), parse("h2", 3)).equal
    assert decide_equal(parse("h2 h1 h2", 3), parse("h2", 3)).equal


def test_decide_equal_witness_and_cross_check():
    verdict = decide_equal(parse("h1 h1", 2), parse("c h1", 2), cross_check=True)
    assert verdict.equal
    assert verdict.witness == (JonesNF(2, 1, ((1, 1),)),) * 2
    with pytest.raises(DomainError):
        decide_equal(Term(2), Term(3))


def test_diagram_to_nf_worked_example():
    f = JonesNF(11, 6, ((3, 1), (4, 4), (7, 7), (9, 8), (10, 9)))
    assert diagram_to_nf(delta(nf_to_term(f))) == f


def test_diagram_to_nf_identity_and_diapsis():
    assert diagram_to_nf(identity(4)) == JonesNF(4)
    for n, i in [(2, 1), (5, 3)]:
        assert diagram_to_nf(diapsis_diagram(n, i)) == JonesNF(n, 0, ((i, i),))


@settings(max_examples=200)
@given(normal_forms_st())
def test_slope_points_recover_normal_form(f):
    d = delta(nf_to_term(f))
    top, bottom = slope_points(d)
    assert top == tuple(a for _, a in f.blocks)
    assert bottom == tuple(b for b, _ in f.blocks)
    assert d.circles == f.circles


def test_nf_diagram_round_trip_exhaustive():
    for n in range(2, 5):
        for f in enumerate_normal_forms(n, 2):
            d = delta(nf_to_term(f))
            assert diagram_to_nf(d) == f
            assert delta(nf_to_term(diagram_to_nf(d))) == d


def test_distinct_normal_forms_have_distinct_diagrams():
    for n in range(2, 5):
        forms = enumerate_normal_forms(n, 2)
        diagrams = {delta(nf_to_term(f)) for f in forms}
        assert len(diagrams) == len(forms)


@settings(max_examples=120)
@given(terms_st(max_n=6, max_len=10))
def test_every_rewrite_step_preserves_delta(t):
    for step in normalize(t).steps:
        assert delta(Term(t.n, step.before)) == delta(Term(t.n, step.after))


def test_word_problem_exhaustive_small():
    terms = list(enumerate_terms(3, 4))
    by_nf, by_diagram = {}, {}
    for idx, t in enumerate(terms):
        by_nf.setdefault(normal_form(t), set()).add(idx)
        by_diagram.setdefault(delta(t), set()).add(idx)
    assert {frozenset(s) for s in by_nf.values()} == \
        {frozenset(s) for s in by_diagram.values()}


def test_peel_identity_and_diapsis():
    assert peel(identity(5)) == Term(5)
    for n, i in [(2, 1), (4, 2), (6, 5)]:
        assert peel(diapsis_diagram(n, i)) == Term(n, (Block(i, i),))


def test_peel_strips_circles_first():
    d = Diagram(3, diapsis_diagram(3, 1).pairs, 2)
    word = peel(d).word
    assert word[:2] == (CIRCLE, CIRCLE)
    assert word[2:] == (Block(1, 1),)


def test_peel_agrees_with_slope_extraction():
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            assert normal_form(peel(d)) == diagram_to_nf(d)


def test_peel_lands_on_the_normal_form_directly():
    # with the greatest-cup choice the peeled word is the expanded normal form
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            assert peel(d) == expand(nf_to_term(diagram_to_nf(d)))


def test_peel_steps_shrink_span_by_two():
    for n in range(2, 5):
        for d in enumerate_pairings(n):
            previous = span(d)
            for j, rest in peel_steps(d):
                assert 1 <= j <= n - 1
                assert span(rest) == previous - 2
                previous = span(rest)
            assert previous == 0


def test_peel_recomposes():
    for n in range(2, 5):
        for d in enumerate_pairings(n):
            assert delta(peel(d)) == d


def test_delta_composes_over_concatenation():
    pool = [Term(4, w) for w in product(
        [Block(1, 1), Block(2, 2), Block(3, 1), CIRCLE], repeat=2)]
    for t, u in product(pool[:6], pool[:6]):
        glued = Term(4, t.word + u.word)
        assert delta(glued) == compose(delta(t), delta(u))
