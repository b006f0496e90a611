import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings

from kauffman import (
    CIRCLE,
    Block,
    ConsistencyError,
    Diagram,
    DomainError,
    JonesNF,
    Term,
    compose,
    decide_equal,
    decide_nf,
    delta,
    diagram_to_nf,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    nf_by_diagram,
    nf_to_term,
    normal_form,
    normalize,
    parse,
    peel,
    slope_points,
    span,
)
from kauffman import semantics
from kauffman.diagrams import is_planar_pairing
from kauffman.semantics import DIAGRAM_ROUTE_WIDTH, _first_crossed, _stack, delta_block

from helpers import (compose_fold, diapsis_diagram, expand, identity, normal_forms_st,
                     nested, peel_states, terms_st)

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


def test_stack_matches_composing_with_the_diapsis():
    for n in range(2, 7):
        for d in enumerate_pairings(n):
            for i in range(1, n):
                mate = dict(d.involution)
                closed = _stack(mate, i)
                pairs = tuple((c, m) for c, m in mate.items() if c < m)
                assert Diagram(n, pairs, closed) == compose(d, delta_block(n, i, i)), (d, i)


def test_delta_block_range_check():
    with pytest.raises(DomainError):
        delta_block(4, 4, 1)


def test_decide_equal_examples():
    assert decide_equal(parse("h1 h1", 2), parse("c h1", 2)) is True
    assert decide_equal(parse("h1", 3), parse("h2", 3)) is False
    assert decide_equal(parse("h2 h1 h2", 3), parse("h2", 3)) is True


def test_decide_equal_cross_check():
    assert decide_equal(parse("h1 h1", 2), parse("c h1", 2), cross_check=True) is True
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
        forms = list(enumerate_normal_forms(n, 2))
        diagrams = {delta(nf_to_term(f)) for f in forms}
        assert len(diagrams) == len(forms)


@settings(max_examples=120)
@given(terms_st(max_n=6, max_len=10))
def test_every_rewrite_step_preserves_delta(t):
    for step in normalize(t).steps:
        assert delta(Term(t.n, step.before)) == delta(Term(t.n, step.after))


def test_nf_by_diagram_matches_rewriting_exhaustive():
    terms = list(enumerate_terms(3, 6))
    assert len(terms) == 1093
    for t in terms:
        assert nf_by_diagram(t) == normal_form(t) == normalize(t).output, t


@settings(max_examples=300)
@given(terms_st(max_n=12, max_len=30))
def test_nf_by_diagram_matches_rewriting(t):
    assert nf_by_diagram(t) == normal_form(t) == normalize(t).output
    assert decide_nf(t) == normal_form(t)


def _descending_runs(n: int) -> Term:
    """(h_{n-1} h_{n-3} ... h_1)^4, whose hI swaps grow about quadratically."""
    run = tuple(Block(i, i) for i in range(n - 1, 0, -2))
    return Term(n, run * 4)


def _wide_blocks(n: int) -> Term:
    """h[n-1,1]^50, whose expansion is 50 (n - 1) diapsides long."""
    return Term(n, (Block(n - 1, 1),) * 50)


@pytest.mark.parametrize("family", [_descending_runs, _wide_blocks])
def test_nf_by_diagram_matches_rewriting_on_adversarial_families(family):
    t = family(64)
    assert nf_by_diagram(t) == normal_form(t) == normalize(t).output
    assert nf_by_diagram(t) == diagram_to_nf(delta(t)) == decide_nf(t)


def _refuse(*args):
    raise AssertionError("the other route was taken")


def test_decide_nf_reads_the_diagram_up_to_the_route_width(monkeypatch):
    k = DIAGRAM_ROUTE_WIDTH
    at_bound = Term(2 * k + 1, (Block(2 * k - 1, 1), CIRCLE, Block(1, 1)) * 3)  # 6k diapsides
    expected = normal_form(at_bound)
    monkeypatch.setattr("kauffman.semantics.normal_form", _refuse)
    assert decide_nf(at_bound) == expected


def test_decide_nf_rewrites_wider_words(monkeypatch):
    k = DIAGRAM_ROUTE_WIDTH
    too_wide = Term(2 * k + 1, (Block(2 * k, 1), CIRCLE, Block(1, 1)) * 3)  # 6k + 3
    expected = nf_by_diagram(too_wide)
    monkeypatch.setattr("kauffman.semantics.nf_by_diagram", _refuse)
    assert decide_nf(too_wide) == expected


def test_nf_by_diagram_builds_no_diagram(monkeypatch):
    def refuse(d) -> None:
        raise AssertionError("nf_by_diagram constructed a Diagram")

    t = parse(WORKED_EXAMPLE, 11)
    expected = normal_form(t)
    monkeypatch.setattr(Diagram, "__post_init__", refuse)
    assert nf_by_diagram(t) == expected


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
            assert normal_form(expand(peel(d))) == diagram_to_nf(d)


def test_peel_lands_on_the_normal_form_directly():
    # with the greatest-cup choice the peeled diapsides are the expanded normal
    # form, and peel groups them into its blocks
    checked = 0
    for n in range(1, 10):
        for d in enumerate_pairings(n):
            if n == 1:  # K_1 is not a monoid the package builds
                with pytest.raises(DomainError):
                    peel(d)
            else:
                assert peel(d) == nf_to_term(diagram_to_nf(d))
            checked += 1
    assert checked == 6917


def test_peel_steps_shrink_span_by_two():
    for n in range(2, 5):
        for d in enumerate_pairings(n):
            previous = span(d)
            for j, rest in peel_states(d):
                assert 1 <= j <= n - 1
                assert span(rest) == previous - 2
                previous = span(rest)
            assert previous == 0


def test_peel_cut_is_the_only_planar_split():
    # splitting any other thread around the cup, in either orientation,
    # either crosses a thread or does not shrink the span by two
    steps = 0
    for n in range(2, 8):  # the one pairing at n = 1 has span 0
        for d in enumerate_pairings(n):
            current = d
            for j, nxt in peel_states(d):
                rest = [p for p in current.pairs if p != (j, j + 1)]
                splits = []
                for p in rest:
                    others = [q for q in rest if q != p]
                    for end, other_end in (p, p[::-1]):
                        pairs = others + [(end, j), (j + 1, other_end)]
                        if (is_planar_pairing(pairs, n)
                                and span(Diagram(n, pairs)) == span(current) - 2):
                            splits.append(Diagram(n, pairs))
                assert splits == [nxt], (current, j)
                current = nxt
                steps += 1
    assert steps == 3108


def test_peel_recomposes():
    for n in range(2, 5):
        for d in enumerate_pairings(n):
            assert delta(peel(d)) == d


def test_peel_refuses_a_word_over_the_bound_before_any_step():
    d = nested(2002)
    assert span(d) // 2 == 1_002_001
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="peeled word longer than"):
            peel(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_peel_bound_admits_exactly_the_bound(monkeypatch):
    d = nested(6)  # span/2 = 9
    monkeypatch.setattr("kauffman.semantics.MAX_WORD_LENGTH", 9)
    assert delta(peel(d)) == d
    monkeypatch.setattr("kauffman.semantics.MAX_WORD_LENGTH", 8)
    with pytest.raises(DomainError, match="peeled word longer than 8"):
        peel(d)
    assert peel(identity(8)) == Term(8)  # the size bound is delta's
    with pytest.raises(DomainError, match="diagram size 9 exceeds 8"):
        peel(identity(9))


def _broken_stack(mate, i):
    mate[i], mate[i + 1] = i + 1, i  # the new cup, without joining the threads it caps
    return 0


def _rewires_the_cup_below(mate, n, j):
    ends = _first_crossed(mate, n, j)
    if mate.get(j - 2) == j - 1:  # the cup just below the top of the stack
        mate[j - 2] = 2 - j
    return ends


@pytest.mark.parametrize("name, fault, message", [
    ("_first_crossed", lambda mate, n, j: (j - 1, mate[j - 1]), "span by != 2"),
    ("_stack", _broken_stack, "does not recompose"),
    ("span", lambda d: span(d) + 2, "no span-1 cup"),
    ("delta", lambda t: delta(Term(t.n)), "does not evaluate"),
    ("_first_crossed", _rewires_the_cup_below, r"stacked cup \(2, 3\) was rewired"),
    ("JonesNF", lambda n, circles, blocks: JonesNF(n, circles, blocks[::-1]),
     "peeled word is not a normal form: lower indices must increase strictly"),
], ids=["scan", "stack", "span", "delta", "stale-cup", "nf-order"])
def test_peel_checks_raise_consistency_error(monkeypatch, name, fault, message):
    # a fault in any part of peel is caught by one of its checks
    d = nested(6)
    monkeypatch.setattr(semantics, name, fault)
    with pytest.raises(ConsistencyError, match=message):
        peel(d)


def test_delta_composes_over_concatenation():
    pool = [Term(4, w) for w in product(
        [Block(1, 1), Block(2, 2), Block(3, 1), CIRCLE], repeat=2)]
    for t, u in product(pool[:6], pool[:6]):
        glued = Term(4, t.word + u.word)
        assert delta(glued) == compose(delta(t), delta(u))
