import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    from_json_dict,
    nf_by_diagram,
    nf_to_term,
    normal_form,
    normalize,
    parse,
    peel,
    slope_points,
    span,
    to_json_dict,
)
from kauffman import semantics
from kauffman.diagrams import is_planar_pairing
from kauffman.draw import _split
from kauffman.semantics import DIAGRAM_ROUTE_WIDTH, _first_crossed, _rewire, _stack, delta_block
from kauffman.syntax import MAX_WORD_LENGTH

from helpers import (compose_fold, diapsis_diagram, expand, identity, normal_forms_st,
                     nested, peel_states, random_pairing, side_by_side, staircase, terms_st)

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
                mate = list(d.mates)
                closed = _stack(mate, i)
                pairs = tuple((c, mate[c]) for c in range(-n, n + 1) if c < mate[c])
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
    rewritten = []

    def rewrite(t):
        rewritten.append(t)
        return normal_form(t)

    monkeypatch.setattr("kauffman.semantics.normal_form", rewrite)
    assert decide_nf(too_wide) == expected
    assert rewritten == [too_wide]


@st.composite
def _wide_words(draw):
    """Words of circles and blocks h[b,a] of K_n, n <= 80, about n/3 wide on average."""
    n = draw(st.integers(2, 80))
    block = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
        lambda ba: Block(max(ba), min(ba)))
    return Term(n, tuple(draw(st.lists(st.one_of(st.just(CIRCLE), block), max_size=8))))


def _counting_stack(stacked):
    """`_stack`, appending each index it stacks to `stacked`."""
    def counting_stack(mate, i):
        stacked.append(i)
        return _stack(mate, i)
    return counting_stack


@settings(max_examples=300)
@given(_wide_words(), st.sampled_from([MAX_WORD_LENGTH, 40, 100]))
def test_decide_nf_rewrites_exactly_the_words_over_the_route_bound(t, max_length):
    """The route rule, on words over and under each bound: a word that is read
    off its diagram is stacked diapsis by diapsis, and a rewritten one not at all."""
    blocks = [g for g in t.word if isinstance(g, Block)]
    expanded = sum(g.upper - g.lower + 1 for g in blocks)
    stacked, rewritten = [], []

    def rewrite(term):
        rewritten.append(term)
        return normal_form(term)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "MAX_WORD_LENGTH", max_length)
        patch.setattr(semantics, "_stack", _counting_stack(stacked))
        patch.setattr(semantics, "normal_form", rewrite)
        nf = decide_nf(t)
    assert nf == normal_form(t)
    assert bool(rewritten) == (expanded > min(DIAGRAM_ROUTE_WIDTH * len(blocks), max_length))
    assert len(stacked) == (0 if rewritten else expanded)


@settings(max_examples=300)
@given(terms_st(max_n=12, max_len=30))
def test_flat_list_and_sparse_map_agree(t):
    """The same word at a size over its factor count and twice its expanded length is rewired
    on the sparse map."""
    expanded = sum(g.upper - g.lower + 1 for g in t.word if isinstance(g, Block))
    wide = Term(t.n + max(len(t.word), 2 * expanded) + 1, t.word)
    assert type(semantics._rewire(wide)[0]) is semantics._Mates
    nf, wide_nf = nf_by_diagram(t), nf_by_diagram(wide)
    assert (nf.circles, nf.blocks) == (wide_nf.circles, wide_nf.blocks)


def test_nf_by_diagram_keeps_no_slot_per_strand_of_a_short_word():
    t = Term(10**6, (Block(5, 5),))
    tracemalloc.start()
    try:
        nf = nf_by_diagram(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf == JonesNF(10**6, 0, ((5, 5),))
    assert peak < 1_000_000


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


class _CountingReads:
    """A partner map that counts the codes read from it in `reads[0]`."""

    def __init__(self, mate, reads):
        self.mate, self.reads = mate, reads

    def __getitem__(self, code):
        self.reads[0] += 1
        return self.mate[code]


def _assert_scan_bound(d: Diagram) -> None:
    """Peel's scan reads at most 2 (steps + n) codes of the map, steps being span/2."""
    reads = [0]

    def counting_first_crossed(mate, n, j):
        return _first_crossed(_CountingReads(mate, reads), n, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "_first_crossed", counting_first_crossed)
        peeled = peel(d)
    assert peeled == nf_to_term(diagram_to_nf(d))
    assert reads[0] <= 2 * (span(d) // 2 + d.n), (d.n, reads[0], span(d) // 2)


def test_peel_scan_bound_on_every_pairing_up_to_n_8():
    for n in range(2, 9):
        for d in enumerate_pairings(n):
            _assert_scan_bound(d)


@pytest.mark.parametrize("family", [staircase, nested, side_by_side])
def test_peel_scan_bound_on_the_large_families(family):
    for n in (2, 4, 10, 64, 250, 1000):
        _assert_scan_bound(family(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.randoms(use_true_random=False))
def test_peel_scan_bound_on_random_pairings(n, rng):
    _assert_scan_bound(random_pairing(rng, n, 0))


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


def test_diagram_and_peel_hold_one_flat_partner_map():
    # each code's partner once, in a slot of a flat map: no dict of 2n entries is built or copied;
    # peel's closing check compares the peeled word's partner map with the diagram's, code by
    # code, where building a second Diagram, as delta does, took 27.5 MiB of a 28.9 MiB peak
    obj = to_json_dict(identity(10**5))
    tracemalloc.start()
    try:
        d = from_json_dict(obj)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert peel(d) == Term(10**5)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 15 * 2**20
    assert peak < 4 * 2**20, peak


def _traced(f, *args):
    """f(*args), with the memory its result holds and the peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = f(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_delta_and_compose_hold_only_the_flat_partner_map():
    # the Diagram keeps 2n + 1 slots and no pairs tuple: at n = 10**5 about 1.6 MB of slots
    # plus the int objects of the codes; a pairs tuple beside them held 16.9 and 13.8 MiB
    d, held, _ = _traced(delta, parse("h1", 10**5))
    assert held < 10 * 2**20, held
    assert d.pairs[:2] == ((-100000, 100000), (-99999, 99999))
    composite, held, _ = _traced(compose, d, d)
    assert held < 7 * 2**20, held
    assert composite == Diagram(d.n, d.pairs, 1)
    # the outputs list their threads straight off the map, with no pairs tuple alive beside
    # them: 16.8 MiB for the JSON pairs and 18.2 MiB for the drawing's split when they read it
    obj, _, peak = _traced(to_json_dict, d)
    assert peak < 14 * 2**20, peak
    (cups, caps, trans), _, peak = _traced(lambda d: [*map(list, _split(d))], d)
    assert peak < 13 * 2**20, peak
    assert (cups, caps, len(trans)) == ([(1, 2)], [(1, 2)], 10**5 - 2)
    rebuilt, held, _ = _traced(from_json_dict, obj)
    assert held < 4 * 2**20, held  # the slots only: the codes are the JSON object's ints
    assert rebuilt == d


def test_rewire_refuses_a_word_over_the_limit_on_its_summed_widths_before_stacking(monkeypatch):
    # the limit is the width times the number of blocks, here 20 * 2, or MAX_WORD_LENGTH; a sum
    # over it is refused before the first block, whose 30 diapsides would fit, is stacked
    stacked = []
    monkeypatch.setattr(semantics, "_stack", _counting_stack(stacked))
    with pytest.raises(DomainError, match="expanded word longer than 40 diapsides"):
        _rewire(Term(1000, (Block(30, 1), CIRCLE, Block(30, 1))), 20)
    assert stacked == []
    _rewire(Term(1000, (Block(20, 1), CIRCLE, Block(20, 1))), 20)  # the limit itself is stacked
    assert len(stacked) == 40
    monkeypatch.setattr(semantics, "MAX_WORD_LENGTH", 39)
    with pytest.raises(DomainError, match="expanded word longer than 39 diapsides"):
        _rewire(Term(1000, (Block(20, 1),) * 2), 20)
    assert len(stacked) == 40


def test_delta_and_nf_by_diagram_refuse_an_over_limit_word_of_many_factors_before_stacking(
        monkeypatch):
    # n is at most the factor count, so the flat layout needs no sum, yet the sum comes first:
    # 11 blocks of 4 diapsides pass a limit of 40 before any of the 44 is stacked
    stacked = []
    monkeypatch.setattr(semantics, "_stack", _counting_stack(stacked))
    monkeypatch.setattr(semantics, "MAX_WORD_LENGTH", 40)
    for f in (delta, nf_by_diagram):
        with pytest.raises(DomainError, match="expanded word longer than 40 diapsides"):
            f(Term(5, (Block(4, 1),) * 11))
    assert stacked == []
    assert delta(Term(5, (Block(4, 1),) * 10)) == compose_fold(Term(5, (Block(4, 1),) * 10))
    assert len(stacked) == 40


def test_delta_refuses_an_over_size_diagram_before_its_pass(monkeypatch):
    stacked = []
    monkeypatch.setattr(semantics, "_stack", _counting_stack(stacked))
    monkeypatch.setattr(semantics, "MAX_WORD_LENGTH", 5)
    for word in [(Block(1, 1),) * 4, (Block(5, 1),) * 2]:  # the second passes both bounds
        with pytest.raises(DomainError, match="diagram size 6 exceeds 5"):
            delta(Term(6, word))
    assert stacked == []
    assert delta(Term(5, (Block(1, 1),) * 4)).circles == 3  # the size bound itself is admitted
    assert stacked == [1] * 4


def test_peel_check_of_side_by_side_cups_stacks_onto_a_flat_list():
    # the peeled word touches every code, so its closing check rewires a flat list, not a dict
    # of all 2n codes: at n = 10**5 the dict took the peak to 33.8 MiB
    d = side_by_side(10**5)
    peeled, _, peak = _traced(peel, d)
    assert peak < 27 * 2**20, peak
    assert type(_rewire(peeled)[0]) is list
    assert diagram_to_nf(d) == normal_form(peeled)


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


def _one_circle_more(t):
    mate, circles = _rewire(t)
    return mate, circles + 1


def _rewires_the_cup_below(mate, n, j):
    ends = _first_crossed(mate, n, j)
    if j > 2 and mate[j - 2] == j - 1:  # the cup just below the top of the stack
        mate[j - 2] = 2 - j
    return ends


@pytest.mark.parametrize("name, fault, message", [
    ("_first_crossed", lambda mate, n, j: (j - 1, mate[j - 1]), "span by != 2"),
    ("_stack", _broken_stack, "does not recompose"),
    ("span", lambda d: span(d) + 2, "no span-1 cup"),
    ("_rewire", lambda t: _rewire(Term(t.n)), "does not evaluate"),
    ("_rewire", _one_circle_more, "does not evaluate"),
    ("_first_crossed", _rewires_the_cup_below, r"stacked cup \(2, 3\) was rewired"),
    ("JonesNF", lambda n, circles, blocks: JonesNF(n, circles, blocks[::-1]),
     "peeled word is not a normal form: lower indices must increase strictly"),
], ids=["scan", "stack", "span", "rewire", "circles", "stale-cup", "nf-order"])
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
