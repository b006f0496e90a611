"""Acceptance criteria, one test per criterion, run in file order.

Diagram.__post_init__ stays wrapped for the whole module: every diagram
built anywhere in criteria 1-8 is checked on the spot for the structural
invariants of criterion 9 (cups = caps, even span, even covering, span-1
cup existence, balanced slope points), and criterion 9 then verifies the
tally.  delta builds a single diagram per word, so the criteria interpret
words through `_delta`, which also builds the states of delta's fold (the
diagram of every prefix) and each factor's own diagram for the check.
Each test prints one pass line (visible with pytest -s; pytest -v reports
per-criterion pass/fail regardless).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

from kauffman import (
    CIRCLE,
    Circle,
    Diagram,
    JonesNF,
    Term,
    delta,
    diagram_to_nf,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    format_term,
    measure_word,
    nf_to_term,
    normal_form,
    normalize,
    parse,
    peel,
    slope_points,
    span,
)
from kauffman.cli import main

from helpers import (covers, expand, naive_rightmost_steps, peel_states, random_nf, random_term,
                     replay)

WORKED_NF = JonesNF(11, 6, ((3, 1), (4, 4), (7, 7), (9, 8), (10, 9)))
WORKED_TEXT = "c^6 h[3,1] h4 h7 h[9,8] h[10,9]"

_tally = {"diagrams": 0}


def _remark_invariants(d) -> None:
    pairs = d.pairs  # derived on each access: read once
    cups = [p for p in pairs if p[0] > 0]
    caps = [p for p in pairs if p[1] < 0]
    assert len(cups) == len(caps), "cups != caps"
    assert span(d) % 2 == 0, "odd span"
    for m in range(1, d.n):
        assert sum(covers(p, m) for p in pairs) % 2 == 0, f"odd covering at {m}"
    if cups:
        assert any(hi - lo == 1 for lo, hi in cups), "no span-1 cup"
        assert any(-lo + hi == 1 for lo, hi in caps), "no span-1 cap"
    top, bottom = slope_points(d)
    assert len(top) == len(bottom), "unbalanced slope points"
    _tally["diagrams"] += 1


@pytest.fixture(scope="module", autouse=True)
def _observe_every_diagram():
    post_init = Diagram.__post_init__

    def checked_post_init(d) -> None:
        post_init(d)
        _remark_invariants(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Diagram, "__post_init__", checked_post_init)
        yield


def _delta(t: Term) -> Diagram:
    """delta(t), after building every prefix's and every factor's diagram."""
    for k, g in enumerate(t.word):
        delta(Term(t.n, t.word[:k]))
        delta(Term(t.n, (g,)))
    return delta(t)


def _report(num: int, name: str) -> None:
    print(f"PASS criterion {num:02d}: {name}")


def _scramble(rng: random.Random, f: JonesNF) -> Term:
    """A product provably equal to nf_to_term(f), scrambled by the equations.

    Blocks are expanded into diapsides, circles are inserted anywhere, and
    commuting neighbours (distant diapsides, or anything past a circle) are
    swapped repeatedly; each move instantiates a defining equation.
    """
    word = list(expand(nf_to_term(JonesNF(f.n, 0, f.blocks))).word)
    for _ in range(f.circles):
        word.insert(rng.randint(0, len(word)), CIRCLE)
    for _ in range(400):
        p = rng.randrange(len(word) - 1)
        x, y = word[p], word[p + 1]
        circles = isinstance(x, Circle) or isinstance(y, Circle)
        if circles or abs(x.upper - y.upper) >= 2:
            word[p], word[p + 1] = y, x
    return Term(f.n, tuple(word))


def test_criterion_01_worked_example(capsys):
    start = time.perf_counter()
    rng = random.Random(11)
    for _ in range(50):
        t = _scramble(rng, WORKED_NF)
        assert normal_form(t) == WORKED_NF
        assert diagram_to_nf(_delta(t)) == WORKED_NF
    for _ in range(3):
        t = _scramble(rng, WORKED_NF)
        assert main(["nf", "-n", "11", format_term(t)]) == 0
        assert capsys.readouterr().out.strip() == WORKED_TEXT
        assert parse(WORKED_TEXT, 11) == nf_to_term(WORKED_NF)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _report(1, f"worked example, 53 scrambles in {elapsed:.2f}s")


def test_criterion_02_exhaustive_word_problem():
    start = time.perf_counter()
    terms = list(enumerate_terms(3, 6))
    assert len(terms) == 1093
    by_nf: dict = {}
    by_diagram: dict = {}
    for idx, t in enumerate(terms):
        by_nf.setdefault(normal_form(t), set()).add(idx)
        by_diagram.setdefault(_delta(t), set()).add(idx)
    partition_nf = {frozenset(s) for s in by_nf.values()}
    partition_diagram = {frozenset(s) for s in by_diagram.values()}
    assert partition_nf == partition_diagram
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    _report(2, f"1093 words bucketed identically by both routes in {elapsed:.2f}s")


def test_criterion_03_catalan_counts():
    start = time.perf_counter()
    expected = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, count in expected.items():
        assert len(list(enumerate_pairings(n))) == count, n
        assert len(list(enumerate_normal_forms(n, 0))) == count, n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    _report(3, f"catalan counts 2..132 for n=2..6 in {elapsed:.2f}s")


CORPUS_SEED = 20240811


def _corpus(count: int = 1000) -> list[Term]:
    rng = random.Random(CORPUS_SEED)
    return [random_term(rng, max_n=12, max_len=100) for _ in range(count)]


def test_criterion_04_termination_and_measure():
    # every trace replayed, its measure recounted from the definition
    for t in _corpus():
        measures = [measure_word(term.word) for term in replay(normalize(t))]
        for before, after in zip(measures, measures[1:]):
            assert after < before, (t.n, before, after)
    _report(4, "1000 random terms normalize with strictly decreasing measures")


def test_criterion_05_strategy_independence():
    # the package fires the leftmost redex, the naive rescan the rightmost one;
    # normal_form counts circles, trace mode still rewrites them in the word
    for t in _corpus():
        _, final = naive_rightmost_steps(t)
        assert nf_to_term(normal_form(t)) == final
        assert nf_to_term(normalize(t).output) == final
    _report(5, "leftmost and rightmost reductions agree on 1000 terms")


@lru_cache(maxsize=None)
def _delta_words_equal(n: int, before: tuple, after: tuple) -> bool:
    return _delta(Term(n, before)) == _delta(Term(n, after))


def test_criterion_06_per_step_soundness():
    rng = random.Random(CORPUS_SEED + 6)
    checked = 0
    for _ in range(200):
        t = random_term(rng, max_n=12, max_len=60)
        for step in normalize(t).steps:
            assert _delta_words_equal(t.n, step.before, step.after), step
            checked += 1
    assert checked > 0
    _report(6, f"{checked} rewrite steps preserve the diagram exactly")


def test_criterion_07_slope_points_recover_normal_forms():
    rng = random.Random(CORPUS_SEED + 7)
    for _ in range(500):
        f = random_nf(rng, max_n=10, max_circles=3)
        top, bottom = slope_points(_delta(nf_to_term(f)))
        assert top == tuple(a for _, a in f.blocks), f
        assert bottom == tuple(b for b, _ in f.blocks), f
    _report(7, "slope points match 500 random normal forms")


def test_criterion_08_peel_agreement():
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            nf = diagram_to_nf(d)
            assert peel(d) == nf_to_term(nf)
            # the rewriting, the reference, takes peel's diapsides to the same form
            assert normalize(expand(peel(d))).output == nf
            previous = span(d)
            for _, rest in peel_states(d):
                assert span(rest) == previous - 2
                previous = span(rest)
    _report(8, "peeling agrees with slope extraction on all diagrams up to n=5")


def test_criterion_09_remark_invariants_held_throughout():
    assert _tally["diagrams"] > 10000, _tally
    _report(9, f"remark invariants held on {_tally['diagrams']} constructed diagrams")


GOLDEN = [
    ("1", 2), ("c", 2), ("c^3", 2), ("h1", 2), ("h[3,1]", 4),
    ("h2 h1 h2", 3), ("c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]", 11),
    ("h1 * h2 * c", 3), ("  h1   c  ", 2), ("1 1 h1", 2), ("c^2h1", 2),
]


def test_criterion_10_parser_round_trip():
    rng = random.Random(CORPUS_SEED + 10)
    for _ in range(1000):
        t = random_term(rng, max_n=12, max_len=40)
        assert parse(format_term(t), t.n) == t
    for text, n in GOLDEN:
        once = format_term(parse(text, n))
        assert format_term(parse(once, n)) == once
    _report(10, "1000 round trips and a golden idempotence corpus")
