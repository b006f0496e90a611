"""Exhaustive small-size oracle suite, runnable from the CLI.

Each check prints one line; the suite passes only if every check does.
The checks duplicate the heart of the test suite at scales that finish in
a few seconds, so a deployed build can be probed without pytest.
`random_term` is also the test suite's random word generator.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, TextIO

from .enumeration import enumerate_normal_forms, enumerate_pairings, enumerate_terms
from .rewrite import normal_form, normalize
from .semantics import delta, diagram_to_nf, nf_by_diagram, peel
from .syntax import format_term, parse
from .terms import CIRCLE, Block, Term, measure_word, nf_to_term


def random_term(rng: random.Random, max_n: int = 12, max_len: int = 100) -> Term:
    """Random word mixing diapsides, circles and occasional wide blocks."""
    n = rng.randint(2, max_n)
    word = []
    for _ in range(rng.randint(0, max_len)):
        r = rng.random()
        if r < 0.18:
            word.append(CIRCLE)
        elif r < 0.82 or n == 2:
            i = rng.randint(1, n - 1)
            word.append(Block(i, i))
        else:
            b = rng.randint(1, n - 1)
            word.append(Block(b, rng.randint(1, b)))
    return Term(n, tuple(word))


def _expect(condition: bool, *detail: object) -> None:
    # an explicit raise, unlike assert, survives python -O
    if not condition:
        raise AssertionError(*detail)


def _check_nf_bijection() -> None:
    for n, catalan in {2: 2, 3: 5, 4: 14, 5: 42}.items():
        forms = list(enumerate_normal_forms(n, 2))
        diagrams = [delta(nf_to_term(f)) for f in forms]
        _expect(list(map(diagram_to_nf, diagrams)) == forms, n)  # so delta is one-to-one
        flat, pairings = [d for d in diagrams if d.circles == 0], list(enumerate_pairings(n))
        _expect(len(flat) == len(pairings) == catalan and set(flat) == set(pairings), n)


def _check_word_problem() -> None:
    for t in enumerate_terms(3, 4):
        _expect(nf_by_diagram(t) == normal_form(t), t)


def _check_peel() -> None:
    for n in range(2, 5):
        for d in enumerate_pairings(n):
            nf, peeled = diagram_to_nf(d), peel(d)
            # the rewriting, the reference, takes peel's diapsides to the same form
            diapsides = tuple(Block(i, i) for g in peeled.word
                              for i in range(g.upper, g.lower - 1, -1))
            _expect(peeled == nf_to_term(nf) and normal_form(Term(n, diapsides)) == nf, d)


def _check_rewriting(trials: int = 150) -> None:
    rng = random.Random(20240307)
    for _ in range(trials):
        t = random_term(rng, 8, 40)
        trace = normalize(t)
        # replay the steps, recounting the measure from the definition
        word = list(t.word)
        last = measure_word(t.word)
        for step in trace.steps:
            p = step.position
            _expect(tuple(word[p:p + 2]) == step.before, t, step)
            word[p:p + 2] = step.after
            m = measure_word(tuple(word))
            _expect(m < last, t, step, last, m)
            last = m
        _expect(tuple(word) == nf_to_term(trace.output).word, t)
        _expect(nf_by_diagram(t) == trace.output, t)


def _check_parser(trials: int = 200) -> None:
    rng = random.Random(977)
    for _ in range(trials):
        t = random_term(rng, 9, 30)
        _expect(parse(format_term(t), t.n) == t, t)


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("delta maps normal forms one-to-one onto pairings (n <= 5)", _check_nf_bijection),
    ("word problem: diagram route agrees with rewriting (n = 3, length <= 4)",
     _check_word_problem),
    ("peeling agrees with slope extraction (n <= 4)", _check_peel),
    ("measures decrease and routes agree (150 random terms)", _check_rewriting),
    ("parser round trip (200 random terms)", _check_parser),
)


def run(out: TextIO | None = None) -> bool:
    """Run every check, printing one line each to `out` (sys.stdout at the call)."""
    if out is None:
        out = sys.stdout
    ok = True
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as e:
            ok = False
            print(f"FAIL {name}: {e}", file=out)
        else:
            print(f"ok   {name}", file=out)
    return ok
