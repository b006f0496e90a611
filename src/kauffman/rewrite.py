"""Reduction of terms to Jones normal form.

A redex is an adjacent pair of generators matching one of the oriented
equations below (x = h^[i,j], y = h^[k,l]); the classification is total
and the conditions exclude each other:

    x y with j >= k+2          hI       -> y x
    x y with k == j            hcII     -> c h^[i,l]
    x y with |j-k| == 1        hII      -> h^[i,l]     (redex iff i>=k or j>=l)
    x y with k >= j+2:
        i >= k and j >= l      hIII.1   -> h^[k-2,l] h^[i,j+2]
        i <  k and j >= l      hIII.2   -> h^[i,l]   h^[k,j+2]
        i >= k and j <  l      hIII.3   -> h^[k-2,j] h^[i,l]
        i <  k and j <  l      (no redex)
    x c                        hcI      -> c x

A block pair is a redex exactly when i >= k or j >= l.  Firing hI or hcI
swaps the pair, leaving n1 unchanged and decreasing n2 by one; every
other rule decreases n1.  The measure therefore drops lexicographically
at each step, so any strategy terminates, and a word admits no redex
exactly when it is a Jones normal form.  Words are flat and the unit is
the empty word, so no rule eliminates units.

Both routes share one scan loop, `_reduce`, which yields each redex it
finds and reads the word as its caller left it after firing.
`rewrite_steps` (trace mode) keeps the circles in the word, so only its
steps include hcI, as the system above defines them; it checks the
measure drop of every step from the fired pair alone and yields the step
as it fires, so a caller that writes each step and drops it keeps O(L)
memory however many steps there are.  `normalize` collects that stream
into a `NormalizationTrace`.  `normal_form` uses that circles are central
(h^[i,j] c = c h^[i,j]): it counts the circles of the input and of every
hcII as an integer and rewrites only the blocks, so it never fires hcI.
In both, a step costs O(1) plus the list splice.

The word problem is decided by the diagram route
(`semantics.nf_by_diagram`) for most words; this module is the reference
that follows the paper.  `rewrite_steps` serves `nf --trace`, and
`normal_form` serves `semantics.decide_nf` on words of wide blocks, the
cross-check of `decide_equal` and the oracles of the test suite and
`selftest`; `term-of --method peel` rewrites nothing, since `peel`
returns the normal-form word itself.
"""

from __future__ import annotations

# collections.abc's Generator, renamed: here a Generator is a generator of the monoid
from collections.abc import Generator as Stream, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import format_word
from .terms import CIRCLE, Block, Circle, Generator, JonesNF, Term, measure_word

STRATEGIES = ("leftmost", "rightmost")


class ConsistencyError(RuntimeError):
    """An internal invariant failed (rule misuse or cross-check disagreement)."""


class RewriteStep(NamedTuple):
    """One redex firing: rule tag, word index, and the local before/after words."""

    rule: str
    position: int
    before: tuple[Generator, ...]
    after: tuple[Generator, ...]


@dataclass(frozen=True)
class NormalizationTrace:
    """A full reduction: replaying the steps from the input reproduces the output."""

    input: Term
    steps: tuple[RewriteStep, ...]
    output: JonesNF


def _classify(x: Generator, y: Generator) -> str | None:
    """Rule tag if the adjacent pair (x, y) is a redex, else None."""
    if not isinstance(x, Block):
        return None
    if isinstance(y, Circle):
        return "hcI"
    i, j = x.upper, x.lower
    k, l = y.upper, y.lower
    if j >= k + 2:
        return "hI"
    if k == j:
        return "hcII"
    if abs(j - k) == 1:
        return "hII" if (i >= k or j >= l) else None
    # k >= j + 2
    if i >= k and j >= l:
        return "hIII.1"
    if i < k and j >= l:
        return "hIII.2"
    if i >= k and j < l:
        return "hIII.3"
    return None


def _rhs(x: Generator, y: Generator, rule: str) -> tuple[Generator, ...]:
    if rule == "hcI":
        return (CIRCLE, x)
    if rule == "hI":
        return (y, x)
    i, j = x.upper, x.lower
    k, l = y.upper, y.lower
    if rule == "hII":
        return (Block(i, l),)
    if rule == "hcII":
        return (CIRCLE, Block(i, l))
    if rule == "hIII.1":
        return (Block(k - 2, l), Block(i, j + 2))
    if rule == "hIII.2":
        return (Block(i, l), Block(k, j + 2))
    if rule == "hIII.3":
        return (Block(k - 2, j), Block(i, l))
    raise ConsistencyError(f"unknown rule tag {rule!r}")


def _pack(n: int, word: list[Generator]) -> JonesNF:
    circles = 0
    while circles < len(word) and isinstance(word[circles], Circle):
        circles += 1
    blocks = []
    for g in word[circles:]:
        if isinstance(g, Circle):
            raise ConsistencyError("reduced word has a circle to the right of a block")
        blocks.append((g.upper, g.lower))
    return JonesNF(n, circles, tuple(blocks))


def _reduce(word: list[Generator], strategy: str) -> Iterator[tuple[int, str]]:
    """Yield each redex (p, tag) of `word` in scan order until none remains.

    The caller fires the redex, replacing word[p:p+2] by its right-hand
    side, before it asks for the next one; the scan reads the word as the
    caller left it.  The cursor moves by `step`, +1 for leftmost and -1
    for rightmost, and only ever needs to back up one position after a
    firing, because rules change the word locally; so scanning costs
    amortized O(1) per step.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    step = 1 if strategy == "leftmost" else -1
    last = len(word) - 2  # position of the last pair, refreshed after each firing
    p = 0 if step == 1 else last
    while 0 <= p <= last:
        tag = _classify(word[p], word[p + 1])
        if tag is None:
            p += step
        else:
            yield p, tag
            last = len(word) - 2
            p -= step
            if p < 0:
                p = 0
            elif p > last:
                p = last


def rewrite_steps(t: Term, strategy: str = "leftmost") -> Stream[RewriteStep, None, JonesNF]:
    """Yield every rewrite step as it fires; return the Jones normal form.

    Circles stay in the word, so the stream has every hcI step of the
    rewrite system.  Each step is checked to decrease the measure, from
    the fired pair alone: n1 sums over blocks, so the pair's n1 change is
    the word's; a step that keeps n1 must swap the pair, which keeps its
    relations to the rest of the word, so the pair's n2 change is the
    word's.  A step that fails the check raises ConsistencyError before
    it is yielded.

    The check reads the pair's indices directly.  n1 is the sum of
    upper - lower + 2 over the blocks.  n2 of a two-generator word u v is
    1 when u is a block followed by a circle or by a block that u
    dominates in either index, else 0; of two blocks one always dominates
    the other, so the swap x y -> y x lowers n2 exactly when y is a circle
    or a block that dominates x in neither index.  That is `measure_word`
    on words of length <= 2, which is called only to word the error.
    """
    word = list(t.word)
    for p, tag in _reduce(word, strategy):
        x, y = word[p], word[p + 1]  # x is a block: no redex starts with a circle
        rhs = tuple(_rhs(x, y, tag))  # no copy: tuple() returns a tuple as it is
        y_block = isinstance(y, Block)
        n1_drop = x.upper - x.lower + 2
        if y_block:
            n1_drop += y.upper - y.lower + 2
        for g in rhs:
            if isinstance(g, Block):
                n1_drop -= g.upper - g.lower + 2
        if n1_drop <= 0 and (rhs != (y, x)
                             or y_block and (y.upper >= x.upper or y.lower >= x.lower)):
            before, after = measure_word((x, y)), measure_word(rhs)
            raise ConsistencyError(
                f"measure did not decrease for {tag} at {p}: pair {tuple(before)} -> {tuple(after)}")
        word[p:p + 2] = rhs
        yield RewriteStep(tag, p, (x, y), rhs)
    return _pack(t.n, word)


def normalize(t: Term, strategy: str = "leftmost") -> NormalizationTrace:
    """Reduce to Jones normal form, keeping every step of `rewrite_steps`."""
    stream = rewrite_steps(t, strategy)
    steps: list[RewriteStep] = []
    try:
        while True:
            steps.append(next(stream))
    except StopIteration as done:
        return NormalizationTrace(t, tuple(steps), done.value)


def normal_form(t: Term, strategy: str = "leftmost") -> JonesNF:
    """Reduce to Jones normal form without recording a trace.

    Circles are central, so they are stripped from the input and counted,
    and each hcII adds one to the count instead of inserting a circle: the
    block-only word never fires hcI, and each step costs O(1) plus the
    list splice.
    """
    word = [g for g in t.word if isinstance(g, Block)]
    circles = len(t.word) - len(word)
    for p, tag in _reduce(word, strategy):
        rhs = _rhs(word[p], word[p + 1], tag)
        if tag == "hcII":
            circles += 1
            rhs = rhs[1:]
        word[p:p + 2] = rhs
    return JonesNF(t.n, circles, tuple((g.upper, g.lower) for g in word))


def format_step(step: RewriteStep) -> str:
    """Line-oriented trace serialization: "rule@position: before => after"."""
    return (f"{step.rule}@{step.position}: "
            f"{format_word(step.before)} => {format_word(step.after)}")
