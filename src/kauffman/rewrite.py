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

One kernel, `_reduce`, does all the rewriting: it scans the word,
classifies each pair it reaches by `_classify` and fires each redex in
place by `_rhs`; those two are the one rule table.  A block is its pair
(upper, lower): the table unpacks it and builds new blocks as tuples, and
a normal form's blocks are the reduced word's own.  `rewrite_steps`
(trace mode) keeps the circles in the word, so only its steps include
hcI, as the system above defines them; the kernel checks the measure
drop of every step from the fired pair alone and yields the step as it
fires, so a caller that writes each step and drops it keeps O(L) memory
however many steps there are.  The kernel always fires the leftmost
redex, so a circle that hcI moves crosses every block left of it: the
kernel yields each step of that run, then moves the circle with one
splice.  `normalize` collects the stream into a `NormalizationTrace`.
`normal_form` drains the same kernel without trace: circles are central
(h^[i,j] c = c h^[i,j]), so it counts the circles of the input and of
every hcII as an integer and rewrites only the blocks, and never fires
hcI.  It moves a block's whole hI run at once, with one bisect and one
splice, and then skips the pairs that the move leaves known clean, so it
classifies O(L) pairs on the descending runs (h_{n-1} h_{n-3} ... h_1)^4,
which take about L^2 / 8 hI swaps step by step.  A step costs O(1) plus
its list splice, and an hcI or hI run of k steps one splice of about k
entries.  Trace mode fires hI step by step.  The normal form is unique,
so one scan order serves: any other reaches the same answer.

The word problem is decided by the diagram route
(`semantics.nf_by_diagram`) for most words; this module is the reference
that follows the paper.  `rewrite_steps` serves `nf --trace`, and
`normal_form` serves `semantics.decide_nf` on words of wide blocks, the
cross-check of `decide_equal` and the oracles of the test suite and
`selftest`; `term-of --method peel` rewrites nothing, since `peel`
returns the normal-form word itself.
"""

from __future__ import annotations

from bisect import bisect_left
# collections.abc's Generator, renamed: here a Generator is a generator of the monoid
from collections.abc import Generator as Stream
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .syntax import format_word
from .terms import CIRCLE, Block, Circle, DomainError, Generator, JonesNF, Term, measure_word


class ConsistencyError(RuntimeError):
    """An internal invariant failed (rule misuse or cross-check disagreement)."""


class RewriteStep(NamedTuple):
    """One redex firing: rule tag, word index, and the local before/after words."""

    rule: str
    position: int
    before: tuple[Generator, ...]
    after: tuple[Generator, ...]


_lower = itemgetter(1)  # a block's lower index
_new = tuple.__new__  # _new(Block, pair) and _new(RewriteStep, fields) skip the Python-level __new__


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
    i, j = x
    k, l = y
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
    i, j = x
    k, l = y
    if rule == "hII":
        return (_new(Block, (i, l)),)
    if rule == "hcII":
        return (CIRCLE, _new(Block, (i, l)))
    if rule == "hIII.1":
        return (_new(Block, (k - 2, l)), _new(Block, (i, j + 2)))
    if rule == "hIII.2":
        return (_new(Block, (i, l)), _new(Block, (k, j + 2)))
    if rule == "hIII.3":
        return (_new(Block, (k - 2, j)), _new(Block, (i, l)))
    raise ConsistencyError(f"unknown rule tag {rule!r}")


def _pack(n: int, word: list[Generator]) -> JonesNF:
    circles = 0
    while circles < len(word) and isinstance(word[circles], Circle):
        circles += 1
    try:
        return JonesNF(n, circles, word[circles:])
    except DomainError as e:  # a circle right of a block, or a redex left
        raise ConsistencyError(f"reduced word is not a normal form: {e}") from None


def _reduce(word: list[Generator], trace: bool = False) -> Stream[RewriteStep, None, int]:
    """Fire the leftmost redex of `word` in place until none remains.

    The one rewriting kernel.  The cursor moves left to right; it
    classifies each pair it reaches by `_classify` and replaces a redex
    in `word` by its `_rhs`.  Rules change the word locally, so after a
    firing the cursor backs up one position only, and scanning costs
    amortized O(1) per step.

    In trace mode (`rewrite_steps`) the circles stay in the word, and
    each step is checked to decrease the measure, then yielded as a
    RewriteStep.  The check reads the fired pair alone: n1 sums over
    blocks, so the pair's n1 change is the word's; a step that keeps n1
    must swap the pair, which keeps its relations to the rest of the
    word, so the pair's n2 change is the word's.  n1 is the sum of
    upper - lower + 2 over the blocks.  n2 of a two-generator word u v is
    1 when u is a block followed by a circle or by a block that u
    dominates in either index, else 0; of two blocks one always dominates
    the other, so the swap x y -> y x lowers n2 exactly when y is a circle
    or a block that dominates x in neither index.  That is `measure_word`
    on words of length <= 2, which is called only to word the error.  A
    step that fails the check raises ConsistencyError before it is
    yielded.

    When the scan fires hcI at p, no pair left of p is a redex, so
    word[:p + 1] is circles, then blocks, and the circle moves on by hcI
    past every one of those blocks.  The kernel yields that whole run
    step by step, each step through `_rhs` and the check, then moves the
    circle with one splice and resumes the scan at p + 1.  A step of the
    run whose right-hand side is not the swap (c, x) of its pair ends the
    run: the steps before it are spliced, and it fires as any other.

    Without trace (`normal_form`) the word holds no circle and gets none:
    each hcII adds one to a count instead, which is returned when no
    redex remains, and nothing is yielded.  When the scan fires hI at p,
    word[:p + 1] is a normal form, so its lower indices increase
    strictly, and y = word[p + 1] moves left by hI past exactly the
    suffix whose lower indices are at least y.upper + 2 (hI's condition
    in `_classify`).  One bisect finds that suffix and one splice puts y
    in front of it, the swaps of hI's `_rhs`: a run of k steps costs
    O(log p) Python work and a C-level copy of k entries.  y is clean
    against the suffix and the suffix against itself, so the pairs
    lo .. hi - 1 from y to the old word[p] are known clean: the scan
    backs up to the pair left of y and jumps from lo to hi when it gets
    there.  A firing left of lo shifts the interval with the word and
    drops from it the pairs that the firing changed.  Trace mode fires hI
    step by step, so its stream has every step.
    """
    circles = 0  # the circles that hcII closes, without trace
    last = len(word) - 2  # position of the last pair, refreshed after each firing
    p = lo = hi = 0  # the pairs lo .. hi - 1 are known clean: the scan jumps from lo to hi
    while p <= last:
        x, y = word[p], word[p + 1]
        tag = _classify(x, y)
        if tag is None:
            p += 1
            if p == lo:
                p = hi
            continue
        if not trace:
            if tag == "hI":
                # y passes the suffix of the normal form word[:p + 1] whose lower
                # indices are at least y.upper + 2; x = word[p] is in it
                s = bisect_left(word, y.upper + 2, 0, p, key=_lower)
                word[s + 1:p + 2] = word[s:p + 1]
                word[s] = y
                lo, hi = s, p + 1
                p = s - 1 if s else hi
                continue
            rhs = _rhs(x, y, tag)
            if tag == "hcII":
                circles += 1
                rhs = rhs[1:]
            word[p:p + 2] = rhs
            if lo < hi:  # the pairs from p - 1 to p + len(rhs) - 1 changed, the rest moved
                shift = len(rhs) - 2
                hi += shift
                lo = min(max(lo + shift, p + len(rhs)), hi)
            p -= 1
        else:
            q = p  # where the step fires; along an hcI run it moves left, unspliced
            while True:
                rhs = tuple(_rhs(x, y, tag))  # no copy: tuple() returns a tuple as it is
                y_block = isinstance(y, Block)  # x is a block: no redex starts with a circle
                swap = len(rhs) == 2 and rhs[0] is y and rhs[1] is x  # (y, x) itself
                n1_drop = 0  # a swap keeps n1
                if not swap:
                    i, j = x
                    n1_drop = i - j + 2
                    if y_block:
                        k, l = y
                        n1_drop += k - l + 2
                    for g in rhs:
                        if isinstance(g, Block):
                            b, a = g
                            n1_drop -= b - a + 2
                if n1_drop <= 0 and (not swap and rhs != (y, x)
                                     or y_block and (y.upper >= x.upper or y.lower >= x.lower)):
                    before, after = measure_word((x, y)), measure_word(rhs)
                    raise ConsistencyError(f"measure did not decrease for {tag} at {q}: "
                                           f"pair {tuple(before)} -> {tuple(after)}")
                yield _new(RewriteStep, (tag, q, (x, y), rhs))
                if not swap or tag != "hcI":
                    resume = q - 1
                    break
                if q == 0 or not isinstance(word[q - 1], Block):
                    resume = p + 1  # the circle has passed every block: no redex left of p + 1
                    break
                q -= 1
                x = word[q]
            # word[q:p + 2] still reads x y word[q + 1:p + 1]; the step at q made x y rhs
            if q == p:
                word[q:q + 2] = rhs
            else:
                word[q:p + 2] = (*rhs, *word[q + 1:p + 1])
            p = resume
        last = len(word) - 2
        if p < 0:
            p = 0
    return circles


def rewrite_steps(t: Term) -> Stream[RewriteStep, None, JonesNF]:
    """Yield every rewrite step as it fires; return the Jones normal form.

    Circles stay in the word, so the stream has every hcI step of the
    rewrite system, and each step is checked to decrease the measure; a
    step that fails the check raises ConsistencyError before it is
    yielded (see `_reduce`).
    """
    word = list(t.word)
    yield from _reduce(word, True)
    return _pack(t.n, word)


def normalize(t: Term) -> NormalizationTrace:
    """Reduce to Jones normal form, keeping every step of `rewrite_steps`."""
    stream = rewrite_steps(t)
    steps: list[RewriteStep] = []
    try:
        while True:
            steps.append(next(stream))
    except StopIteration as done:
        return NormalizationTrace(t, tuple(steps), done.value)


def normal_form(t: Term) -> JonesNF:
    """Reduce to Jones normal form without recording a trace.

    Circles are central, so they are stripped from the input and counted,
    and each hcII adds one to the count instead of inserting a circle: the
    block-only word never fires hcI, and each step costs O(1) plus the
    list splice.
    """
    word = [g for g in t.word if isinstance(g, Block)]
    circles = len(t.word) - len(word)
    try:
        next(_reduce(word))  # yields nothing without trace
    except StopIteration as done:
        circles += done.value
    return JonesNF(t.n, circles, word)


def format_step(step: RewriteStep) -> str:
    """Line-oriented trace serialization: "rule@position: before => after".

    A step whose sides are both two generators is joined from their texts
    directly.  That is `format_word`'s text unless a side is two circles,
    the one place "c c" can occur, which contracts to "c^2"; such a step,
    and every other, goes through `format_word`.
    """
    rule, position, before, after = step
    if len(before) == 2 and len(after) == 2:
        text = (f"{rule}@{position}: {before[0].text} {before[1].text} => "
                f"{after[0].text} {after[1].text}")
        if "c c" not in text:
            return text
    return f"{rule}@{position}: {format_word(before)} => {format_word(after)}"
