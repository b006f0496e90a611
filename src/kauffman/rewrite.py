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
leaves n1 unchanged and decreases n2 by one; every other rule decreases
n1.  The measure therefore drops lexicographically at each step, so any
strategy terminates, and a word admits no redex exactly when it is a
Jones normal form.  Words are flat and the unit is the empty word, so
no rule eliminates units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import format_word
from .terms import (
    CIRCLE,
    Block,
    Circle,
    Generator,
    JonesNF,
    Measure,
    Term,
    block_weight,
    measure_word,
)

RULES = ("hI", "hII", "hcI", "hcII", "hIII.1", "hIII.2", "hIII.3")

STRATEGIES = ("leftmost", "rightmost")


class ConsistencyError(RuntimeError):
    """An internal invariant failed (rule misuse or cross-check disagreement)."""


@dataclass(frozen=True)
class RewriteStep:
    """One redex firing: rule tag, word index, and the local before/after words."""

    rule: str
    position: int
    before: tuple[Generator, ...]
    after: tuple[Generator, ...]


@dataclass(frozen=True)
class NormalizationTrace:
    """A full reduction: the steps taken and the measure after each of them.

    measures[0] is the measure of the input; measures[s+1] the measure after
    steps[s].  Replaying the steps from the input reproduces the output.
    """

    input: Term
    steps: tuple[RewriteStep, ...]
    output: JonesNF
    measures: tuple[Measure, ...]


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


def _rhs(x: Generator, y: Generator, rule: str) -> list[Generator]:
    if rule == "hcI":
        return [CIRCLE, x]
    if rule == "hI":
        return [y, x]
    i, j = x.upper, x.lower
    k, l = y.upper, y.lower
    if rule == "hII":
        return [Block(i, l)]
    if rule == "hcII":
        return [CIRCLE, Block(i, l)]
    if rule == "hIII.1":
        return [Block(k - 2, l), Block(i, j + 2)]
    if rule == "hIII.2":
        return [Block(i, l), Block(k, j + 2)]
    if rule == "hIII.3":
        return [Block(k - 2, j), Block(i, l)]
    raise ConsistencyError(f"unknown rule tag {rule!r}")


def find_redex(t: Term) -> tuple[int, str] | None:
    """Position and rule of the leftmost redex, or None for a normal form."""
    word = t.word
    for p in range(len(word) - 1):
        tag = _classify(word[p], word[p + 1])
        if tag is not None:
            return p, tag
    return None


def apply_rule(t: Term, position: int, rule: str) -> Term:
    """Fire the given rule at the given position, as reported by find_redex."""
    word = list(t.word)
    if not 0 <= position < len(word) - 1:
        raise ConsistencyError(f"no adjacent pair at position {position}")
    tag = _classify(word[position], word[position + 1])
    if tag != rule:
        raise ConsistencyError(
            f"rule {rule!r} does not apply at position {position} (found {tag!r})"
        )
    word[position:position + 2] = _rhs(word[position], word[position + 1], rule)
    return Term(t.n, tuple(word))


def _dominates(x: Block, y: Block) -> bool:
    return x.upper >= y.upper or x.lower >= y.lower


def _measure_delta(word: list[Generator], p: int, tag: str,
                   rhs: list[Generator]) -> tuple[int, int]:
    """Measure change for firing `tag` at p, computed before the mutation.

    hI and hcI touch nothing but the fired pair, so they are O(1); the
    n1-decreasing rules rescan the word once.
    """
    if tag in ("hI", "hcI"):
        return 0, -1
    x, y = word[p], word[p + 1]
    before = [g for g in word[:p] if isinstance(g, Block)]
    tail = word[p + 2:]
    after = [g for g in tail if isinstance(g, Block)]
    circles_after = len(tail) - len(after)
    d1 = sum(block_weight(g) for g in rhs if isinstance(g, Block)) \
        - block_weight(x) - block_weight(y)
    if tag == "hII":
        z = rhs[0]
        d2 = (
            sum(_dominates(g, z) - _dominates(g, x) - _dominates(g, y) for g in before)
            + sum(_dominates(z, g) - _dominates(x, g) - _dominates(y, g) for g in after)
            - 1            # the fired pair itself
            - circles_after  # one block fewer to the left of each later circle
        )
    elif tag == "hcII":
        z = rhs[1]
        d2 = (
            len(before)    # the new circle counts the blocks to its left
            + sum(_dominates(g, z) - _dominates(g, x) - _dominates(g, y) for g in before)
            + sum(_dominates(z, g) - _dominates(x, g) - _dominates(y, g) for g in after)
            - 1
            - circles_after
        )
    else:  # hIII.*: two blocks in, two blocks out, circles unaffected
        x2, y2 = rhs
        d2 = (
            sum(_dominates(g, x2) + _dominates(g, y2)
                - _dominates(g, x) - _dominates(g, y) for g in before)
            + sum(_dominates(x2, g) + _dominates(y2, g)
                  - _dominates(x, g) - _dominates(y, g) for g in after)
            + _dominates(x2, y2)
            - 1
        )
    return d1, d2


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


def _reduce(word: list[Generator], strategy: str, want_trace: bool):
    """Rewrite `word` in place until no redex remains.

    The scan cursor only ever needs to back up one position after a firing,
    because rules change the word locally; this keeps the scanning cost
    amortized constant per step.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    steps: list[RewriteStep] = []
    measures: list[Measure] = []
    if want_trace:
        n1, n2 = measure_word(tuple(word))
        measures.append(Measure(n1, n2))

    def fire(p: int, tag: str) -> None:
        nonlocal n1, n2
        x, y = word[p], word[p + 1]
        rhs = _rhs(x, y, tag)
        if want_trace:
            d1, d2 = _measure_delta(word, p, tag, rhs)
        word[p:p + 2] = rhs
        if want_trace:
            if not (d1 < 0 or (d1 == 0 and d2 < 0)):
                raise ConsistencyError(
                    f"measure did not decrease for {tag} at {p}: delta=({d1},{d2})"
                )
            n1 += d1
            n2 += d2
            steps.append(RewriteStep(tag, p, (x, y), tuple(rhs)))
            measures.append(Measure(n1, n2))

    if strategy == "leftmost":
        p = 0
        while p + 1 < len(word):
            tag = _classify(word[p], word[p + 1])
            if tag is None:
                p += 1
            else:
                fire(p, tag)
                p = p - 1 if p else 0
    else:
        p = len(word) - 2
        while p >= 0:
            tag = _classify(word[p], word[p + 1])
            if tag is None:
                p -= 1
            else:
                fire(p, tag)
                p = min(p + 1, len(word) - 2)
    return steps, measures


def normalize(t: Term, strategy: str = "leftmost") -> NormalizationTrace:
    """Reduce to Jones normal form, recording every step and measure."""
    word = list(t.word)
    steps, measures = _reduce(word, strategy, True)
    return NormalizationTrace(t, tuple(steps), _pack(t.n, word), tuple(measures))


def normal_form(t: Term, strategy: str = "leftmost") -> JonesNF:
    """Reduce to Jones normal form without recording a trace."""
    word = list(t.word)
    _reduce(word, strategy, False)
    return _pack(t.n, word)


def format_step(step: RewriteStep) -> str:
    """Line-oriented trace serialization: "rule@position: before => after"."""
    return (f"{step.rule}@{step.position}: "
            f"{format_word(step.before)} => {format_word(step.after)}")
