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

Both routes share one scan loop.  `normalize` (trace mode) keeps the
circles in the word, so only its trace records hcI steps, as the system
above defines them; it keeps the measure by dominance counts in amortized
O(log^2 n) per step, most hI and hcI steps O(1).  `normal_form` uses
that circles are central (h^[i,j] c = c h^[i,j]): it counts the circles
of the input and of every hcII as an integer and rewrites only the
blocks, so it never fires hcI and each step costs O(1) plus the list
splice.

The word problem is decided by the diagram route
(`semantics.nf_by_diagram`) for most words; this module is the reference
that follows the paper.  `normalize` serves `nf --trace`, and
`normal_form` serves `semantics.decide_nf` on words of wide blocks, the
cross-check of `decide_equal`, `term-of --method peel` and the oracles
of the test suite and `selftest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
)

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


def _dominates(x: Block, y: Block) -> bool:
    return x.upper >= y.upper or x.lower >= y.lower


class _Fenwick2D:
    """Point counts on [1, size]^2: O(log^2 size) update and dominance query.

    A two-dimensional Fenwick tree (Fenwick 1994) whose cells live in a dict
    of rows, so memory grows with the points added, O(log^2 size) cells
    each, and never with size^2.
    """

    __slots__ = ("size", "rows")

    def __init__(self, size: int) -> None:
        self.size = size
        self.rows: dict[int, dict[int, int]] = {}

    def add(self, u: int, v: int, count: int) -> None:
        rows, size = self.rows, self.size
        a = u
        while a <= size:
            row = rows.get(a)
            if row is None:
                row = rows[a] = {}
            b = v
            while b <= size:
                row[b] = row.get(b, 0) + count
                b += b & -b
            a += a & -a

    def below(self, u: int, v: int) -> int:
        """Number of points (a, b) with a < u and b < v."""
        rows = self.rows
        total = 0
        a = u - 1
        while a > 0:
            row = rows.get(a)
            if row:
                b = v - 1
                while b > 0:
                    total += row.get(b, 0)
                    b -= b & -b
            a -= a & -a
        return total


class _Trace:
    """Trace-mode bookkeeping: steps, measures, and the counts behind them.

    The word is split at a boundary f.  `left` holds the blocks of
    word[:f] at (upper, lower) and `right` those of word[f:] at
    (n - upper, n - lower), so the earlier blocks strictly below a block w
    in both indices, and the later blocks strictly above it, are each one
    prefix query.  Integer counters hold the blocks and circles on each
    side.

    The boundary follows the scan cursor lazily: it moves to p only
    before an n1-decreasing step at p, so cursor moves that cancel cost
    nothing, and moving it costs O(log^2 n) per generator it passes,
    amortized O(log^2 n) per step since the cursor moves O(1) amortized.
    hI and hcI permute word[p:p+2] and change the measure by (0, -1); they
    touch the counts only when the boundary splits the fired pair, by
    moving it past the pair, so most of them cost O(1).
    """

    def __init__(self, word: list[Generator], n: int) -> None:
        self.word = word
        self.n = n
        self.left = _Fenwick2D(n - 1)
        self.right = _Fenwick2D(n - 1)
        self.f = 0
        self.blocks_left = self.circles_left = 0
        self.steps: list[RewriteStep] = []
        # Initial measure, as in terms.measure_word: each block dominates
        # `seen - right.below(...)` of the blocks after it, and each circle
        # counts the blocks before it.
        self.blocks = sum(isinstance(g, Block) for g in word)
        self.circles = len(word) - self.blocks
        n1 = n2 = seen = 0
        for g in reversed(word):
            if isinstance(g, Block):
                n1 += block_weight(g)
                n2 += seen - self.right.below(n - g.upper, n - g.lower)
                self.right.add(n - g.upper, n - g.lower, 1)
                seen += 1
            else:
                n2 += self.blocks - seen
        self.measures = [Measure(n1, n2)]

    def _move_boundary(self, p: int) -> None:
        word, n, f = self.word, self.n, self.f
        while f < p:
            g = word[f]
            if isinstance(g, Block):
                self.left.add(g.upper, g.lower, 1)
                self.right.add(n - g.upper, n - g.lower, -1)
                self.blocks_left += 1
            else:
                self.circles_left += 1
            f += 1
        while f > p:
            f -= 1
            g = word[f]
            if isinstance(g, Block):
                self.left.add(g.upper, g.lower, -1)
                self.right.add(n - g.upper, n - g.lower, 1)
                self.blocks_left -= 1
            else:
                self.circles_left -= 1
        self.f = f

    def _measure_delta(self, x: Block, y: Block,
                       rhs: list[Generator]) -> tuple[int, int]:
        """Measure change for replacing the blocks x y at the boundary by rhs.

        Computed from the counts before they are updated, in O(log^2 n):
        one query per tree for each of the two to four blocks involved.
        Only pairs that touch the fired pair change.  A block w placed
        there dominates every block of word[:f] but those strictly below
        it in both indices, and every block after the pair but those
        strictly above it; the pair's own dominance (1, since it is a
        redex) becomes that of the new blocks; each circle after the pair
        sees the change in the number of blocks; a new circle counts the
        blocks of word[:f].
        """
        n = self.n
        before = self.blocks_left
        after = self.blocks - before - 2

        def outside(w: Block) -> int:
            above_in_pair = sum(g.upper > w.upper and g.lower > w.lower for g in (x, y))
            return (before - self.left.below(w.upper, w.lower)
                    + after - self.right.below(n - w.upper, n - w.lower) + above_in_pair)

        new = [g for g in rhs if isinstance(g, Block)]
        d1 = sum(map(block_weight, new)) - block_weight(x) - block_weight(y)
        d2 = (sum(map(outside, new)) - outside(x) - outside(y) - 1
              + (len(new) - 2) * (self.circles - self.circles_left))
        if len(new) == 2:
            d2 += _dominates(new[0], new[1])
        if len(new) < len(rhs):
            d2 += before
        return d1, d2

    def fire(self, p: int, tag: str) -> None:
        word, n = self.word, self.n
        x, y = word[p], word[p + 1]
        rhs = _rhs(x, y, tag)
        if tag in ("hI", "hcI"):
            if self.f == p + 1:
                self._move_boundary(p + 2)
            d1, d2 = 0, -1
        else:
            self._move_boundary(p)
            d1, d2 = self._measure_delta(x, y, rhs)
            self.right.add(n - x.upper, n - x.lower, -1)
            self.right.add(n - y.upper, n - y.lower, -1)
            for g in rhs:
                if isinstance(g, Block):
                    self.right.add(n - g.upper, n - g.lower, 1)
                    self.blocks += 1
                else:
                    self.circles += 1
            self.blocks -= 2
        word[p:p + 2] = rhs
        if not (d1 < 0 or (d1 == 0 and d2 < 0)):
            raise ConsistencyError(
                f"measure did not decrease for {tag} at {p}: delta=({d1},{d2})"
            )
        n1, n2 = self.measures[-1]
        self.steps.append(RewriteStep(tag, p, (x, y), tuple(rhs)))
        self.measures.append(Measure(n1 + d1, n2 + d2))


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


def _reduce(word: list[Generator], strategy: str,
            fire: Callable[[int, str], None]) -> None:
    """Rewrite `word` in place until no redex remains.

    fire(p, tag) replaces the redex word[p:p+2] by its right-hand side.
    The scan cursor only ever needs to back up one position after a
    firing, because rules change the word locally; so scanning costs
    amortized O(1) per step, and a step costs what `fire` costs plus the
    list splice.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
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


def normalize(t: Term, strategy: str = "leftmost") -> NormalizationTrace:
    """Reduce to Jones normal form, recording every step and measure.

    Circles stay in the word, so the trace has every hcI step of the
    rewrite system.  After an O(B log^2 n) initial measure of the B
    blocks, each step costs amortized O(log^2 n) (see `_Trace`).
    """
    word = list(t.word)
    trace = _Trace(word, t.n)
    _reduce(word, strategy, trace.fire)
    return NormalizationTrace(t, tuple(trace.steps), _pack(t.n, word),
                              tuple(trace.measures))


def normal_form(t: Term, strategy: str = "leftmost") -> JonesNF:
    """Reduce to Jones normal form without recording a trace.

    Circles are central, so they are stripped from the input and counted,
    and each hcII adds one to the count instead of inserting a circle: the
    block-only word never fires hcI, and each step costs O(1) plus the
    list splice.
    """
    word = [g for g in t.word if isinstance(g, Block)]
    circles = len(t.word) - len(word)

    def fire(p: int, tag: str) -> None:
        nonlocal circles
        rhs = _rhs(word[p], word[p + 1], tag)
        if tag == "hcII":
            circles += 1
            del rhs[0]
        word[p:p + 2] = rhs

    _reduce(word, strategy, fire)
    return JonesNF(t.n, circles, tuple((g.upper, g.lower) for g in word))


def format_step(step: RewriteStep) -> str:
    """Line-oriented trace serialization: "rule@position: before => after"."""
    return (f"{step.rule}@{step.position}: "
            f"{format_word(step.before)} => {format_word(step.after)}")
