"""The diagram interpretation of terms and the word problem.

`delta` sends a word to a diagram: the leftmost factor becomes the
bottom-most diagram in the stack, so delta(t u) = compose(delta(t),
delta(u)).  This orientation is the easiest thing in the module to get
wrong; it is pinned by the compose(H^1, H^2) example in the test suite.
`delta` rewires the stack's top edge per generator instead of calling
`compose`; the test suite checks it against the `compose` fold.

The monoid given by generators and relations is isomorphic to the
diagram monoid, so a word's Jones normal form can be read off its
diagram: `nf_by_diagram` does so in one rewiring pass over the expanded
word, however many rewrite steps the word would need.  The rewriting of
`rewrite`, which follows the paper, is the reference and rewrites blocks
whole.  `decide_nf`, and so the word problem, takes the diagram route
unless the word's blocks are too wide for it; `decide_equal(...,
cross_check=True)` runs both routes and raises ConsistencyError if they
disagree.

Two extraction procedures invert delta on normal forms:

* `diagram_to_nf` reads the slope points directly: sorted bottom slope
  values are the upper block indices, sorted top slope values the lower
  ones, and the circle count carries over.

* `peel` works geometrically: it strips circles, then repeatedly detaches
  a diapsis from the top edge.  It takes the span-1 cup at the greatest
  position j and cuts straight down from it to the bottom edge.  Left of
  the cut lie 2j codes; one of them is the cup's end j, so the other
  2j - 1 cannot pair among themselves and some thread crosses the cut.
  The first one crossed, L-R, is rewired with the cup into (L, j) and
  (j+1, R): the inverse of one local move of `delta`, which splits off
  H^j, shrinks the span by exactly 2 and appends h^j as the rightmost
  factor of the extracted word.  The choice is forced: for a thread
  L'-R' crossed further down, L' and R' lie outside L-R along the
  boundary, so the new thread (L', j) would cross L-R.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .diagrams import (
    Diagram,
    compose,
    diapsis_diagram,
    slope_points,
    slope_points_of,
    span,
)
from .rewrite import ConsistencyError, normal_form
from .terms import CIRCLE, Block, DomainError, JonesNF, Term

DIAGRAM_ROUTE_WIDTH = 16  # mean diapsides per block up to which `decide_nf` reads the diagram


def delta_block(n: int, b: int, a: int) -> Diagram:
    """Diagram of the block h^[b,a], the one-block case of `delta`.

    In closed form: a cup at (a, a+1), a cap at (b, b+1), and each top
    position m in [a+2, b+1] sliding down two places to bottom position
    m-2; everything else vertical.
    """
    return delta(Term(n, (Block(b, a),)))


class _Mates(dict):
    """Code -> partner map of the touched codes; an absent code c is paired with -c."""

    def __missing__(self, code: int) -> int:
        return -code


def _rewire(t: Term) -> tuple[dict[int, int], int]:
    """The code -> partner involution of the word's diagram and its circle count.

    One pass over the word, first factor at the bottom.  A circle adds one
    to the count.  Stacking H^i on top joins the threads that end at top
    points i and i+1, or closes a circle when they are one cup, and then
    puts a new cup at (i, i+1).  A block h^[b,a] stacks H^b, H^(b-1), ...,
    H^a in that order.  The map holds only the codes the word touches, and
    its keys are closed under the partner map; every absent code c is on
    the vertical thread (c, -c).  So the pass costs O(1) per diapsis of the
    expanded word, sum(b - a + 1) over its blocks, and nothing per untouched
    strand.
    """
    mate = _Mates()
    circles = 0
    for g in t.word:
        if not isinstance(g, Block):
            circles += 1
            continue
        for i in range(g.upper, g.lower - 1, -1):
            left, right = mate[i], mate[i + 1]
            if left == i + 1:
                circles += 1
            else:
                mate[left], mate[right] = right, left
            mate[i], mate[i + 1] = i + 1, i
    return mate, circles


def delta(t: Term) -> Diagram:
    """The diagram of the word, first factor at the bottom.

    `_rewire`'s touched threads plus the untouched verticals, built into
    one validated `Diagram`: O(n) on top of the pass.
    """
    mate, circles = _rewire(t)
    pairs = [(c, m) for c, m in mate.items() if c < m]
    pairs.extend((-i, i) for i in range(1, t.n + 1) if i not in mate)
    return Diagram(t.n, tuple(pairs), circles)


def nf_by_diagram(t: Term) -> JonesNF:
    """The Jones normal form of the word, read off its diagram.

    Reads the slope points of `diagram_to_nf` off `_rewire`'s touched
    entries only: a vertical thread is never a slope point, so no
    `Diagram` is built and an untouched strand costs nothing.  The cost,
    in time and in memory, is that of the pass: the expanded length
    sum(b - a + 1) over the word's blocks.  A wide block such as h[n-1,1]
    thus costs O(n) here, while `normal_form` rewrites blocks whole;
    `decide_nf` picks between the two.
    """
    mate, circles = _rewire(t)
    top, bottom = slope_points_of(mate.items())
    return JonesNF(t.n, circles, tuple(zip(bottom, top)))


def decide_nf(t: Term) -> JonesNF:
    """The Jones normal form of the word, by the route its shape favours.

    The diagram route (`nf_by_diagram`) costs the expanded length; the
    cost of the rewriting (`normal_form`) does not grow with the widths
    of the blocks.  The diagram decides while the expanded length is at
    most DIAGRAM_ROUTE_WIDTH times the number of blocks, so its time and
    memory stay within a fixed multiple of the word's length; wider
    words, such as h[n-1,1] at a large n, are rewritten.
    """
    widths = [g.upper - g.lower + 1 for g in t.word if isinstance(g, Block)]
    if sum(widths) <= DIAGRAM_ROUTE_WIDTH * len(widths):
        return nf_by_diagram(t)
    return normal_form(t)


def decide_equal(t: Term, u: Term, cross_check: bool = False) -> bool:
    """Decide t = u in K_n by comparing Jones normal forms (`decide_nf`).

    With cross_check both routes, the diagram (`nf_by_diagram`) and the
    rewriting (`normal_form`), run on both terms; if they disagree on
    either normal form, the isomorphism between the two monoids is
    falsified and ConsistencyError is raised.
    """
    if t.n != u.n:
        raise DomainError(f"size mismatch: {t.n} vs {u.n}")
    if not cross_check:
        return decide_nf(t) == decide_nf(u)
    nf_t, nf_u = nf_by_diagram(t), nf_by_diagram(u)
    for term, nf in ((t, nf_t), (u, nf_u)):
        if normal_form(term) != nf:
            raise ConsistencyError(
                f"diagram and rewriting routes disagree on the normal form of {term}"
            )
    return nf_t == nf_u


def diagram_to_nf(d: Diagram) -> JonesNF:
    """Read the Jones normal form off the slope points."""
    top, bottom = slope_points(d)
    return JonesNF(d.n, d.circles, tuple(zip(bottom, top)))


def peel_steps(d: Diagram) -> Iterator[tuple[int, Diagram]]:
    """Yield (diapsis index, remaining diagram) until the identity remains.

    Consumes the circle-free pairing only; the caller accounts for circles.
    """
    n = d.n
    current = Diagram(n, d.pairs, 0)
    size = span(current)
    while size > 0:
        mate = dict(current.involution)
        j = next((i for i in range(n - 1, 0, -1) if mate[i] == i + 1), None)
        if j is None:
            raise ConsistencyError("positive span but no span-1 cup")
        # the cut's left side, nearest the cup first: top j-1..1, then bottom 1..j
        left = next((c for c in chain(range(j - 1, 0, -1), range(-1, -j - 1, -1))
                     if abs(mate[c]) > j), None)
        if left is None:
            raise ConsistencyError("cup covered by no other thread")
        right = mate[left]
        mate[left], mate[j], mate[right], mate[j + 1] = j, left, j + 1, right
        nxt = Diagram(n, tuple((c, m) for c, m in mate.items() if c < m))
        if span(nxt) != size - 2:
            raise ConsistencyError("peel step changed the span by != 2")
        if compose(nxt, diapsis_diagram(n, j)) != current:
            raise ConsistencyError("peel step does not recompose")
        yield j, nxt
        current, size = nxt, size - 2


def peel(d: Diagram) -> Term:
    """Express a diagram as a word of circles and diapsides.

    The first peeled diapsis ends up as the rightmost factor, so the word
    evaluates back to the diagram under delta; with the greatest-j cup
    choice the result is the diapsis expansion of the Jones normal form.
    """
    indices = [j for j, _ in peel_steps(d)]
    word = (CIRCLE,) * d.circles + tuple(Block(j, j) for j in reversed(indices))
    return Term(d.n, word)
