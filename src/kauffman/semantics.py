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
unless the word's blocks are too wide for it, which the pass finds out
from their summed widths before it stacks anything;
`decide_equal(..., cross_check=True)` runs both routes and raises
ConsistencyError if they disagree.

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

  All steps rewire one mutable copy of the partner map.  The span-1 cups
  wait on a stack, ascending in j.  Once the greatest is popped, the rest
  lie at j-2 or below; the step touches only L, j, R and j+1, none of them
  the end of a stacked cup, and can open only the cups at j-1 and j+1,
  pushed in that order.  So the top is always the greatest cup, and a
  popped entry that is no cup raises ConsistencyError.  The first crossed
  thread is found by two cursors that walk the boundary away from the cup,
  one step each in turn: one left of the cut (top j-1..1, then bottom
  -1..-j), one right of it (top j+2..n, then bottom -n..-(j+1)).  A thread
  with both ends on a cursor's side cannot cross the cut and is jumped
  over in one step; the crossing threads are parallel chords between the
  two sides, so whichever cursor meets one first meets the nearest.  Each
  step is checked in O(1): stacking H^j back on the four touched entries,
  by the move `delta` makes per diapsis, must restore them, and the span
  must drop by exactly 2.  The whole word is checked once, at the end: its
  `delta` must be the input diagram.  The cost is O(span/2 + n); the scan
  reads at most 2 (steps + n) codes on every family the test suite runs
  (every pairing up to n = 8, staircases, nested and side-by-side cups,
  random pairings), which is not a proof.
  A diagram whose span/2, the number of diapsides peeled, or whose size
  exceeds MAX_WORD_LENGTH is refused before the first step.  The peeled
  diapsides are the expansion of the Jones normal form, so `peel` groups
  their descending runs into its blocks and returns the normal-form word
  itself, without rewriting.
"""

from __future__ import annotations

from operator import ne

# compose is unused here and delta_block only by the tests, but perfbench/tracing.py patches both.
from .diagrams import Diagram, _build, compose, slope_points, slope_points_of, span  # noqa: F401
from .rewrite import ConsistencyError, normal_form
from .syntax import MAX_WORD_LENGTH
from .terms import Block, DomainError, JonesNF, Term, _check_int, nf_to_term

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


def _stack(mate, i: int) -> int:
    """Stack H^i on the top edge of the partner map `mate`, in place.

    Joins the threads that end at top points i and i+1, or closes a
    circle when they are one cup, then puts a new cup at (i, i+1); the
    number of circles closed, 0 or 1, is returned.  Only the entries of
    i, i+1 and their old partners change.
    """
    left, right = mate[i], mate[i + 1]
    mate[i], mate[i + 1] = i + 1, i
    if left == i + 1:
        return 1
    mate[left], mate[right] = right, left
    return 0


def _rewire(t: Term, width: int = MAX_WORD_LENGTH) -> tuple[list[int] | _Mates, int]:
    """The word's code -> partner map and circle count.

    The expanded length E = sum(b - a + 1) over the word's blocks is
    summed first, and a word whose E passes `width` times its number of
    blocks, or MAX_WORD_LENGTH, is refused (DomainError) before anything
    is stacked.  Then one pass over the blocks, first at the bottom: a
    block h^[b,a] stacks H^b, H^(b-1), ..., H^a by one `_stack` call
    each, a diapsis with no range built.  The map is a flat list in
    `diagrams`' layout when n is at most the number of factors or 2E (at
    four codes a diapsis, the word can touch all 2n slots); else a
    `_Mates` map of the touched codes, O(min(n, E)).
    """
    n, word = t.n, t.word
    blocks = [g for g in word if isinstance(g, Block)]
    expanded = len(blocks)
    for b, a in blocks:
        expanded += b - a
    limit = min(width * len(blocks), MAX_WORD_LENGTH)
    if expanded > limit:
        raise DomainError(f"expanded word longer than {limit} diapsides")
    if n <= max(len(word), 2 * expanded):
        mate = [0, *range(-1, -n - 1, -1), *range(n, 0, -1)]  # the identity
    else:
        mate = _Mates()
    circles = len(word) - len(blocks)  # the circle factors, then those the stacking closes
    for b, a in blocks:
        if b == a:
            circles += _stack(mate, b)
        else:
            for i in range(b, a - 1, -1):
                circles += _stack(mate, i)
    return mate, circles


def _read_nf(n: int, mate: list[int] | _Mates, circles: int) -> JonesNF:
    """The Jones normal form of `_rewire`'s result, read off its slope points.

    A vertical thread is never a slope point, so no `Diagram` is built
    and an untouched strand of a sparse map costs nothing.
    """
    top, bottom = slope_points_of(n, mate)
    return JonesNF(n, circles, tuple(zip(bottom, top)))


def delta(t: Term) -> Diagram:
    """The diagram of the word, first factor at the bottom.

    `_rewire`'s flat partner map, a sparse one's codes first copied onto
    the identity's, validated by `Diagram`'s one walk: O(n) on top of the
    pass.  A size over MAX_WORD_LENGTH is refused before the pass, so a
    word over both bounds gets the size message.
    """
    n = t.n
    if n > MAX_WORD_LENGTH:
        raise DomainError(f"diagram size {n} exceeds {MAX_WORD_LENGTH}")
    mate, circles = _rewire(t)
    if isinstance(mate, _Mates):
        mate, touched = [0, *range(-1, -n - 1, -1), *range(n, 0, -1)], mate
        for code, partner in touched.items():
            mate[code] = partner
    return _build(n, mate, circles)


def nf_by_diagram(t: Term) -> JonesNF:
    """The Jones normal form of the word, read off its diagram.

    The cost, in time and in memory, is that of `_rewire`'s pass: the
    expanded length sum(b - a + 1) over the word's blocks, which must be
    at most MAX_WORD_LENGTH.  A wide block such as h[n-1,1] thus costs
    O(n) here, while `normal_form` rewrites blocks whole; `decide_nf`
    picks between the two.
    """
    mate, circles = _rewire(t)
    return _read_nf(t.n, mate, circles)


def decide_nf(t: Term) -> JonesNF:
    """The Jones normal form of the word, by the route its shape favours.

    The diagram route costs the expanded length E; the rewriting
    (`normal_form`) does not grow with the widths of the blocks.  The
    diagram decides while E is at most DIAGRAM_ROUTE_WIDTH times the
    number of blocks and at most MAX_WORD_LENGTH, so its time and memory
    stay within a fixed multiple of the word's length; other words, such
    as h[n-1,1] at a large n, are rewritten, so every word that parses
    gets an answer.  `_rewire` applies the rule to the summed widths and
    refuses a word over it before stacking anything, so a rewritten word
    costs the diagram route one pass over its factors.
    """
    try:
        mate, circles = _rewire(t, DIAGRAM_ROUTE_WIDTH)
    except DomainError:
        return normal_form(t)
    return _read_nf(t.n, mate, circles)


def decide_equal(t: Term, u: Term, cross_check: bool = False) -> bool:
    """Decide t = u in K_n by comparing Jones normal forms (`decide_nf`).

    With cross_check both routes, the diagram (`nf_by_diagram`) and the
    rewriting (`normal_form`), run on both terms; if they disagree on
    either normal form, the isomorphism between the two monoids is
    falsified and ConsistencyError is raised.  The diagram route then
    refuses a word whose expanded length exceeds MAX_WORD_LENGTH.
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


def _first_crossed(mate: list[int], n: int, j: int) -> tuple[int, int]:
    """Ends (L, R) of the first thread that the cut below the cup (j, j+1) crosses.

    L lies left of the cut, R right of it.  Two cursors walk the boundary
    away from the cup, one step each in turn, and jump over every thread
    whose ends both lie on their own side.
    """
    left = j - 1 if j > 1 else -1         # next along top j-1..1, bottom -1..-j
    right = j + 2 if j + 1 < n else -n    # next along top j+2..n, bottom -n..-(j+1)
    while -j <= left and not -j <= right < 0:  # until a cursor runs off its side
        m = mate[left]
        if abs(m) > j:
            return left, m
        left = m - 1 if m != 1 else -1
        m = mate[right]
        if abs(m) <= j:
            return m, right
        right = m + 1 if m != n else -n
    raise ConsistencyError("cup covered by no other thread")


def peel(d: Diagram) -> Term:
    """The Jones normal form word c^k h^[b1,a1] ... of a diagram, peeled off it.

    Each step peels a diapsis h^j, the first peeled becoming the rightmost
    factor.  With the greatest-j cup choice the diapsides are the expansion
    of the normal form, whose adjacent blocks h^[b1,a1] h^[b2,a2] have
    b2 > b1 >= a1, so no descending run crosses a block boundary: the
    maximal runs j, j-1, ..., i of the indices, in word order, are its
    blocks h^[j,i], grouped in O(span/2).  `JonesNF` checks that their
    indices increase strictly, and a failure is a ConsistencyError.  A
    size below 2, or a size or span/2 over MAX_WORD_LENGTH, the bounds of
    `delta`, is refused before the first step.  Last, the word is stacked
    by `_rewire`, and its partner of every code and its circle count are
    compared with the diagram's: no second `Diagram` is built, and a
    sparse map answers for the untouched strands.
    """
    n = d.n
    _check_int(n, "monoid size", 2)
    if n > MAX_WORD_LENGTH:
        raise DomainError(f"diagram size {n} exceeds {MAX_WORD_LENGTH}")
    size = span(d)
    if size // 2 > MAX_WORD_LENGTH:
        raise DomainError(f"peeled word longer than {MAX_WORD_LENGTH} diapsides")
    mate = list(d.mates)
    cups = [i for i in range(1, n) if mate[i] == i + 1]  # ascending: the greatest on top
    indices = []
    while size > 0:
        if not cups:
            raise ConsistencyError("positive span but no span-1 cup")
        j = cups.pop()
        if mate[j] != j + 1:
            raise ConsistencyError(f"stacked cup ({j}, {j + 1}) was rewired")
        left, right = _first_crossed(mate, n, j)
        mate[left], mate[j], mate[right], mate[j + 1] = j, left, j + 1, right
        a, b = abs(left), abs(right)  # positions of the crossed thread's ends
        if abs(a - j) + abs(b - j - 1) != abs(a - b) + 1 - 2:
            raise ConsistencyError("peel step changed the span by != 2")
        touched = {left: j, j: left, right: j + 1, j + 1: right}  # H^j back on: the entries before
        if _stack(touched, j) or touched != {left: right, right: left, j: j + 1, j + 1: j}:
            raise ConsistencyError("peel step does not recompose")
        if left == j - 1:
            cups.append(j - 1)
        if right == j + 2:
            cups.append(j + 1)
        indices.append(j)
        size -= 2
    runs: list[list[int]] = []  # [j, i] of each maximal run j, j-1, ..., i, in word order
    for j in reversed(indices):
        if runs and runs[-1][1] == j + 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    try:
        nf = JonesNF(n, d.circles, runs)
    except DomainError as e:
        raise ConsistencyError(f"peeled word is not a normal form: {e}") from None
    del mate  # freed before the check stacks the peeled word
    peeled = nf_to_term(nf)
    built, circles = _rewire(peeled)
    codes = range(-n, n + 1)
    if circles != d.circles or any(map(ne, map(built.__getitem__, codes),
                                       map(d.mates.__getitem__, codes))):
        raise ConsistencyError("peeled word does not evaluate to the diagram")
    return peeled
