"""The diagram interpretation of terms and the word problem.

`delta` sends a word to a diagram: the leftmost factor becomes the
bottom-most diagram in the stack, so delta(t u) = compose(delta(t),
delta(u)).  This orientation is the easiest thing in the module to get
wrong; it is pinned by the compose(H^1, H^2) example in the test suite.
`delta` rewires the stack's top edge per generator instead of calling
`compose`; the test suite checks it against the `compose` fold.

Two extraction procedures invert delta on normal forms:

* `diagram_to_nf` reads the slope points directly: sorted bottom slope
  values are the upper block indices, sorted top slope values the lower
  ones, and the circle count carries over.

* `peel` works geometrically: it strips circles, then repeatedly detaches
  a diapsis from the top edge.  Among the span-1 cups it takes the one at
  the greatest position j; some other thread must also cover (j, j+1),
  and exactly one of four shapes applies: another cup, a falling
  transversal, a rising transversal, or a cap (planarity forbids a mix of
  falling and rising coverers).  Rewiring that thread with the cup splits
  off H^j, shrinking the span by exactly 2, and appends h^j as the
  rightmost factor of the extracted word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .diagrams import (
    Diagram,
    compose,
    covers,
    diapsis_diagram,
    slope_points,
    span,
)
from .rewrite import ConsistencyError, normal_form
from .terms import CIRCLE, Block, DomainError, JonesNF, Term


@dataclass(frozen=True)
class EqualityVerdict:
    equal: bool
    witness: tuple[JonesNF, JonesNF]


def delta_block(n: int, b: int, a: int) -> Diagram:
    """Diagram of the block h^[b,a], the one-block case of `delta`.

    In closed form: a cup at (a, a+1), a cap at (b, b+1), and each top
    position m in [a+2, b+1] sliding down two places to bottom position
    m-2; everything else vertical.
    """
    return delta(Term(n, (Block(b, a),)))


def delta(t: Term) -> Diagram:
    """The diagram of the word, first factor at the bottom.

    One pass over the word keeps the code -> partner involution of the
    stack built so far and its circle count.  A circle adds one to the
    count.  Stacking H^i on top joins the threads that end at top points i
    and i+1, or closes a circle when they are one cup, and then puts a new
    cup at (i, i+1).  A block h^[b,a] stacks H^b, H^(b-1), ..., H^a in
    that order.
    """
    n = t.n
    mate = {c: -c for c in range(-n, n + 1) if c}  # identity: top i to bottom -i
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
    return Diagram(n, tuple((c, m) for c, m in mate.items() if c < m), circles)


def decide_equal(t: Term, u: Term, cross_check: bool = False) -> EqualityVerdict:
    """Decide t = u in K_n by comparing Jones normal forms.

    With cross_check the diagram route runs as well; a disagreement would
    falsify the normal-form theory and raises ConsistencyError.
    """
    if t.n != u.n:
        raise DomainError(f"size mismatch: {t.n} vs {u.n}")
    nf_t = normal_form(t)
    nf_u = normal_form(u)
    equal = nf_t == nf_u
    if cross_check:
        diagram_equal = delta(t) == delta(u)
        if diagram_equal != equal:
            raise ConsistencyError(
                f"normal-form and diagram routes disagree on {t} vs {u}"
            )
    return EqualityVerdict(equal, (nf_t, nf_u))


def diagram_to_nf(d: Diagram) -> JonesNF:
    """Read the Jones normal form off the slope points."""
    top, bottom = slope_points(d)
    return JonesNF(d.n, d.circles, tuple(zip(bottom, top)))


def peel_steps(d: Diagram) -> Iterator[tuple[int, Diagram]]:
    """Yield (diapsis index, remaining diagram) until the identity remains.

    Consumes the circle-free pairing only; the caller accounts for circles.
    """
    current = Diagram(d.n, d.pairs, 0)
    while span(current) > 0:
        j, nxt = _peel_once(current)
        if span(nxt) != span(current) - 2:
            raise ConsistencyError("peel step changed the span by != 2")
        if compose(nxt, diapsis_diagram(d.n, j)) != current:
            raise ConsistencyError("peel step does not recompose")
        yield j, nxt
        current = nxt


def _peel_once(d: Diagram) -> tuple[int, Diagram]:
    inv = d.involution
    n = d.n
    cups_1 = [i for i in range(1, n) if inv.get(i) == i + 1]
    if not cups_1:
        raise ConsistencyError("positive span but no span-1 cup")
    j = max(cups_1)
    cup = (j, j + 1)

    coverers = [p for p in d.pairs if p != cup and covers(p, j)]
    cups = [p for p in coverers if p[0] > 0]
    caps = [p for p in coverers if p[1] < 0]
    trans = [p for p in coverers if p[0] < 0 < p[1]]

    if cups:
        lo, hi = max(cups)  # innermost covering cup: greatest left end
        ends = (lo, hi)
    elif trans:
        falling = [p for p in trans if p[1] < -p[0]]  # top end left of bottom end
        rising = [p for p in trans if p[1] > -p[0]]
        if falling and rising:
            raise ConsistencyError("both falling and rising threads cover a cup")
        if falling:
            lo, hi = max(falling, key=lambda p: p[1])   # greatest top end
            ends = (hi, lo)                             # (left end, right end)
        else:
            lo, hi = min(rising, key=lambda p: -p[0])   # least bottom end
            ends = (lo, hi)
    elif caps:
        lo, hi = min(caps, key=lambda p: -p[1])         # least left end
        ends = (hi, lo)
    else:
        raise ConsistencyError("cup covered by no other thread")

    removed = {cup, tuple(sorted(ends))}
    pairs = [p for p in d.pairs if p not in removed]
    pairs.append((ends[0], j))
    pairs.append((j + 1, ends[1]))
    return j, Diagram(n, tuple(pairs), 0)


def peel(d: Diagram) -> Term:
    """Express a diagram as a word of circles and diapsides.

    The first peeled diapsis ends up as the rightmost factor, so the word
    evaluates back to the diagram under delta; with the greatest-j cup
    choice the result is the diapsis expansion of the Jones normal form.
    """
    indices = [j for j, _ in peel_steps(d)]
    word = (CIRCLE,) * d.circles + tuple(Block(j, j) for j in reversed(indices))
    return Term(d.n, word)
