"""Combinatorial n-diagrams: planar pairings with a circle count.

An n-diagram has n points on the top edge and n on the bottom edge of a
rectangle, joined pairwise by n non-crossing threads, plus some number of
closed circles.  Top point (i, a) is encoded as the code +i and bottom
point (i, 0) as -i, so a diagram is a perfect matching on
{-n..-1, 1..n} together with a circle count.  A matching is planar iff
the closed integer intervals spanned by its pairs are pairwise disjoint
or nested, equivalently iff the matching reads as a balanced bracket
sequence in code order -n .. -1, 1 .. n.  A `Diagram` stores n, its
circle count and one code -> partner map `mates`, 2n + 1 slots: code c
at index c, so bottom code -c lands at index 2n + 1 - c by negative
indexing.  Every reader indexes that layout; `pairs` is derived from it.
`Diagram(n, pairs, circles)` fills the slots from pairs, the builders
hand their own map to `_build`, and both end in one walk over `mates`.

Because two diagrams are equal as equivalence classes exactly when their
pairings and circle counts agree, equality of `Diagram` values is plain
structural equality and no quotienting is needed.  The monoid's product
is `compose`, stacking, which walks each thread of the result once.

Thread vocabulary: a *cup* joins two top codes, a *cap* two bottom codes,
a *transversal* one of each; a transversal is *vertical* when its
positions agree and *falling* when its top position is left of its bottom
position.  The *span* of a thread is the distance between its positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .syntax import MAX_WORD_LENGTH
from .terms import DomainError


def is_planar_pairing(pairs, n: int) -> bool:
    """Whether the pairs make an n-diagram: `Diagram`'s one walk in code order."""
    try:
        Diagram(n, pairs)
    except DomainError:
        return False
    return True


@dataclass(frozen=True, init=False, repr=False)
class Diagram:
    """A planar pairing of the 2n boundary codes plus a circle count."""

    n: int
    mates: tuple[int, ...]
    circles: int

    def __init__(self, n: int, pairs, circles: int = 0) -> None:
        try:
            if not isinstance(pairs, (list, tuple)):
                pairs = [*pairs]  # a one-shot iterable is read once, then walked as a list
            ends = [*chain.from_iterable(pairs)]
            if not {2}.issuperset(map(len, pairs)):
                raise TypeError
            # type() rather than isinstance(): bool is an int subclass and is refused too
            integral = {type(n), type(circles), *map(type, ends)} == {int}
            if not integral:
                hash(tuple(ends))  # an unhashable code is refused as no code at all
        except (TypeError, ValueError):  # an item that is not two hashable codes
            raise DomainError("pairs must be pairs of integer codes") from None
        if not integral:
            raise DomainError("diagram size, circle count and codes must be integers")
        if n < 1:
            raise DomainError(f"diagram size must be >= 1, got {n}")
        if circles < 0:
            raise DomainError(f"circle count must be >= 0, got {circles}")
        # n pairs over 2n distinct nonzero codes in -n..n cover each code once; the range
        # is checked before any slot is indexed, since a code past n aliases a bottom slot
        cover = f"pairs must match each of the codes -{n}..-1, 1..{n} exactly once"
        if len(ends) != 2 * n or 0 in ends or min(ends) < -n or max(ends) > n:
            raise DomainError(cover)
        mates = [0] * (2 * n + 1)
        for a, b in pairs:
            mates[a], mates[b] = b, a
        if mates.count(0) != 1:  # a code given twice leaves another code's slot empty
            raise DomainError(cover)
        _build(n, mates, circles, self)

    def __post_init__(self) -> None:
        """The one bracket walk in code order; a closing code's partner must point back to it."""
        n, mates = self.n, self.mates
        stack: list = [None]  # a floor no partner equals: closing with nothing open is refused
        for code in chain(range(-n, 0), range(1, n + 1)):
            mate = mates[code]
            if mate > code:
                stack.append(code)
            elif stack.pop() != mate or mates[mate] != code:
                raise DomainError("pairing has crossing threads")
        if len(stack) > 1:
            raise DomainError("partner map is not a pairing")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The threads as (code, partner) pairs, smaller code first, in code order."""
        return tuple((c, m) for c, m in _threads(self.n, self.mates) if c < m)

    def __repr__(self) -> str:
        return f"Diagram(n={self.n!r}, pairs={self.pairs!r}, circles={self.circles!r})"


def _build(n: int, mates, circles: int, d: Diagram | None = None) -> Diagram:
    """The one construction step: store the flat partner map and walk it once."""
    d = object.__new__(Diagram) if d is None else d
    d.__dict__.update(n=n, mates=tuple(mates), circles=circles)  # frozen: set past __setattr__
    d.__post_init__()
    return d


def compose(bottom: Diagram, top: Diagram) -> Diagram:
    """Stack `top` above `bottom`; interface point m is code -m of `top` and m of `bottom`.

    Each thread of the result is one walk from a free end not yet reached
    (top codes of `top`, then bottom codes of `bottom`) through the
    interface to another free end.  Interface points that no walk crosses
    lie on closed loops, each followed once and counted as a circle: O(n)
    however many loops there are.
    """
    if bottom.n != top.n:
        raise DomainError(f"size mismatch: {bottom.n} vs {top.n}")
    n = bottom.n
    up, low = top.mates, bottom.mates
    crossed = bytearray(n + 1)  # interface points some walk has passed
    mates = [0] * (2 * n + 1)   # the result's: a filled slot is a free end some walk reached
    for start in chain(range(1, n + 1), range(-1, -n - 1, -1)):
        if mates[start]:
            continue
        code, in_top = start, start > 0
        # walk on until a free end: a top code of `top` or a bottom code of `bottom`
        while ((code := (up if in_top else low)[code]) > 0) != in_top:
            crossed[abs(code)] = 1
            code, in_top = -code, not in_top
        mates[start], mates[code] = code, start

    loops = 0
    for start in range(1, n + 1):
        if crossed[start]:
            continue
        loops += 1
        m = start
        while not crossed[m]:
            j = -up[-m]  # cap of `top` joins interface m to interface j
            crossed[m] = crossed[j] = 1
            m = low[j]   # cup of `bottom` continues from j
    return _build(n, mates, bottom.circles + top.circles + loops)


def span(d: Diagram) -> int:
    """Sum over threads of the distance between their endpoint positions."""
    return sum(abs(abs(c) - abs(m)) for c, m in _threads(d.n, d.mates)) // 2  # each thread twice


def _threads(n: int, mates):
    """(code, partner) items of a partner map: a flat one's in code order, a dict's entries."""
    if isinstance(mates, dict):
        return mates.items()
    return chain(zip(range(-n, 0), mates[n + 1:]), zip(range(1, n + 1), mates[1:n + 1]))


def slope_points(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending top and bottom slope sequences (T, B).

    A top code +i is a slope point when its partner lies strictly to its
    right; a bottom code -j contributes j-1 when its partner lies strictly
    to its left.  Reading T as lower indices and B as upper indices
    recovers the Jones normal form of the diagram.
    """
    return slope_points_of(d.n, d.mates)


def slope_points_of(n: int, mates) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`slope_points` of a flat partner map, or of a dict that may omit vertical threads."""
    top, bottom = [], []
    for c, m in _threads(n, mates):
        if 0 < c < abs(m):
            top.append(c)
        elif abs(m) < -c:
            bottom.append(-c - 1)
    top.sort()
    bottom.sort()
    return tuple(top), tuple(bottom)


def to_json_dict(d: Diagram) -> dict:
    """Stable interchange form: pairs sorted by min code, min first, read off `mates`."""
    pairs = [[c, m] for c, m in _threads(d.n, d.mates) if c < m]
    return {"n": d.n, "pairs": pairs, "circles": d.circles}


def from_json_dict(obj) -> Diagram:
    """Inverse of to_json_dict; the constructor refuses non-integer values.

    A circle count over MAX_WORD_LENGTH is refused: a normal-form term
    spells each circle out.  No diagram of a parsed word has that many,
    since each factor closes at most one circle.
    """
    if not isinstance(obj, dict):
        raise DomainError("diagram JSON must be an object")
    missing = {"n", "pairs", "circles"} - obj.keys()
    if missing:
        raise DomainError(f"diagram JSON lacks keys: {sorted(missing)}")
    pairs = obj["pairs"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs):
        raise DomainError("diagram JSON: pairs must be a list of code pairs")
    circles = obj["circles"]
    if isinstance(circles, int) and circles > MAX_WORD_LENGTH:
        raise DomainError(f"diagram JSON: more than {MAX_WORD_LENGTH} circles")
    return Diagram(obj["n"], pairs, circles)
