"""Combinatorial n-diagrams: planar pairings with a circle count.

An n-diagram has n points on the top edge and n on the bottom edge of a
rectangle, joined pairwise by n non-crossing threads, plus some number of
closed circles.  Top point (i, a) is encoded as the code +i and bottom
point (i, 0) as -i, so a diagram is a perfect matching on
{-n..-1, 1..n} together with a circle count.  A matching is planar iff
the closed integer intervals spanned by its pairs are pairwise disjoint
or nested, equivalently iff the matching reads as a balanced bracket
sequence in code order -n .. -1, 1 .. n.  `Diagram` validates by that
one walk in code order over the code -> partner map, which it keeps as
`involution`; the walk also yields the pairs in canonical order (sorted,
min code first).

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

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .syntax import MAX_WORD_LENGTH
from .terms import DomainError


def is_planar_pairing(pairs, n: int) -> bool:
    """Whether the pairs make an n-diagram: `Diagram`'s one walk in code order."""
    try:
        Diagram(n, pairs)
    except DomainError:
        return False
    return True


@dataclass(frozen=True)
class Diagram:
    """A planar pairing of the 2n boundary codes plus a circle count."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    circles: int = 0
    involution: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        partner: dict[int, int] = {}
        try:
            for a, b in self.pairs:
                partner[a] = b
                partner[b] = a
        except (TypeError, ValueError):  # an item that is not two hashable codes
            raise DomainError("pairs must be pairs of integer codes") from None
        # type() rather than isinstance(): bool is an int subclass and is refused too
        if {type(n), type(self.circles), *map(type, partner)} != {int}:
            raise DomainError("diagram size, circle count and codes must be integers")
        if n < 1:
            raise DomainError(f"diagram size must be >= 1, got {n}")
        if self.circles < 0:
            raise DomainError(f"circle count must be >= 0, got {self.circles}")
        # n pairs over 2n distinct nonzero codes in -n..n cover each code once
        if (len(self.pairs) != n or len(partner) != 2 * n or 0 in partner
                or min(partner) < -n or max(partner) > n):
            raise DomainError(f"pairs must match each of the codes -{n}..-1, 1..{n} exactly once")
        stack: list[int] = []
        canon: list[tuple[int, int]] = []
        for code in chain(range(-n, 0), range(1, n + 1)):
            mate = partner[code]
            if mate > code:
                stack.append(code)
                canon.append((code, mate))
            elif stack.pop() != mate:  # mate was pushed: the stack is not empty
                raise DomainError("pairing has crossing threads")
        object.__setattr__(self, "pairs", tuple(canon))
        object.__setattr__(self, "involution", partner)


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
    up, low = top.involution, bottom.involution
    crossed = bytearray(n + 1)  # interface points some walk has passed
    reached: set[int] = set()   # free ends where a walk stopped
    pairs: list[tuple[int, int]] = []
    for start in chain(range(1, n + 1), range(-1, -n - 1, -1)):
        if start in reached:
            continue
        code, in_top = start, start > 0
        # walk on until a free end: a top code of `top` or a bottom code of `bottom`
        while ((code := (up if in_top else low)[code]) > 0) != in_top:
            crossed[abs(code)] = 1
            code, in_top = -code, not in_top
        reached.add(code)
        pairs.append((start, code))

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
    return Diagram(n, tuple(pairs), bottom.circles + top.circles + loops)


def span(d: Diagram) -> int:
    """Sum over threads of the distance between their endpoint positions."""
    return sum(abs(abs(a) - abs(b)) for a, b in d.pairs)


def slope_points(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending top and bottom slope sequences (T, B).

    A top code +i is a slope point when its partner lies strictly to its
    right; a bottom code -j contributes j-1 when its partner lies strictly
    to its left.  Reading T as lower indices and B as upper indices
    recovers the Jones normal form of the diagram.
    """
    return slope_points_of(d.involution.items())


def slope_points_of(mates: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`slope_points` of (code, partner) items, one per code.

    A vertical thread (-i, i) is never a slope point, so the items may
    leave out any of them.
    """
    top, bottom = [], []
    for c, m in mates:
        if 0 < c < abs(m):
            top.append(c)
        elif abs(m) < -c:
            bottom.append(-c - 1)
    top.sort()
    bottom.sort()
    return tuple(top), tuple(bottom)


def to_json_dict(d: Diagram) -> dict:
    """Stable interchange form: pairs sorted by min code, min first."""
    return {"n": d.n, "pairs": [list(p) for p in d.pairs], "circles": d.circles}


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
    return Diagram(obj["n"], tuple(tuple(p) for p in pairs), circles)
