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
structural equality and no quotienting is needed.

Thread vocabulary: a *cup* joins two top codes, a *cap* two bottom codes,
a *transversal* one of each; a transversal is *vertical* when its
positions agree and *falling* when its top position is left of its bottom
position.  The *span* of a thread is the distance between its positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

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
        # type() rather than isinstance(): bool is an int subclass and is refused too
        if {type(n), type(self.circles), *map(type, chain.from_iterable(self.pairs))} != {int}:
            raise DomainError("diagram size, circle count and codes must be integers")
        if n < 1:
            raise DomainError(f"diagram size must be >= 1, got {n}")
        if self.circles < 0:
            raise DomainError(f"circle count must be >= 0, got {self.circles}")
        partner: dict[int, int] = {}
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
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


def identity(n: int) -> Diagram:
    """All threads vertical, no circles."""
    return Diagram(n, tuple((-i, i) for i in range(1, n + 1)))


def diapsis_diagram(n: int, i: int) -> Diagram:
    """A cup at positions i, i+1 over the matching cap; verticals elsewhere."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"diapsis index must be in 1..{n - 1}, got {i}")
    pairs = [(i, i + 1), (-(i + 1), -i)]
    pairs.extend((-m, m) for m in range(1, n + 1) if m not in (i, i + 1))
    return Diagram(n, tuple(pairs))


def compose(bottom: Diagram, top: Diagram) -> Diagram:
    """Stack `top` above `bottom` and glue them along n interface nodes.

    Each thread of the result is traced as an alternating path through the
    interface; paths with two free ends become threads, and closed loops
    confined to the interface each contribute one circle.  The result keeps
    the top codes of `top` and the bottom codes of `bottom`.
    """
    if bottom.n != top.n:
        raise DomainError(f"size mismatch: {bottom.n} vs {top.n}")
    n = bottom.n
    up = top.involution
    low = bottom.involution

    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    crossed: set[int] = set()  # interface nodes used by open paths

    def follow(code: int, in_top: bool) -> int:
        while True:
            if in_top:
                code = up[code]
                if code > 0:
                    return code
                crossed.add(-code)
                code, in_top = -code, False
            else:
                code = low[code]
                if code < 0:
                    return code
                crossed.add(code)
                code, in_top = -code, True

    for start, in_top in [(i, True) for i in range(1, n + 1)] + \
                         [(-i, False) for i in range(1, n + 1)]:
        if start in seen:
            continue
        end = follow(start, in_top)
        seen.add(start)
        seen.add(end)
        pairs.append((start, end))

    loops = 0
    remaining = set(range(1, n + 1)) - crossed
    while remaining:
        start = m = min(remaining)
        while True:
            j = -up[-m]  # cap of `top` joins interface m to interface j
            k = low[j]   # cup of `bottom` continues from j to k
            remaining.discard(m)
            remaining.discard(j)
            m = k
            if m == start:
                break
        loops += 1

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
    """Inverse of to_json_dict; the constructor refuses non-integer values."""
    if not isinstance(obj, dict):
        raise DomainError("diagram JSON must be an object")
    missing = {"n", "pairs", "circles"} - obj.keys()
    if missing:
        raise DomainError(f"diagram JSON lacks keys: {sorted(missing)}")
    pairs = obj["pairs"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs):
        raise DomainError("diagram JSON: pairs must be a list of code pairs")
    return Diagram(obj["n"], tuple(tuple(p) for p in pairs), obj["circles"])
