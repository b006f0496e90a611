"""Terms of Kauffman monoids in the block formulation.

The monoid K_n (n >= 2) is generated by the diapsides h^1 ... h^{n-1} and
the circle c.  Internally every term is a flat word over *blocks* h^[b,a]
with n-1 >= b >= a >= 1, where h^[b,a] stands for the descending product
h^b h^{b-1} ... h^a of diapsides; a diapsis is the singular block h^[i,i].
The unit is the empty word: associativity and the unit laws make
parentheses and explicit unit symbols redundant, so neither is ever
represented.

Canonical words c^l h^[b_1,a_1] ... h^[b_k,a_k] with a_1 < ... < a_k and
b_1 < ... < b_k are Jones normal forms; `JonesNF` holds them in packed
shape, and `Measure` is the lexicographic complexity measure that the
rewrite engine drives to a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class DomainError(ValueError):
    """An index or size constraint of the monoid was violated."""


@dataclass(frozen=True)
class Block:
    """The block generator h^[upper,lower]; a diapsis when upper == lower."""

    upper: int
    lower: int


@dataclass(frozen=True)
class Circle:
    """The circle generator c."""


CIRCLE = Circle()

Generator = Block | Circle


def _check_block(n: int, b: int, a: int) -> None:
    # type() rather than isinstance(): bool is an int subclass and is refused too
    if type(b) is not int or type(a) is not int:
        raise DomainError(f"block indices must be integers, got [{b!r},{a!r}]")
    if a < 1:
        raise DomainError(f"lower block index must be >= 1, got {a}")
    if b > n - 1:
        raise DomainError(f"upper block index must be <= n-1 = {n - 1}, got {b}")
    if a > b:
        raise DomainError(f"lower block index {a} exceeds upper index {b}")


def _check_size(n: int) -> None:
    if type(n) is not int:
        raise DomainError(f"monoid size must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"monoid size must be >= 2, got {n}")


def make_block(n: int, b: int, a: int) -> Block:
    """Return the block h^[b,a] of K_n, checking 1 <= a <= b <= n-1."""
    _check_size(n)
    _check_block(n, b, a)
    return Block(b, a)


def block_weight(g: Block) -> int:
    """Weight of a block: upper - lower + 2 (a diapsis weighs 2)."""
    return g.upper - g.lower + 2


@dataclass(frozen=True)
class Term:
    """A flat word over blocks and circles in K_n; the empty word is the unit."""

    n: int
    word: tuple[Generator, ...] = ()

    def __post_init__(self) -> None:
        _check_size(self.n)
        object.__setattr__(self, "word", tuple(self.word))
        for g in self.word:
            if isinstance(g, Block):
                _check_block(self.n, g.upper, g.lower)
            elif not isinstance(g, Circle):
                raise TypeError(f"not a generator: {g!r}")


@dataclass(frozen=True)
class JonesNF:
    """Packed Jones normal form: circle power plus ascending block list.

    Invariants: blocks are (upper, lower) pairs with lower <= upper, and both
    the lower and the upper indices are strictly increasing along the list.
    circles == 0 with no blocks encodes the unit.
    """

    n: int
    circles: int = 0
    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_size(self.n)
        if type(self.circles) is not int:
            raise DomainError(f"circle count must be an integer, got {self.circles!r}")
        if self.circles < 0:
            raise DomainError(f"circle count must be >= 0, got {self.circles}")
        object.__setattr__(self, "blocks", tuple(tuple(p) for p in self.blocks))
        prev_b = prev_a = 0
        for b, a in self.blocks:
            _check_block(self.n, b, a)
            if a <= prev_a:
                raise DomainError(f"lower indices must increase strictly: {prev_a} then {a}")
            if b <= prev_b:
                raise DomainError(f"upper indices must increase strictly: {prev_b} then {b}")
            prev_b, prev_a = b, a


class Measure(NamedTuple):
    """Termination measure (n1, n2), compared lexicographically."""

    n1: int
    n2: int


def measure_word(word: tuple[Generator, ...]) -> Measure:
    """Complexity measure of a word, from the definition.

    n1 sums block weights.  n2 sums, over every block, the number of later
    blocks whose upper or lower index it dominates (>=), plus, over every
    circle, the number of blocks to its left.  Flat words carry no explicit
    unit, so the unit contributes nothing.
    """
    blocks = [g for g in word if isinstance(g, Block)]
    n1 = sum(block_weight(g) for g in blocks)
    n2 = 0
    for p, g in enumerate(blocks):
        for h in blocks[p + 1:]:
            if g.upper >= h.upper or g.lower >= h.lower:
                n2 += 1
    seen = 0
    for g in word:
        if isinstance(g, Block):
            seen += 1
        else:
            n2 += seen
    return Measure(n1, n2)


def nf_to_term(f: JonesNF) -> Term:
    """The word c^circles followed by the blocks, in order."""
    word = (CIRCLE,) * f.circles + tuple(Block(b, a) for b, a in f.blocks)
    return Term(f.n, word)
