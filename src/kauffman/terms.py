"""Terms of Kauffman monoids in the block formulation.

The monoid K_n (n >= 2) is generated by the diapsides h^1 ... h^{n-1} and
the circle c.  Internally every term is a flat word over *blocks* h^[b,a]
with n-1 >= b >= a >= 1, where h^[b,a] stands for the descending product
h^b h^{b-1} ... h^a of diapsides; a diapsis is the singular block h^[i,i].
The unit is the empty word: associativity and the unit laws make
parentheses and explicit unit symbols redundant, so neither is ever
represented.

A block is its pair (upper, lower) = (b, a): `Block` is a tuple.
Canonical words c^l h^[b_1,a_1] ... h^[b_k,a_k] with a_1 < ... < a_k and
b_1 < ... < b_k are Jones normal forms; `JonesNF` holds the circle count
and the word's blocks, checked in one pass, and `rewrite._pack` builds
every normal form the library computes.  `Measure` is the lexicographic
complexity measure that the rewrite engine drives to a minimum.  The
parser and `nf_to_term` build their terms by `_parsed_term`, without a
second check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class DomainError(ValueError):
    """An index or size constraint of the monoid was violated."""


class _BlockText:
    """The canonical text of a block, "hi" for a diapsis and "h[b,a]" otherwise.

    Built on first use and kept in the block's __dict__, which shadows
    this non-data descriptor from then on; no lock, and no tuple field,
    so a block is built and compared as its (upper, lower) pair.
    """

    def __get__(self, block: Block | None, owner: type) -> str | _BlockText:
        if block is None:  # looked up on the class
            return self
        b, a = block
        text = block.__dict__["text"] = f"h{b}" if b == a else f"h[{b},{a}]"
        return text


class Block(NamedTuple("Block", [("upper", int), ("lower", int)])):
    """The block generator h^[upper,lower], a diapsis when upper == lower: the
    pair (upper, lower) itself, with a __dict__ that caches its `text`."""

    text = _BlockText()


@dataclass(frozen=True)
class Circle:
    """The circle generator c."""

    text = "c"


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


def _check_int(value: int, what: str, low: int) -> None:
    """Refuse, with DomainError, a `value` that is not an int of at least `low`."""
    # type() rather than isinstance(): bool is an int subclass and is refused too
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")


def make_block(n: int, b: int, a: int) -> Block:
    """Return the block h^[b,a] of K_n, checking 1 <= a <= b <= n-1."""
    _check_int(n, "monoid size", 2)
    _check_block(n, b, a)
    return Block(b, a)


@dataclass(frozen=True)
class Term:
    """A flat word over blocks and circles in K_n; the empty word is the unit."""

    n: int
    word: tuple[Generator, ...] = ()

    def __post_init__(self) -> None:
        _check_int(self.n, "monoid size", 2)
        try:
            object.__setattr__(self, "word", tuple(self.word))
        except TypeError:
            raise DomainError(f"word must be iterable, got {self.word!r}") from None
        # each distinct generator object once: parsed words share their blocks
        for g in dict(zip(map(id, self.word), self.word)).values():
            if isinstance(g, Block):
                _check_block(self.n, g.upper, g.lower)
            elif not isinstance(g, Circle):
                raise DomainError(f"not a generator: {g!r}")


def _parsed_term(n: int, word: tuple[Generator, ...]) -> Term:
    """The Term of K_n over `word`, without `Term`'s walk over the word.

    Precondition: n is an int >= 2, and `word` is a tuple whose every
    generator is CIRCLE or a Block checked for K_n, as `parse` builds
    them and as a `JonesNF`'s blocks are (`nf_to_term`).
    """
    t = object.__new__(Term)
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "word", word)
    return t


@dataclass(frozen=True)
class JonesNF:
    """Packed Jones normal form: circle power plus ascending block list.

    Invariants: blocks are `Block`s (plain pairs given become `Block`s) with
    lower <= upper, and both indices increase strictly along the list.
    circles == 0 with no blocks encodes the unit.
    """

    n: int
    circles: int = 0
    blocks: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        _check_int(n := self.n, "monoid size", 2)
        _check_int(self.circles, "circle count", 0)
        try:
            blocks = list(self.blocks)
        except TypeError:
            raise DomainError(f"blocks must be iterable, got {self.blocks!r}") from None
        prev_b = prev_a = 0
        for k, p in enumerate(blocks):  # one pass: the first fault in list order is reported
            if not isinstance(p, Block):
                if not isinstance(p, (tuple, list)) or len(p) != 2:
                    raise DomainError("blocks must be (upper, lower) pairs")
                p = blocks[k] = tuple.__new__(Block, p)
            b, a = p
            if not (type(b) is int and type(a) is int and prev_a < a <= b < n and prev_b < b):
                _check_block(n, b, a)
                if a <= prev_a:
                    raise DomainError(f"lower indices must increase strictly: {prev_a} then {a}")
                raise DomainError(f"upper indices must increase strictly: {prev_b} then {b}")
            prev_b, prev_a = b, a
        object.__setattr__(self, "blocks", tuple(blocks))


class Measure(NamedTuple):
    """Termination measure (n1, n2), compared lexicographically."""

    n1: int
    n2: int


def measure_word(word: tuple[Generator, ...]) -> Measure:
    """Complexity measure of a word, from the definition.

    n1 sums block weights, upper - lower + 2 each.  n2 sums, over every
    block, the number of later blocks whose upper or lower index it
    dominates (>=), plus, over every circle, the number of blocks to its
    left.  Flat words carry no explicit unit, so the unit contributes
    nothing.  One pass counts it: each block is weighed and compared with
    the blocks before it as it is read.
    """
    n1 = n2 = 0
    pairs: list[tuple[int, int]] = []  # (upper, lower) of the blocks read so far
    for g in word:
        if isinstance(g, Block):
            b, a = g
            n1 += b - a + 2
            for upper, lower in pairs:
                if upper >= b or lower >= a:
                    n2 += 1
            pairs.append((b, a))
        else:
            n2 += len(pairs)
    return Measure(n1, n2)


def nf_to_term(f: JonesNF) -> Term:
    """The word c^circles followed by the blocks, in order."""
    return _parsed_term(f.n, (CIRCLE,) * f.circles + f.blocks)
