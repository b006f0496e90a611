"""Enumeration of small planar pairings, terms and normal forms.

Circle-free planar diagrams, short terms and small normal forms all come
from direct recursion and stream as they are generated.  Orders are
fixed so that golden expectations stay stable: pairings come out
lexicographically on their canonical pair lists, normal forms by
(circles, blocks), and terms by length and then alphabetically with
h^1 < ... < h^{n-1} < c.

Each enumeration knows its output size before it starts: sum_{k<=L} n^k
words of length at most L, (C+1)·Catalan(n) normal forms with at most C
circles, Catalan(n) pairings.  A size over MAX_ENUMERATION is refused
with DomainError at the call, counted only as far as the limit.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

# is_planar_pairing is unused here, but perfbench/tracing.py patches this name.
from .diagrams import Diagram, _build, is_planar_pairing  # noqa: F401
from .rewrite import _pack
from .terms import CIRCLE, Block, DomainError, JonesNF, Term, _check_int

OPEN, CLOSE = "(", ")"
MAX_ENUMERATION = 10**5  # most objects one enumeration or count may produce


def _check_count(count: int, what: str) -> None:
    if count > MAX_ENUMERATION:
        raise DomainError(f"more than {MAX_ENUMERATION} {what} to enumerate")


def _catalan(n: int) -> int:
    """Catalan(n), or the first Catalan number over MAX_ENUMERATION."""
    c = 1
    for k in range(n):
        if c > MAX_ENUMERATION:
            break
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _fills(mates: list[int], codes: tuple[int, ...], lo: int, hi: int) -> Iterator[None]:
    """Pair codes[lo:hi] in `mates` each planar way in turn, yielding after each.

    codes[lo] pairs with some codes[k] (k - lo odd); the pairs inside it and
    the pairs after it follow in code order.  Taking k ascending, then the
    inside's ways in order, then the outside's gives the pair lists sorted.
    """
    if lo == hi:
        yield
        return
    for k in range(lo + 1, hi, 2):
        a, b = codes[lo], codes[k]
        mates[a], mates[b] = b, a
        for _ in _fills(mates, codes, lo + 1, k):
            yield from _fills(mates, codes, k + 1, hi)


class Pairings:
    """The circle-free planar diagrams on n strands, built as they are iterated.

    Sized without building any (len is Catalan(n)) and iterable again; each
    iteration streams the diagrams sorted on their canonical pair lists,
    holding O(n) generator frames.
    """

    def __init__(self, n: int, count: int) -> None:
        self.n, self._count = n, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Diagram]:
        n = self.n
        mates, codes = [0] * (2 * n + 1), (*range(-n, 0), *range(1, n + 1))
        return (_build(n, mates, 0) for _ in _fills(mates, codes, 0, 2 * n))


def count_pairings(n: int) -> int:
    """Number of circle-free planar diagrams on n strands: Catalan(n).

    The size and the count are checked at the call; no diagram is built.
    """
    _check_int(n, "diagram size", 1)
    count = _catalan(n)
    _check_count(count, "pairings")
    return count


def enumerate_pairings(n: int) -> Pairings:
    """All circle-free planar diagrams on n strands (Catalan many), streamed."""
    return Pairings(n, count_pairings(n))


def pairing_to_parenword(d: Diagram) -> str:
    """Read the pairing as a balanced bracket word in code order."""
    if d.circles != 0:
        raise DomainError("parenthetical words encode circle-free diagrams only")
    mates = d.mates
    return "".join(
        OPEN if mates[code] > code else CLOSE
        for code in (*range(-d.n, 0), *range(1, d.n + 1))
    )


def parenword_to_pairing(word: str, n: int) -> Diagram:
    """Inverse of pairing_to_parenword; the word must balance with 2n symbols."""
    _check_int(n, "diagram size", 1)
    if not isinstance(word, str):
        raise DomainError(f"parenthetical word must be a string, got {word!r}")
    if len(word) != 2 * n:
        raise DomainError(f"expected {2 * n} symbols, got {len(word)}")
    codes = (*range(-n, 0), *range(1, n + 1))
    stack: list[int] = []
    mates = [0] * (2 * n + 1)
    for code, symbol in zip(codes, word):
        if symbol == OPEN:
            stack.append(code)
        elif symbol == CLOSE:
            if not stack:
                raise DomainError("unbalanced parenthetical word")
            mates[code] = opener = stack.pop()
            mates[opener] = code
        else:
            raise DomainError(f"not a parenthesis: {symbol!r}")
    if stack:
        raise DomainError("unbalanced parenthetical word")
    return _build(n, mates, 0)


def enumerate_terms(n: int, max_len: int) -> Iterator[Term]:
    """Stream all words over the diapsides and the circle, shortest first.

    The arguments and the output size are checked at the call, before the
    stream starts.
    """
    _check_int(n, "monoid size", 2)
    _check_int(max_len, "term length bound", 0)
    count = words = 1
    for _ in range(max_len):
        words *= n
        count += words
        _check_count(count, "terms")
    # only the empty word when max_len == 0, whatever n is
    alphabet = [Block(i, i) for i in range(1, n)] + [CIRCLE] if max_len else []
    return (Term(n, word) for length in range(max_len + 1)
            for word in product(alphabet, repeat=length))


def _block_sequences(n: int) -> Iterator[tuple[Block, ...]]:
    """Ascending block lists of K_n, in sorted order.

    A pre-order walk that visits children in (b, a) order: a list comes
    before its extensions, and extensions by a smaller last block first.
    """

    def extend(seq: tuple[Block, ...], last_b: int, last_a: int) -> Iterator[tuple[Block, ...]]:
        yield seq
        for b in range(last_b + 1, n):
            for a in range(last_a + 1, b + 1):
                yield from extend(seq + (Block(b, a),), b, a)

    return extend((), 0, 0)


def enumerate_normal_forms(n: int, max_circles: int) -> Iterator[JonesNF]:
    """Stream all Jones normal forms with at most the given number of circles.

    The arguments and the output size are checked at the call, before the
    stream starts.
    """
    _check_int(n, "monoid size", 2)
    _check_int(max_circles, "circle bound", 0)
    _check_count((max_circles + 1) * _catalan(n), "normal forms")
    return (_pack(n, circles, blocks, "enumerated word")
            for circles in range(max_circles + 1)
            for blocks in _block_sequences(n))
