"""Enumeration of small planar pairings, terms and normal forms.

Circle-free planar diagrams are built from the balanced bracket words of
length 2n through `parenword_to_pairing`; short terms and small normal
forms come from direct recursion.  Orders are fixed so that golden
expectations stay stable: pairings come out lexicographically on their
canonical pair lists, normal forms sorted by (circles, blocks), and terms
stream by length and then alphabetically with h^1 < ... < h^{n-1} < c.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

# is_planar_pairing is unused here, but perfbench/tracing.py patches this name.
from .diagrams import Diagram, is_planar_pairing  # noqa: F401
from .terms import CIRCLE, Block, DomainError, JonesNF, Term

OPEN, CLOSE = "(", ")"


def _bracket_words(n: int) -> Iterator[str]:
    """All balanced bracket words with n opening and n closing symbols."""
    if n < 1:
        raise DomainError(f"diagram size must be >= 1, got {n}")

    def extend(prefix: str, opened: int, closed: int) -> Iterator[str]:
        if closed == n:
            yield prefix
            return
        if opened < n:
            yield from extend(prefix + OPEN, opened + 1, closed)
        if closed < opened:
            yield from extend(prefix + CLOSE, opened, closed + 1)

    return extend("", 0, 0)


def enumerate_pairings(n: int) -> list[Diagram]:
    """All circle-free planar diagrams on n strands (Catalan many)."""
    return sorted((parenword_to_pairing(w, n) for w in _bracket_words(n)),
                  key=lambda d: d.pairs)


def count_pairings(n: int) -> int:
    """Number of circle-free planar diagrams on n strands.

    Counts the balanced bracket words as they stream out, so no diagram is
    built and memory stays O(n) generator frames.
    """
    return sum(1 for _ in _bracket_words(n))


def pairing_to_parenword(d: Diagram) -> str:
    """Read the pairing as a balanced bracket word in code order."""
    if d.circles != 0:
        raise DomainError("parenthetical words encode circle-free diagrams only")
    inv = d.involution
    return "".join(
        OPEN if inv[code] > code else CLOSE
        for code in (*range(-d.n, 0), *range(1, d.n + 1))
    )


def parenword_to_pairing(word: str, n: int) -> Diagram:
    """Inverse of pairing_to_parenword; the word must balance with 2n symbols."""
    if len(word) != 2 * n:
        raise DomainError(f"expected {2 * n} symbols, got {len(word)}")
    codes = (*range(-n, 0), *range(1, n + 1))
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for code, symbol in zip(codes, word):
        if symbol == OPEN:
            stack.append(code)
        elif symbol == CLOSE:
            if not stack:
                raise DomainError("unbalanced parenthetical word")
            pairs.append((stack.pop(), code))
        else:
            raise DomainError(f"not a parenthesis: {symbol!r}")
    if stack:
        raise DomainError("unbalanced parenthetical word")
    return Diagram(n, tuple(pairs))


def enumerate_terms(n: int, max_len: int) -> Iterator[Term]:
    """Stream all words over the diapsides and the circle, shortest first.

    The arguments are checked at the call, before the stream starts.
    """
    if n < 2:
        raise DomainError(f"monoid size must be >= 2, got {n}")
    if max_len < 0:
        raise DomainError(f"term length bound must be >= 0, got {max_len}")
    alphabet = [Block(i, i) for i in range(1, n)] + [CIRCLE]
    return (Term(n, word) for length in range(max_len + 1)
            for word in product(alphabet, repeat=length))


def _block_sequences(n: int) -> list[tuple[tuple[int, int], ...]]:
    results: list[tuple[tuple[int, int], ...]] = []

    def extend(seq: tuple[tuple[int, int], ...], last_b: int, last_a: int) -> None:
        results.append(seq)
        for a in range(last_a + 1, n):
            for b in range(max(last_b + 1, a), n):
                extend(seq + ((b, a),), b, a)

    extend((), 0, 0)
    return results


def enumerate_normal_forms(n: int, max_circles: int) -> list[JonesNF]:
    """All Jones normal forms with at most the given number of circles."""
    if max_circles < 0:
        raise DomainError(f"circle bound must be >= 0, got {max_circles}")
    forms = [
        JonesNF(n, circles, blocks)
        for circles in range(max_circles + 1)
        for blocks in _block_sequences(n)
    ]
    forms.sort(key=lambda f: (f.circles, f.blocks))
    return forms
