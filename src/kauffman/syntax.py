"""Concrete syntax for terms: parsing and canonical printing.

Grammar (factors separated by whitespace, with an optional '*' accepted
between factors):

    term   := factor*
    factor := "1" | "c" ("^" nat)? | "h" nat | "h[" nat "," nat "]"

"1" contributes the empty word, "c^k" is k circles, "hi" is the diapsis
h^i and "h[b,a]" the block with upper index b and lower index a.

A word longer than MAX_WORD_LENGTH factors, circle powers counted in
full, is refused with a ParseError before it is built, so a short text
such as "c^1000000000" allocates nothing of its power's size.
"""

from __future__ import annotations

import re

from .terms import CIRCLE, Circle, DomainError, Generator, Term, make_block

MAX_WORD_LENGTH = 10**6  # factors in a parsed word, after circle powers are unboxed


class ParseError(ValueError):
    """Malformed term syntax; `position` is a 0-based character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"offset {position}: {message}")
        self.position = position
        self.message = message


_TOKEN = re.compile(
    r"""
      (?P<sep>[\s*]+)
    | (?P<one>1(?!\d))
    | (?P<circle>c(?:\^(?P<power>\d+))?)
    | (?P<block>h\[\s*(?P<b>\d+)\s*,\s*(?P<a>\d+)\s*\])
    | (?P<diapsis>h(?P<i>\d+))
    """,
    re.VERBOSE,
)


def _nat(m: re.Match, group: str, bound: int) -> int | None:
    """The group's number, or None when it has more digits than `bound`.

    Deciding by the digit count keeps int() off long numbers, which the
    interpreter's digit limit may or may not let it convert.
    """
    digits = m.group(group).lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(bound)) else None


def parse(text: str, n: int) -> Term:
    """Parse a term of K_n; raises ParseError or DomainError."""
    if n < 2:
        raise DomainError(f"monoid size must be >= 2, got {n}")
    word: list[Generator] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup  # the outermost group of the alternative that matched
        if kind == "circle":
            power = m.group("power")
            k = 1 if power is None else _nat(m, "power", MAX_WORD_LENGTH)
            if k is None or len(word) + k > MAX_WORD_LENGTH:
                raise ParseError(pos if power is None else m.start("power"),
                                 f"word longer than {MAX_WORD_LENGTH} factors")
            word.extend([CIRCLE] * k)
        elif kind in ("block", "diapsis"):
            if len(word) == MAX_WORD_LENGTH:
                raise ParseError(pos, f"word longer than {MAX_WORD_LENGTH} factors")
            if kind == "block":
                b, a = _nat(m, "b", n - 1), _nat(m, "a", n - 1)
            else:
                b = a = _nat(m, "i", n - 1)
            if b is None or a is None:
                raise DomainError(f"offset {pos}: block index exceeds n-1 = {n - 1}")
            try:
                word.append(make_block(n, b, a))
            except DomainError as e:
                raise DomainError(f"offset {pos}: {e}") from None
        # "1" and separators contribute nothing
        pos = m.end()
    return Term(n, tuple(word))


def format_word(word: tuple[Generator, ...]) -> str:
    """Canonical rendering of a bare word (no size attached)."""
    if not word:
        return "1"
    parts: list[str] = []
    run = 0
    for g in word:
        if isinstance(g, Circle):
            run += 1
            continue
        if run:
            parts.append("c" if run == 1 else f"c^{run}")
            run = 0
        if g.upper == g.lower:
            parts.append(f"h{g.upper}")
        else:
            parts.append(f"h[{g.upper},{g.lower}]")
    if run:
        parts.append("c" if run == 1 else f"c^{run}")
    return " ".join(parts)


def format_term(t: Term) -> str:
    """Canonical rendering: "1" for the unit, maximal circle runs contracted,
    singular blocks printed as diapsides."""
    return format_word(t.word)
