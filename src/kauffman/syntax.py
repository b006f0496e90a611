"""Concrete syntax for terms: parsing and canonical printing.

Grammar (factors separated by whitespace, with an optional '*' accepted
between factors):

    term   := factor*
    factor := "1" | "c" ("^" nat)? | "h" nat | "h[" nat "," nat "]"

"1" contributes the empty word, "c^k" is k circles, "hi" is the diapsis
h^i and "h[b,a]" the block with upper index b and lower index a.  A nat
is ASCII digits 0-9 only; other Unicode digits are a ParseError.

A word longer than MAX_WORD_LENGTH factors, circle powers counted in
full, is refused with a ParseError before it is built, so a short text
such as "c^1000000000" allocates nothing of its power's size.

Each factor, with the separators before it, is one regex match.  Each
distinct block factor is checked once per call: its text keys a dict of
the blocks already built, so a repeated factor costs one group lookup
and one dict lookup.
"""

from __future__ import annotations

import re

from .terms import CIRCLE, Block, DomainError, Generator, Term, _check_int, make_block

MAX_WORD_LENGTH = 10**6  # factors in a parsed word, after circle powers are unboxed


class ParseError(ValueError):
    """Malformed term syntax; `position` is a 0-based character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"offset {position}: {message}")
        self.position = position
        self.message = message


_TOKEN = re.compile(
    r"""
    [\s*]*
    (?: (?P<one>1(?![0-9]))
      | (?P<circle>c(?:\^(?P<power>[0-9]+))?)
      | (?P<block>h\[\s*(?P<b>[0-9]+)\s*,\s*(?P<a>[0-9]+)\s*\])
      | (?P<diapsis>h(?P<i>[0-9]+))
      | \Z
    )
    """,
    re.VERBOSE,
)
_SEPARATORS = re.compile(r"[\s*]*")
_CIRCLE_RUN = re.compile(r"c(?: c)+")


def _nat(digits: str, width: int) -> int | None:
    """The digits' number, or None when it has more than `width` digits.

    Deciding by the digit count keeps int() off long numbers, which the
    interpreter's digit limit may or may not let it convert.
    """
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= width else None


def parse(text: str, n: int) -> Term:
    """Parse a term of K_n; raises ParseError or DomainError."""
    _check_int(n, "monoid size", 2)
    if not isinstance(text, str):
        raise DomainError(f"term text must be a string, got {text!r}")
    index_width, power_width = len(str(n - 1)), len(str(MAX_WORD_LENGTH))
    blocks: dict[str, Block] = {}  # factor text -> checked block
    word: list[Generator] = []
    match, append, end = _TOKEN.match, word.append, len(text)
    pos = 0
    while pos < end:
        m = match(text, pos)  # separators, then one factor or the end
        if m is None:
            pos = _SEPARATORS.match(text, pos).end()
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup  # the outermost group of the alternative that matched
        if kind in ("block", "diapsis"):
            if len(word) == MAX_WORD_LENGTH:
                raise ParseError(m.start(kind), f"word longer than {MAX_WORD_LENGTH} factors")
            factor = m[kind]
            g = blocks.get(factor)
            if g is None:
                start = m.start(kind)
                digits = m.group("b", "a") if kind == "block" else (m["i"],) * 2
                b, a = _nat(digits[0], index_width), _nat(digits[1], index_width)
                if b is None or a is None:
                    raise DomainError(f"offset {start}: block index exceeds n-1 = {n - 1}")
                try:
                    g = blocks[factor] = make_block(n, b, a)
                except DomainError as e:
                    raise DomainError(f"offset {start}: {e}") from None
            append(g)
        elif kind == "circle":
            power = m["power"]
            k = 1 if power is None else _nat(power, power_width)
            if k is None or len(word) + k > MAX_WORD_LENGTH:
                raise ParseError(m.start("circle" if power is None else "power"),
                                 f"word longer than {MAX_WORD_LENGTH} factors")
            word.extend([CIRCLE] * k)
        # "1" and the end of the text contribute nothing
        pos = m.end()
    return Term(n, tuple(word))


def _circle_power(run: re.Match) -> str:
    return f"c^{(len(run[0]) + 1) // 2}"  # k circles are 2k - 1 characters


def format_word(word: tuple[Generator, ...]) -> str:
    """Canonical rendering of a bare word (no size attached).

    The generators' texts are joined, then each run of two or more
    circles is contracted to a power; a block's text never holds a "c",
    so "c c" occurs exactly where two circles are adjacent.
    """
    if not word:
        return "1"
    text = " ".join([g.text for g in word])
    return _CIRCLE_RUN.sub(_circle_power, text) if "c c" in text else text


def format_term(t: Term) -> str:
    """Canonical rendering: "1" for the unit, maximal circle runs contracted,
    singular blocks printed as diapsides."""
    return format_word(t.word)
