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

`parse` tokenizes the text with `str.split()`, in slices of about
_SLICE characters cut at whitespace, so a long text is never held as
one list of tokens.  Each distinct token that is "c", or that _TOKEN
reads as one diapsis "hi" or block "h[b,a]" valid in K_n, is built and
checked once per call and kept in a dict, and the slice's tokens are
mapped through that dict: one C-level pass per factor, Python work per
distinct factor.  A slice with any other token ("1", a block with
spaces inside its brackets, a malformed or out-of-range factor) or one
that takes the word past MAX_WORD_LENGTH goes, from its start to the
end of the text, to `_scan`: the regex loop, one match per factor with
the separators before it, which takes over the dict so that no block
is built twice.  A slice that holds a "*" or a "^" (a circle power, as
in the canonical text of a word) goes there before it is split, so
such texts cost the fast path a substring search and nothing more.
`_scan` is the reference and the only place an error is raised, so
offsets and messages are its own.  The fast path rests on `str.split()`
separating on exactly the whitespace that `_scan` skips between
factors; the test suite checks that on every code point.
"""

from __future__ import annotations

import re

from .terms import (CIRCLE, Block, DomainError, Generator, Term, _check_int, _parsed_term,
                    make_block)

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
_SPACE = re.compile(r"\s")
_SLICE = 1 << 16  # characters per str.split(); each cut moves on to the next whitespace
_CIRCLE_RUN = re.compile(r"c(?: c)+")


def _nat(digits: str, width: int) -> int | None:
    """The digits' number, or None when it has more than `width` digits.

    Deciding by the digit count keeps int() off long numbers, which the
    interpreter's digit limit may or may not let it convert.
    """
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= width else None


def _block(m: re.Match, n: int, width: int) -> Block:
    """The block of K_n that a block or diapsis match of _TOKEN names.

    DomainError, without an offset, if the indices are out of range.
    """
    b, a = m.group("b", "a") if m.lastgroup == "block" else (m["i"],) * 2
    upper, lower = _nat(b, width), _nat(a, width)
    if upper is None or lower is None:
        raise DomainError(f"block index exceeds n-1 = {n - 1}")
    return make_block(n, upper, lower)


def _fast(token: str, n: int, width: int) -> Generator | None:
    """The generator of a token that is "c" or one block or diapsis of K_n, else None."""
    if token == "c":
        return CIRCLE
    m = _TOKEN.fullmatch(token)  # a token holds no whitespace and no "*"
    if m is None or m.lastgroup not in ("block", "diapsis"):
        return None
    try:
        return _block(m, n, width)
    except DomainError:
        return None


def parse(text: str, n: int) -> Term:
    """Parse a term of K_n; raises ParseError or DomainError."""
    _check_int(n, "monoid size", 2)
    if not isinstance(text, str):
        raise DomainError(f"term text must be a string, got {text!r}")
    width = len(str(n - 1))
    memo: dict[str, Generator] = {}  # token -> its generator, for the tokens `_fast` built
    word: list[Generator] = []
    pos, end = 0, len(text)
    while pos < end:
        cut = end
        if end - pos > _SLICE:
            space = _SPACE.search(text, pos + _SLICE)
            if space is not None:
                cut = space.start()
        chunk = text[pos:cut]
        if "*" in chunk or "^" in chunk:  # refused before any split or build
            return _scan(text, n, pos, word, memo)
        tokens = chunk.split()
        for token in set(tokens).difference(memo):  # each distinct token once per call
            g = _fast(token, n, width)
            if g is None:
                return _scan(text, n, pos, word, memo)
            memo[token] = g
        if len(word) + len(tokens) > MAX_WORD_LENGTH:
            return _scan(text, n, pos, word, memo)
        word.extend(map(memo.__getitem__, tokens))
        pos = cut
    return _parsed_term(n, tuple(word))


def _scan(text: str, n: int, pos: int = 0, word: list[Generator] | None = None,
          blocks: dict[str, Generator] | None = None) -> Term:
    """Parse text[pos:] onto `word` by the regex loop: one match per factor.

    The reference for `parse`, and where every error is raised.  n must
    be an int >= 2, as `parse` checks.  `pos` must lie between factors,
    as whitespace does.  `blocks` maps factor texts to the blocks already
    built for them; `parse` hands over its token dict, whose keys other
    than "c" are such factor texts.
    """
    index_width, power_width = len(str(n - 1)), len(str(MAX_WORD_LENGTH))
    blocks = {} if blocks is None else blocks  # factor text -> checked block
    word = [] if word is None else word
    match, append, end = _TOKEN.match, word.append, len(text)
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
                try:
                    g = blocks[factor] = _block(m, n, index_width)
                except DomainError as e:
                    raise DomainError(f"offset {m.start(kind)}: {e}") from None
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
    return _parsed_term(n, tuple(word))


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
