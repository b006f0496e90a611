"""Properties of the outside-input paths: term text, diagram JSON on stdin, argv.

Each path either answers or refuses with a ParseError or DomainError (exit
2); nothing else escapes, and no drawing carries a non-finite number.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import DomainError, ParseError, Term, parse
from kauffman.cli import main

BIG = 10**9
# well-formed, malformed and non-ASCII tokens of the term syntax
TOKENS = ["1", "c", "c^2", "c^0", "h1", "h2", "h3", "h5", "h[2,1]", "h[3,1]", "h[1,2]",
          "h0", "h", "h[", "]", ",", "^", "*", "x", "-", "h99999999999", "c^99999999999",
          "h１", "h٣", "c^２"]
WORDS = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
TEXTS = st.text(max_size=20) | WORDS


@settings(max_examples=300)
@given(TEXTS, st.integers(-2, 12) | st.just(BIG))
def test_parse_returns_a_term_or_refuses(text, n):
    try:
        assert isinstance(parse(text, n), Term)
    except (ParseError, DomainError):
        pass


def run_main(argv, stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), \
            redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


CODES = st.integers(-4, 4) | st.just(BIG)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | CODES | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "pairs", "circles"]), inner, max_size=3),
    max_leaves=12)
DIAGRAM_LIKE = st.fixed_dictionaries({
    "n": CODES,
    "pairs": st.lists(st.lists(CODES, min_size=1, max_size=3), max_size=4),
    "circles": CODES,
})


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | DIAGRAM_LIKE, st.sampled_from(["slope", "peel"]))
def test_term_of_answers_or_refuses(value, method):
    code, _ = run_main(["term-of", "--method", method], json.dumps(value))
    assert code in (0, 2)


SIZES = st.integers(-3, 6).map(str)
UNITS = st.sampled_from(["nan", "inf", "0", "-1", "1e308", "3"])
JUNK = st.lists(st.sampled_from(["--trace", "--cross-check", "--labels", "--pairings",
                                 "--format", "svg", "-n", "2", "x"]), max_size=2)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["nf", "eq", "diagram", "render", "enum", "count"]))
    if command in ("nf", "eq", "diagram", "render"):
        argv = [command, "-n", draw(SIZES | st.just(str(BIG))), draw(WORDS)]
    elif command == "enum":
        listing = draw(st.sampled_from([["--pairings"], ["--terms", "3"], ["--nf", "2"],
                                        ["--terms", "-1"], ["--nf", "-1"]]))
        argv = [command, "-n", draw(SIZES), *listing]
    else:
        argv = [command, "-n", draw(st.integers(-3, 8).map(str)), "--pairings"]
    if command == "nf" and draw(st.booleans()):
        argv.append("--trace")
    if command == "eq":
        argv.append(draw(WORDS))
        if draw(st.booleans()):
            argv.append("--cross-check")
    if command == "render":
        argv += ["--format", draw(st.sampled_from(["svg", "ascii"])), "--unit", draw(UNITS)]
        if draw(st.booleans()):
            argv.append("--labels")
    return argv + draw(JUNK)


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_main_answers_or_refuses(argv):
    code, out = run_main(argv)
    assert code in (0, 1, 2), argv
    if argv[0] == "render":
        assert "inf" not in out and "nan" not in out, argv
