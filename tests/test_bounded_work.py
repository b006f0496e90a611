"""Bounded work at the admitted maxima, one row per command and input family.

Each row runs `kauffman.cli.main` in process on the largest input of its
family and must give its exit code and stdout within its time bound.  The
rows run in process because Linux refuses a single argv string of 128 KiB
or more, so the console script cannot receive the larger words; CI runs
the rows under that size through `kauffman` as well.
"""

import io
import time
from contextlib import redirect_stdout

import pytest

from kauffman import format_term, nf_by_diagram, nf_to_term, parse
from kauffman.cli import main

N = 8192
DESCENDING = " ".join(f"h{i}" for i in range(N - 1, 0, -2))  # h_{n-1} h_{n-3} ... h_1


def _descending_runs() -> str:
    """(h_{n-1} h_{n-3} ... h_1)^4, about 96 KB: n^2 / 2 hI swaps step by step."""
    return " ".join([DESCENDING] * 4)


def _mixed() -> str:
    """50 blocks h[n-1,1], then 4 descending runs: too wide for the diagram route."""
    return " ".join([f"h[{N - 1},1]"] * 50 + [DESCENDING] * 4)


def _nf_text(text: str) -> str:
    """The normal form's text, read off the diagram."""
    return format_term(nf_to_term(nf_by_diagram(parse(text, N)))) + "\n"


# (argv, expected exit code, expected stdout or a function of the argv giving it, seconds)
ROWS = [
    pytest.param(["eq", "--cross-check", "-n", str(N), _descending_runs(), "h1"],
                 1, "not-equal\n", 5, id="eq-cross-check-descending-runs"),
    pytest.param(["nf", "-n", str(N), _mixed()],
                 0, lambda argv: _nf_text(argv[-1]), 5, id="nf-mixed"),
]


@pytest.mark.parametrize("argv, code, expected, seconds", ROWS)
def test_row_finishes_within_its_bound(argv, code, expected, seconds):
    if callable(expected):
        expected = expected(argv)
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        got = main(argv)
    elapsed = time.perf_counter() - start
    assert (got, out.getvalue()) == (code, expected)
    assert elapsed < seconds, elapsed
