import argparse
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kauffman

from kauffman import (
    Diagram,
    delta,
    enumerate_pairings,
    format_step,
    format_term,
    from_json_dict,
    nf_to_term,
    normalize,
    parse,
    render,
    rewrite,
    to_json_dict,
)
from kauffman import cli, selftest, semantics
from kauffman.cli import EXIT_CLOSED_PIPE, WRITE_CHUNK, main
from kauffman.draw import _split, render_ascii, render_pieces
from kauffman.selftest import random_term

from helpers import (naive_rightmost_steps, nested, side_by_side, staircase, terms_st,
                     workload_requests)

WORKED_EXAMPLE = "c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq_equal(capsys):
    code, out, _ = run(capsys, "eq", "-n", "2", "h1 h1", "c h1")
    assert (code, out.strip()) == (0, "equal")


def test_eq_not_equal(capsys):
    code, out, _ = run(capsys, "eq", "-n", "3", "h1", "h2")
    assert (code, out.strip()) == (1, "not-equal")


def test_eq_cross_check(capsys):
    code, out, _ = run(capsys, "eq", "-n", "3", "h2 h1 h2", "h2", "--cross-check")
    assert (code, out.strip()) == (0, "equal")


def test_nf_worked_example_is_a_fixed_point(capsys):
    code, out, _ = run(capsys, "nf", "-n", "11", WORKED_EXAMPLE)
    assert code == 0
    printed = out.strip()
    code, out, _ = run(capsys, "nf", "-n", "11", printed)
    assert code == 0
    assert out.strip() == printed
    assert parse(printed, 11) == parse(WORKED_EXAMPLE, 11)


def test_nf_without_trace_skips_trace_mode(capsys, monkeypatch):
    def refuse(term):
        raise AssertionError("nf without --trace ran trace-mode rewriting")

    monkeypatch.setattr("kauffman.cli.normalize", refuse)
    monkeypatch.setattr("kauffman.cli.rewrite_steps", refuse)
    code, out, _ = run(capsys, "nf", "-n", "2", "h1 h1")
    assert (code, out) == (0, "c h1\n")


def test_nf_and_eq_stay_sparse_in_n(capsys, monkeypatch):
    """A billion strands: neither route does work or keeps memory per strand."""
    n = "1000000000"
    wide = "h[999999999,1]"  # a billion diapsides expanded: rewritten whole

    def refuse(mate, i):
        raise AssertionError("a wide word took the diagram route")

    tracemalloc.start()
    try:
        results = [
            run(capsys, "nf", "-n", n, "h1 c h999999999"),
            run(capsys, "eq", "-n", n, "h1 h2 h1 c h999999999", "c h999999999 h1"),
            run(capsys, "eq", "-n", n, "h1 h2 h1", "h2 h1 h2", "--cross-check"),
            # the diagram side refuses an expanded length over MAX_WORD_LENGTH before stacking
            # any of it, and `delta` a size over it before its pass: the size message comes first
            run(capsys, "eq", "-n", n, wide, "h1", "--cross-check"),
            run(capsys, "diagram", "-n", n, wide),
        ]
        # each of these words opens with a wide block, which the route rule refuses
        # before stacking any of it: fail at once, not after a billion rewirings
        with monkeypatch.context() as patch:
            patch.setattr("kauffman.semantics._stack", refuse)
            results += [
                run(capsys, "nf", "-n", n, f"{wide} c {wide}"),
                run(capsys, "eq", "-n", n, f"{wide} {wide}", "h[999999997,1] h[999999999,3]"),
                run(capsys, "eq", "-n", n, f"{wide} {wide}", f"c {wide}"),
            ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(code, out) for code, out, _ in results] == [
        (0, "c h1 h999999999\n"), (0, "equal\n"), (1, "not-equal\n"), (2, ""), (2, ""),
        (0, "c h[999999997,1] h[999999999,3]\n"), (0, "equal\n"), (1, "not-equal\n")]
    assert [err for code, _, err in results if code == 2] == [
        "error: expanded word longer than 1000000 diapsides\n",
        "error: diagram size 1000000000 exceeds 1000000\n"]
    assert peak < 2_000_000, peak
    # 16 diapsides per block, within the route's width but over MAX_WORD_LENGTH in all:
    # a Jones normal form that the rewriting answers unchanged
    jones = " ".join(f"h[{k + 15},{k}]" for k in range(1, 70001))
    assert run(capsys, "nf", "-n", "200000", jones)[:2] == (0, jones + "\n")


def test_eq_cross_check_exits_3_when_the_routes_disagree(capsys, monkeypatch):
    monkeypatch.setattr("kauffman.semantics.normal_form",
                        lambda term: kauffman.JonesNF(term.n, 1))
    code, out, _ = run(capsys, "eq", "-n", "3", "h2 h1 h2", "h2")
    assert (code, out) == (0, "equal\n")
    code, out, err = run(capsys, "eq", "-n", "3", "h2 h1 h2", "h2", "--cross-check")
    assert (code, out) == (3, "")
    assert "disagree" in err


def test_nf_trace(capsys):
    code, out, _ = run(capsys, "nf", "-n", "2", "h1 h1", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["hcII@0: h1 h1 => c h1", "c h1"]


# A scramble of the worked example whose trace fires every circle rule.
WORKED_SCRAMBLE = "h3 h4 h4 c^2 h7 c^3 h2 h9 h8 h1 h10 h9"
WORKED_SCRAMBLE_TRACE = """\
hcII@1: h4 h4 => c h4
hcI@0: h3 c => c h3
hcI@2: h4 c => c h4
hcI@1: h3 c => c h3
hcI@3: h4 c => c h4
hcI@2: h3 c => c h3
hcI@5: h7 c => c h7
hcI@4: h4 c => c h4
hcI@3: h3 c => c h3
hcI@6: h7 c => c h7
hcI@5: h4 c => c h4
hcI@4: h3 c => c h3
hcI@7: h7 c => c h7
hcI@6: h4 c => c h4
hcI@5: h3 c => c h3
hI@8: h7 h2 => h2 h7
hI@7: h4 h2 => h2 h4
hII@6: h3 h2 => h[3,2]
hII@9: h9 h8 => h[9,8]
hI@9: h[9,8] h1 => h1 h[9,8]
hI@8: h7 h1 => h1 h7
hI@7: h4 h1 => h1 h4
hII@6: h[3,2] h1 => h[3,1]
hII@10: h10 h9 => h[10,9]
c^6 h[3,1] h4 h7 h[9,8] h[10,9]
"""


WORKED_SCRAMBLE_RIGHTMOST_TRACE = """\
hII@13: h10 h9 => h[10,9]
hI@11: h8 h1 => h1 h8
hI@10: h9 h1 => h1 h9
hII@11: h9 h8 => h[9,8]
hII@9: h2 h1 => h[2,1]
hcI@5: h7 c => c h7
hcI@6: h7 c => c h7
hcI@7: h7 c => c h7
hI@8: h7 h[2,1] => h[2,1] h7
hcI@2: h4 c => c h4
hcI@3: h4 c => c h4
hcI@4: h4 c => c h4
hcI@5: h4 c => c h4
hcI@6: h4 c => c h4
hI@7: h4 h[2,1] => h[2,1] h4
hcI@1: h4 c => c h4
hcI@2: h4 c => c h4
hcI@3: h4 c => c h4
hcI@4: h4 c => c h4
hcI@5: h4 c => c h4
hI@6: h4 h[2,1] => h[2,1] h4
hcII@7: h4 h4 => c h4
hcI@6: h[2,1] c => c h[2,1]
hcI@0: h3 c => c h3
hcI@1: h3 c => c h3
hcI@2: h3 c => c h3
hcI@3: h3 c => c h3
hcI@4: h3 c => c h3
hcI@5: h3 c => c h3
hII@6: h3 h[2,1] => h[3,1]
c^6 h[3,1] h4 h7 h[9,8] h[10,9]
"""


def test_rightmost_trace_of_the_worked_scramble():
    steps, final = naive_rightmost_steps(parse(WORKED_SCRAMBLE, 11))
    lines = [format_step(s) for s in steps] + [format_term(final)]
    assert "".join(line + "\n" for line in lines) == WORKED_SCRAMBLE_RIGHTMOST_TRACE


def test_nf_trace_worked_scramble_text(capsys):
    code, out, _ = run(capsys, "nf", "-n", "11", WORKED_SCRAMBLE, "--trace")
    assert (code, out) == (0, WORKED_SCRAMBLE_TRACE)
    code, out, _ = run(capsys, "nf", "-n", "11", WORKED_SCRAMBLE)
    assert (code, out) == (0, WORKED_SCRAMBLE_TRACE.splitlines()[-1] + "\n")


@pytest.mark.parametrize("text, n", [("h1 h1", 2), (WORKED_SCRAMBLE, 11),
                                     ("c h[3,1] h2 c^2 h[4,2] h1 h3", 5)])
def test_nf_trace_prints_every_step_then_the_normal_form(capsys, text, n):
    trace = normalize(parse(text, n))
    expected = "".join(format_step(s) + "\n" for s in trace.steps)
    expected += format_term(nf_to_term(trace.output)) + "\n"
    assert run(capsys, "nf", "-n", str(n), "--trace", text) == (0, expected, "")


def test_nf_trace_of_a_normal_form_prints_only_the_form(capsys):
    assert run(capsys, "nf", "-n", "3", "--trace", "h1") == (0, "h1\n", "")


def trailing_circles(k: int) -> str:
    """h1 … hk c^k: a normal form then k circles, each moved past all k blocks by hcI."""
    return " ".join(f"h{i}" for i in range(1, k + 1)) + f" c^{k}"


def test_nf_trace_streams_its_steps(monkeypatch):
    sink = LineCount()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["nf", "-n", "201", "--trace", trailing_circles(200)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (0, 200 * 200 + 1)
    assert peak < 2_000_000, peak


def test_nf_trace_exit_3_keeps_the_lines_of_the_steps_before_the_failure(capsys, monkeypatch):
    """A rule that breaks at the tenth step: the nine steps before it are on stdout."""
    rhs, calls = rewrite._rhs, []

    def breaks_at_the_tenth(x, y, tag):
        calls.append(tag)
        return [x, y] if len(calls) == 10 else rhs(x, y, tag)

    monkeypatch.setattr(rewrite, "_rhs", breaks_at_the_tenth)
    code, out, err = run(capsys, "nf", "-n", "11", "--trace", WORKED_SCRAMBLE)
    assert (code, out) == (3, "".join(WORKED_SCRAMBLE_TRACE.splitlines(keepends=True)[:9]))
    assert err.startswith("internal error: measure did not decrease for hcI at 6: ")


@pytest.mark.parametrize("failing_step", [WRITE_CHUNK, WRITE_CHUNK + 1, 2 * WRITE_CHUNK + 7])
def test_nf_trace_exit_3_keeps_every_chunk_before_the_failure(capsys, monkeypatch, failing_step):
    """Around and past the write chunk's size, stdout holds exactly the lines
    of the steps before the failing one."""
    code, full, _ = run(capsys, "nf", "-n", "41", "--trace", trailing_circles(40))
    assert code == 0 and full.count("\n") == 40 * 40 + 1
    rhs, calls = rewrite._rhs, []

    def breaks(x, y, tag):
        calls.append(tag)
        return [x, y] if len(calls) == failing_step else rhs(x, y, tag)

    monkeypatch.setattr(rewrite, "_rhs", breaks)
    code, out, err = run(capsys, "nf", "-n", "41", "--trace", trailing_circles(40))
    assert (code, out) == (3, "".join(full.splitlines(keepends=True)[:failing_step - 1]))
    assert err.startswith("internal error: measure did not decrease for hcI at ")


def test_nf_trace_exit_3_inside_a_circle_run_keeps_the_lines_before_the_failure(capsys,
                                                                             monkeypatch):
    """The circle crosses six blocks by hcI in one run; a rule that keeps
    the pair at the run's third step is refused at that step, with the two
    steps before it on stdout."""
    code, full, _ = run(capsys, "nf", "-n", "7", "--trace", "h1 h2 h3 h4 h5 h6 c")
    assert (code, full.splitlines()) == (
        0, [f"hcI@{p}: h{p + 1} c => c h{p + 1}" for p in range(5, -1, -1)] + ["c h1 h2 h3 h4 h5 h6"])
    rhs, calls = rewrite._rhs, []

    def breaks_at_the_third(x, y, tag):
        calls.append(tag)
        return [x, y] if len(calls) == 3 else rhs(x, y, tag)

    monkeypatch.setattr(rewrite, "_rhs", breaks_at_the_third)
    code, out, err = run(capsys, "nf", "-n", "7", "--trace", "h1 h2 h3 h4 h5 h6 c")
    assert (code, out) == (3, "".join(full.splitlines(keepends=True)[:2]))
    assert err == "internal error: measure did not decrease for hcI at 3: pair (2, 1) -> (2, 1)\n"


def _no_rewriting(word, trace=False):
    yield from ()
    return 0


@pytest.mark.parametrize("argv", [
    ("nf", "-n", "40", "h[39,1] h[39,1] h[39,1]"),  # wide blocks: decide_nf rewrites them
    ("eq", "--cross-check", "-n", "3", "h[2,1] h1", "h2"),
])
def test_a_word_the_kernel_leaves_unreduced_exits_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(rewrite, "_reduce", _no_rewriting)
    assert run(capsys, *argv) == (3, "", "internal error: reduced word is not a normal form: "
                                         "lower indices must increase strictly: 1 then 1\n")


@pytest.mark.parametrize("argv", [
    ("eq", "--cross-check", "-n", "3", "h1 h2 h1", "h1"),
    ("nf", "--trace", "-n", "3", "c h2 h1 h2 h1"),
])
def test_a_rule_tag_the_table_does_not_know_exits_3(capsys, monkeypatch, argv):
    classify = rewrite._classify

    def renames_hII(x, y):
        tag = classify(x, y)
        return "hX" if tag == "hII" else tag

    monkeypatch.setattr(rewrite, "_classify", renames_hII)
    assert run(capsys, *argv) == (3, "", "internal error: unknown rule tag 'hX'\n")
    # nf without --trace takes the diagram route, which fires no rule
    assert run(capsys, "nf", "-n", "3", "h1 h2 h1") == (0, "h1\n", "")


def test_a_slope_reading_that_is_not_a_normal_form_exits_3(capsys, monkeypatch):
    slope_points = semantics.slope_points
    monkeypatch.setattr(semantics, "slope_points", lambda d: slope_points(d)[::-1])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(to_json_dict(delta(parse("h[2,1]", 3))))))
    assert run(capsys, "term-of", "--method", "slope") == (
        3, "", "internal error: slope reading is not a normal form: "
               "lower block index 2 exceeds upper index 1\n")


@pytest.mark.parametrize("argv", [("enum", "-n", "9", "--pairings"),
                                  ("nf", "-n", "201", "--trace", trailing_circles(200)),
                                  ("render", "-n", "20000", "--labels", "h1")])
def test_a_closed_pipe_ends_quietly(argv):
    """The reader takes one line, or 4096 bytes of the SVG, whose one newline is its last
    byte, and closes the pipe: no traceback, exit 141."""
    src = str(Path(kauffman.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "kauffman.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    svg = argv[0] == "render"
    first = proc.stdout.read(4096) if svg else proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (EXIT_CLOSED_PIPE, b"")
    if svg:
        assert len(first) == 4096 and first.startswith(b"<svg") and b"\n" not in first
    else:
        assert first.endswith(b"\n")


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "-n", "3", "h1 h2")
    assert code == 0
    payload = json.loads(out)
    assert from_json_dict(payload) == delta(parse("h1 h2", 3))


def test_diagram_side_refuses_a_size_over_the_bound_without_allocating(capsys):
    tracemalloc.start()
    try:
        results = [run(capsys, command, "-n", n, "h1")
                   for command in ("diagram", "render") for n in ("1000001", "1000000000")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(code, out) for code, out, _ in results] == [(2, "")] * 4
    assert all("exceeds" in err for _, _, err in results)
    assert peak < 2_000_000, peak


def test_diagram_size_bound_admits_exactly_the_bound(capsys, monkeypatch):
    monkeypatch.setattr("kauffman.semantics.MAX_WORD_LENGTH", 10)
    code, out, _ = run(capsys, "diagram", "-n", "10", "h1")
    assert (code, json.loads(out)["n"]) == (0, 10)
    code, out, err = run(capsys, "diagram", "-n", "11", "h1")
    assert (code, out) == (2, "")
    assert "exceeds 10" in err


def _split_of_pairs(d):
    """Cups, caps and transversals as the drawing reads them, taken from `pairs`."""
    cups = [(lo, hi) for lo, hi in d.pairs if lo > 0]
    caps = [(-hi, -lo) for lo, hi in d.pairs if hi < 0]
    return cups, caps, [(hi, -lo) for lo, hi in d.pairs if lo < 0 < hi]


def test_outputs_index_the_partner_map_and_never_derive_pairs(capsys, monkeypatch):
    # the JSON and the drawings read `mates`; `pairs` is the callers' view of the same threads
    texts = [("h1", 3), ("c h2 h1 h3", 5), (WORKED_EXAMPLE, 11), ("c^3", 2)]
    diagrams = [delta(parse(text, n)) for text, n in texts] + list(enumerate_pairings(5))
    for d in diagrams:
        assert to_json_dict(d)["pairs"] == [list(p) for p in d.pairs]
        assert tuple(map(list, _split(d))) == _split_of_pairs(d)
    formats = [(f, labels) for f in ("svg", "ascii") for labels in (False, True)]
    argvs = [["diagram", "-n", str(n), text] for text, n in texts] + [
        ["render", "-n", str(n), text, "--format", f] + ["--labels"] * labels
        for text, n in texts for f, labels in formats]

    def outputs():
        library = [(to_json_dict(d), [render(d, f, show_labels=labels) for f, labels in formats])
                   for d in diagrams]
        return library, [run(capsys, *argv) for argv in argvs]

    expected = outputs()

    def refuse(d):
        raise AssertionError("an output derived Diagram.pairs")

    monkeypatch.setattr(Diagram, "pairs", property(refuse))
    assert outputs() == expected
    assert all(code == 0 for code, _, _ in expected[1])


def _term_of_both(capsys, monkeypatch, blob):
    """(code, stdout, stderr) of term-of --method slope and --method peel on one JSON."""
    results = []
    for method in ("slope", "peel"):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        results.append(run(capsys, "term-of", "--method", method))
    return results


def test_term_of_slope_and_peel_agree(capsys, monkeypatch):
    blob = json.dumps(to_json_dict(delta(parse(WORKED_EXAMPLE, 11))))
    slope, peeled = _term_of_both(capsys, monkeypatch, blob)
    assert slope == peeled
    assert slope[0] == 0
    assert parse(slope[1], 11) == parse(WORKED_EXAMPLE, 11)
    checked = 0
    for n in range(1, 7):
        for d in enumerate_pairings(n):
            for circles in (0, 2):
                blob = json.dumps(to_json_dict(Diagram(n, d.pairs, circles)))
                slope, peeled = _term_of_both(capsys, monkeypatch, blob)
                assert slope == peeled, blob
                assert slope[0] == (2 if n == 1 else 0)  # K_1 is not a monoid the package builds
                checked += 1
    assert checked == 2 * 196


def test_term_of_peel_does_no_rewriting(capsys, monkeypatch):
    def no_rewriting(word, trace=False):
        raise AssertionError("term-of --method peel rewrote a word")

    blobs = [json.dumps(to_json_dict(delta(parse(WORKED_EXAMPLE, 11)))),
             json.dumps(to_json_dict(Diagram(8, nested(8).pairs, 3))),
             json.dumps(to_json_dict(staircase(64)))]
    slopes = []
    for blob in blobs:
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        slopes.append(run(capsys, "term-of", "--method", "slope"))
    monkeypatch.setattr(rewrite, "_reduce", no_rewriting)
    for blob, slope in zip(blobs, slopes):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        assert run(capsys, "term-of", "--method", "peel") == slope
        assert slope[0] == 0


@pytest.mark.parametrize("build, n", [(staircase, 256), (staircase, 1200), (side_by_side, 4000)])
def test_term_of_peel_is_fast_on_large_spans(capsys, monkeypatch, build, n):
    # the n = 256 staircase took about 12 s when each peel step cost O(n), and
    # the n = 1200 one about 20 s when the peeled word was rewritten afterwards
    blob = json.dumps(to_json_dict(build(n)))
    outputs = []
    for method in ("slope", "peel"):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        start = time.perf_counter()
        code, out, _ = run(capsys, "term-of", "--method", method)
        assert (code, time.perf_counter() - start < 5.0) == (0, True)
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_term_of_peel_refuses_a_word_over_the_bound(capsys, monkeypatch):
    blob = json.dumps(to_json_dict(nested(2002)))  # span/2 = 1001² > MAX_WORD_LENGTH
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run(capsys, "term-of", "--method", "peel")
    assert (code, out) == (2, "")
    assert "peeled word longer than" in err


def test_term_of_rejects_non_integer_codes(capsys, monkeypatch):
    blob = '{"n":2,"pairs":[["-2","-1"],[1.9,2]],"circles":0}'
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run(capsys, "term-of")
    assert (code, out) == (2, "")
    assert "error" in err


def test_term_of_rejects_oversized_n(capsys, monkeypatch):
    blob = '{"n": 1000000000, "pairs": [[-1, 1]], "circles": 0}'
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run(capsys, "term-of")
    assert (code, out) == (2, "")
    assert "error" in err


def test_term_of_rejects_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "term-of")
    assert code == 2
    assert "error" in err


def test_term_of_reports_json_nested_too_deep_as_invalid(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
    code, out, err = run(capsys, "term-of")
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON on stdin: ")


@pytest.mark.parametrize("stdin, encoding", [
    (b'{"n": 2, "pairs": [], "circles": ' + b"9" * 5000 + b"}", "utf-8"),  # past the digit limit
    (b'{"n": 2, "pairs": [], "circles": 0}\xff', "utf-8:strict"),  # bytes that do not decode
], ids=["long-integer", "non-utf-8"])
def test_term_of_reports_undecodable_stdin_as_invalid_json(stdin, encoding):
    # neither is a JSONDecodeError, but both are ValueErrors; the message differs between
    # Python versions, so only its start is matched
    src = str(Path(kauffman.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kauffman.cli", "term-of"], input=stdin,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": encoding})
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
    assert proc.stderr.startswith(b"error: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("method", ["slope", "peel"])
def test_term_of_refuses_circles_over_the_bound_before_building_them(capsys, monkeypatch, method):
    def term_of(circles):
        blob = json.dumps({"n": 2, "pairs": [[-2, -1], [1, 2]], "circles": circles})
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        return run(capsys, "term-of", "--method", method)

    tracemalloc.start()
    try:
        results = [term_of(c) for c in (2**63, 10**30, 10**6 + 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(code, out) for code, out, _ in results] == [(2, "")] * 3
    assert all("more than 1000000 circles" in err for _, _, err in results)
    assert peak < 2_000_000, peak
    monkeypatch.setattr("kauffman.diagrams.MAX_WORD_LENGTH", 5)
    assert term_of(5)[:2] == (0, "c^5 h1\n")
    assert term_of(6)[:2] == (2, "")


def test_the_circle_bound_refuses_no_diagram_of_a_parsed_word():
    """Each factor closes at most one circle, so a word of at most
    MAX_WORD_LENGTH factors has a diagram within the circle bound."""
    rng = random.Random(4242)
    for _ in range(3000):
        t = random_term(rng, 12, 60)
        assert delta(t).circles <= len(t.word), t


def test_enum_terms(capsys):
    code, out, _ = run(capsys, "enum", "-n", "3", "--terms", "1")
    assert code == 0
    assert out.splitlines() == ["1", "h1", "h2", "c"]


def test_enum_terms_rejects_negative_length(capsys):
    code, out, err = run(capsys, "enum", "-n", "3", "--terms", "-5")
    assert (code, out) == (2, "")
    assert "error" in err


def test_enum_pairings_json_lines(capsys):
    code, out, _ = run(capsys, "enum", "-n", "3", "--pairings")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        assert json.loads(line)["n"] == 3


def test_enum_nf(capsys):
    code, out, _ = run(capsys, "enum", "-n", "2", "--nf", "1")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(["1", "h1", "c", "c h1"])


class LineCount(io.TextIOBase):
    """A stdout that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)


def test_enum_nf_streams(monkeypatch):
    sink = LineCount()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["enum", "-n", "10", "--nf", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (0, 16796)  # the Catalan number C_10
    assert peak < 2_000_000, peak


def test_enum_pairings_streams(monkeypatch):
    sink = LineCount()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["enum", "-n", "9", "--pairings"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (0, 4862)  # the Catalan number C_9
    assert peak < 2_000_000, peak


def traced_run(capsys, *argv):
    """run() under tracemalloc: (exit code, stdout, traced peak in bytes)."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out, peak


def test_enum_terms_of_length_zero_builds_no_alphabet(capsys):
    code, out, peak = traced_run(capsys, "enum", "-n", "1000000000", "--terms", "0")
    assert (code, out) == (0, "1\n")
    assert peak < 2_000_000, peak


def test_enumerations_over_the_limit_exit_2_before_starting(capsys):
    for argv in (["enum", "-n", "1000000000", "--terms", "1"],
                 ["enum", "-n", "2", "--nf", "1000000000"],
                 ["enum", "-n", "12", "--pairings"],
                 ["count", "-n", "12", "--pairings"]):
        code, out, peak = traced_run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert peak < 2_000_000, (argv, peak)


def test_enumeration_limit_admits_exactly_the_limit(capsys, monkeypatch):
    monkeypatch.setattr("kauffman.enumeration.MAX_ENUMERATION", 14)
    assert run(capsys, "count", "-n", "4", "--pairings")[:2] == (0, "14\n")
    assert run(capsys, "count", "-n", "5", "--pairings")[:2] == (2, "")


def test_count_pairings(capsys):
    code, out, _ = run(capsys, "count", "-n", "4", "--pairings")
    assert (code, out.strip()) == (0, "14")


def test_count_pairings_n8(capsys):
    code, out, _ = run(capsys, "count", "-n", "8", "--pairings")
    assert (code, out.strip()) == (0, "1430")


def test_count_pairings_builds_no_diagram(capsys, monkeypatch):
    def refuse(d):
        raise AssertionError("count --pairings constructed a Diagram")

    monkeypatch.setattr(Diagram, "__post_init__", refuse)
    code, out, _ = run(capsys, "count", "-n", "11", "--pairings")
    assert (code, out) == (0, "58786\n")
    code, out, err = run(capsys, "count", "-n", "0", "--pairings")
    assert (code, out) == (2, "")
    assert "error" in err


def test_render_svg(capsys):
    code, out, _ = run(capsys, "render", "-n", "3", "h1", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def _cli_svg(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["render", *argv])
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(terms_st(max_n=40, max_len=60), st.none() | st.floats(0.001, 1e6), st.booleans())
def test_cli_svg_is_the_library_svg(t, unit, labels):
    argv = ["-n", str(t.n), format_term(t)] + ["--unit", repr(unit)] * (unit is not None)
    assert _cli_svg(argv + ["--labels"] * labels) == render(delta(t), "svg", unit, labels) + "\n"


@pytest.mark.parametrize("pieces", [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1,
                                    2 * WRITE_CHUNK, 2 * WRITE_CHUNK + 1])
def test_cli_svg_is_the_library_svg_at_each_chunk_boundary(pieces):
    """Drawings of exactly `pieces` elements, so that a write ends at, before or after the last."""
    # the opening tags, one element per thread and per circle, "</g>" and "</svg>": n + 3 plus
    # the circles; labels add an opening tag, one piece per strand and "</g>"
    half, odd = divmod(pieces - 5, 2)
    drawings = [(pieces - 3, "h1", False, None), (3, f"h1 c^{pieces - 11}", True, None),
                (2, f"c^{pieces - 5}", False, 7.5), (half, "h1" + " c" * odd, True, 0.5)]
    for n, text, labels, unit in drawings:
        d = delta(parse(text, n))
        assert len(list(render_pieces(d, "svg", unit, labels))) == pieces
        argv = ["-n", str(n), text] + ["--labels"] * labels + ["--unit", str(unit)] * bool(unit)
        assert _cli_svg(argv) == render(d, "svg", unit, labels) + "\n"


@pytest.mark.parametrize("unit", ["1e308", "nan"])
def test_a_refused_svg_writes_nothing(capsys, unit):
    for n in ("3", "2000"):
        code, out, err = run(capsys, "render", "-n", n, "h1", "--labels", "--unit", unit)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [("render", "-n", "30000", "--labels", "h1"),
                                  ("render", "-n", "3", "c^100000")],
                         ids=["wide", "many-circles"])
def test_render_svg_of_a_large_drawing_stays_in_bounded_memory(capsys, argv):
    # about 4 MB of svg each, written in chunks: traced peaks of 6.8 and 4.4 MB, where holding
    # the element list and the joined text as well took 17.0 and 14.3 MB
    code, out, peak = traced_run(capsys, *argv)
    assert code == 0
    assert peak < 10_000_000, peak
    if argv[2] == "30000":
        tags = Counter(node.tag.rsplit("}", 1)[-1] for node in ET.fromstring(out).iter())
        assert [tags[t] for t in ("line", "path", "circle", "text")] == [29998, 2, 0, 60000]


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "render", "-n", "3", "h1 c", "--format", "ascii")
    assert code == 0
    assert "o" in out


def test_render_ascii_default_unit_matches_library(capsys):
    d = delta(parse("h[3,1] c", 5))
    code, out, _ = run(capsys, "render", "-n", "5", "h[3,1] c", "--format", "ascii")
    assert (code, out) == (0, render(d, format="ascii") + "\n")
    assert out == render_ascii(d) + "\n"


def test_render_rejects_non_finite_unit(capsys):
    for fmt in ("svg", "ascii"):
        for unit in ("nan", "inf", "0"):
            code, out, err = run(capsys, "render", "-n", "3", "h1", "--format", fmt,
                                 "--unit", unit)
            assert (code, out) == (2, ""), (fmt, unit)
            assert "unit" in err


def test_fuzzed_coercions_exit_2(capsys):
    # an svg canvas of 4 x 1e308 pixels would print width="inf"
    code, out, err = run(capsys, "render", "-n", "3", "h1", "--unit", "1e308")
    assert (code, out) == (2, "")
    assert "not finite" in err
    # a fullwidth digit is not the ASCII digit 1
    code, out, err = run(capsys, "nf", "-n", "5", "h\uff11")
    assert (code, out) == (2, "")
    assert "offset 0" in err


def test_render_ascii_refuses_a_raster_past_the_cell_budget(capsys):
    code, out, err = run(capsys, "render", "-n", "3", "h1", "--format", "ascii",
                         "--unit", "1500")
    assert (code, out) == (2, "")
    assert "cells" in err


def test_parse_error_exit_code_and_position(capsys):
    code, _, err = run(capsys, "nf", "-n", "3", "h1 )")
    assert code == 2
    assert "offset 3" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "-n", "2", "h5")
    assert code == 2
    assert "error" in err


def test_bad_usage_exit_code(capsys):
    assert main(["nf", "h1"]) == 2          # missing -n
    capsys.readouterr()
    assert main(["enum", "-n", "3"]) == 2   # missing listing selector
    capsys.readouterr()


COMMAND_NAMES = [name for name, *_ in cli._COMMANDS]


def _parsed(parser: argparse.ArgumentParser, argv: list[str]):
    """(exit code, stdout, stderr, namespace without func) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as e:
            code = e.code
    if namespace is not None:
        namespace.pop("func", None)
    return code, out.getvalue(), err.getvalue(), namespace


def assert_parsed_as_by_the_full_parser(argv: list[str]):
    """The parser for argv parses it as the one that declares every command's arguments."""
    assert _parsed(cli._build_parser(argv), argv) == \
        _parsed(cli._build_parser(argv + COMMAND_NAMES), argv)


_argv_token = st.one_of(
    st.sampled_from(COMMAND_NAMES + [
        "-h", "--help", "-n", "--trace", "--cross-check", "--method", "slope", "peel",
        "--terms", "--pairings", "--nf", "--format", "svg", "ascii", "--unit", "--labels",
        "--tr", "--pair", "-", "--"]),
    st.integers(-2, 12).map(str),
    st.sampled_from(["h1", "h2 h1 h2", "c^2 h[3,1]", "h1 * h9", "nf h1"]),
    st.text(max_size=8),
)


_argv = st.lists(_argv_token, max_size=7)


@settings(max_examples=300, deadline=None)
@given(_argv | st.tuples(_argv, st.sampled_from(COMMAND_NAMES), _argv).map(
    lambda t: [*t[0], t[1], *t[2]]))
def test_each_call_declares_enough_to_parse_as_the_full_parser(argv):
    """Any argv, and argv with a command name somewhere in it."""
    assert_parsed_as_by_the_full_parser(argv)


@pytest.mark.parametrize("workload", ["terms", "to-diagram", "from-diagram"])
def test_every_workload_argv_parses_as_by_the_full_parser(workload):
    for req in workload_requests(workload, 1):  # the default seed
        assert_parsed_as_by_the_full_parser(list(req.argv))


def test_a_command_not_named_gets_a_bare_subparser():
    parser = cli._build_parser(["nf", "-n", "3", "h1"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMAND_NAMES
    declared = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
    assert declared.pop("nf") == ["help", "n", "term", "trace"]
    assert all(dests == [] for dests in declared.values())


@pytest.mark.parametrize("columns", ["50", "80", "200"])
@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["-x"],
    *([name, "-h"] for name in COMMAND_NAMES),
    ["nf", "h1"], ["term-of", "--method", "bogus"], ["render", "-n", "3", "--format", "png", "h1"],
    ["enum", "-n", "3", "--terms", "1", "--pairings"], ["eq", "-n", "3", "nf", "h1"]])
def test_every_width_prints_as_with_every_command_declared(monkeypatch, capsys, columns, argv):
    """Usage, help and errors at a narrow, the default and a wide terminal."""
    monkeypatch.setenv("COLUMNS", columns)
    outputs = [run(capsys, *argv)]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build([*argv, *COMMAND_NAMES]))
    outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["nf", "-n", "3", "h2 h1 h2"], ["-h"], ["enum", "-h"], ["count", "-n", "3"], ["bogus"]])
def test_the_terminal_width_is_read_once_per_call(monkeypatch, capsys, argv):
    calls, terminal_size = [], shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls.append(args)
        return terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    main(argv)
    assert len(calls) == 1


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert all(line.startswith("ok") for line in out.strip().splitlines())


def test_selftest_writes_to_the_stdout_of_the_call():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["selftest"])
    assert code == 0
    assert len(selftest.CHECKS) == 5
    assert out.getvalue() == "".join(f"ok   {name}\n" for name, _ in selftest.CHECKS)


def test_selftest_reports_failures_under_optimize():
    # python -O strips assert statements; a broken oracle must still fail
    src = str(Path(kauffman.__file__).resolve().parents[1])
    script = ("import io, kauffman.selftest as s\n"
              "s.enumerate_pairings = lambda n: []\n"
              "print(s.run(io.StringIO()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
