import io
import json
import os
import subprocess
import sys
from pathlib import Path

import kauffman

from kauffman import delta, from_json_dict, parse, render, render_ascii, to_json_dict
from kauffman.cli import main

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
        raise AssertionError("nf without --trace ran trace-mode normalize")

    monkeypatch.setattr("kauffman.cli.normalize", refuse)
    code, out, _ = run(capsys, "nf", "-n", "2", "h1 h1")
    assert (code, out) == (0, "c h1\n")


def test_nf_trace(capsys):
    code, out, _ = run(capsys, "nf", "-n", "2", "h1 h1", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["hcII@0: h1 h1 => c h1", "c h1"]


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "-n", "3", "h1 h2")
    assert code == 0
    payload = json.loads(out)
    assert from_json_dict(payload) == delta(parse("h1 h2", 3))


def test_term_of_slope_and_peel_agree(capsys, monkeypatch):
    blob = json.dumps(to_json_dict(delta(parse(WORKED_EXAMPLE, 11))))
    results = []
    for method in ("slope", "peel"):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run(capsys, "term-of", "--method", method)
        assert code == 0
        results.append(out.strip())
    assert results[0] == results[1]
    assert parse(results[0], 11) == parse(WORKED_EXAMPLE, 11)


def test_term_of_rejects_non_integer_codes(capsys, monkeypatch):
    blob = '{"n":2,"pairs":[["-2","-1"],[1.9,2]],"circles":0}'
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run(capsys, "term-of")
    assert (code, out) == (2, "")
    assert "error" in err


def test_term_of_rejects_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "term-of")
    assert code == 2
    assert "error" in err


def test_enum_terms(capsys):
    code, out, _ = run(capsys, "enum", "-n", "3", "--terms", "1")
    assert code == 0
    assert out.splitlines() == ["1", "h1", "h2", "c"]


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


def test_count_pairings(capsys):
    code, out, _ = run(capsys, "count", "-n", "4", "--pairings")
    assert (code, out.strip()) == (0, "14")


def test_count_pairings_n8(capsys):
    code, out, _ = run(capsys, "count", "-n", "8", "--pairings")
    assert (code, out.strip()) == (0, "1430")


def test_render_svg(capsys):
    code, out, _ = run(capsys, "render", "-n", "3", "h1", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


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


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert all(line.startswith("ok") for line in out.strip().splitlines())


def test_selftest_reports_failures_under_optimize():
    # python -O strips assert statements; a broken oracle must still fail
    src = str(Path(kauffman.__file__).resolve().parents[1])
    script = ("import io, kauffman.selftest as s\n"
              "s.enumerate_pairings = lambda n: []\n"
              "print(s.run(io.StringIO()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
