"""Independent checks of CLI responses, run outside every timed window.

Each check answers a request by another route than the one the CLI takes:

* nf and eq: the Jones normal form comes from diagram_to_nf(delta(.)), on
  a term the benchmark builds from its own factor list, and is printed by
  the benchmark, so neither the parser nor the rewriter is trusted.  A
  --trace is replayed factor by factor from the input word.
* diagram: the printed JSON is read back and must give normal_form.
* term-of: delta(parse(out)) must equal the input diagram; slope and peel
  answers to one input must agree (compared by the caller).
* render svg: element counts must match the thread classes draw.py
  documents (a line per transversal, an arc per cup or cap, a circle per
  circle) of delta(term), once diagram_to_nf of that diagram is seen to
  equal normal_form; render ascii: one 'o' per circle and a '|' on the
  bottom line for each of the n bottom thread ends.
* count and enum: the Catalan number C(n) = binom(2n, n) / (n + 1).
* malformed terms: exit code 2 and nothing on stdout.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from math import comb

_STEP = re.compile(r"^(hI|hII|hcI|hcII|hIII\.1|hIII\.2|hIII\.3)@(\d+): (.+) => (.+)$")
_SVG = "{http://www.w3.org/2000/svg}"


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def format_factors(factors: list[str]) -> str:
    """Canonical term text: maximal circle runs contracted, "1" for the unit."""
    parts: list[str] = []
    run = 0
    for f in factors:
        if f == "c":
            run += 1
            continue
        if run:
            parts.append("c" if run == 1 else f"c^{run}")
            run = 0
        parts.append(f)
    if run:
        parts.append("c" if run == 1 else f"c^{run}")
    return " ".join(parts) or "1"


def nf_factors(nf) -> list[str]:
    """Factor list of a JonesNF, singular blocks written as diapsides."""
    blocks = [f"h{b}" if b == a else f"h[{b},{a}]" for b, a in nf.blocks]
    return ["c"] * nf.circles + blocks


def to_term(text: str, n: int):
    """Build a Term from benchmark-made factor text without the parser."""
    from kauffman import CIRCLE, Block, Term

    word = []
    for f in text.split():
        if f == "c":
            word.append(CIRCLE)
        elif f.startswith("h["):
            b, a = map(int, f[2:-1].split(","))
            word.append(Block(b, a))
        else:
            i = int(f[1:])
            word.append(Block(i, i))
    return Term(n, tuple(word))


def diagram_nf(text: str, n: int):
    from kauffman import delta, diagram_to_nf

    return diagram_to_nf(delta(to_term(text, n)))


def _replay_trace(lines: list[str], start: str) -> str | None:
    """Apply each printed step to the input word; None if all steps match."""
    word = start.split()
    for line in lines:
        m = _STEP.match(line)
        if m is None:
            return f"bad trace line {line!r}"
        p, before, after = int(m.group(2)), m.group(3).split(), m.group(4).split()
        if word[p:p + len(before)] != before:
            return f"trace step {line!r} does not match the word at {p}"
        word[p:p + len(before)] = after
    return format_factors(word)


def check(req, code, out: str) -> str | None:
    """None when the response is right, else a one-line reason."""
    try:
        return _check(req, code, out)
    except Exception as e:  # unreadable output is a wrong answer
        return f"unreadable response ({type(e).__name__}: {e})"


def _check(req, code, out: str) -> str | None:
    from kauffman import delta, diagram_to_nf, from_json_dict, normal_form, parse

    kind, n = req.kind, req.n
    if kind == "malformed":
        return None if (code, out) == (2, "") else f"expected exit 2, got {code}"
    if code not in (0, 1):
        return f"exit {code}"
    lines = out.splitlines()
    if kind in ("nf", "nf --trace"):
        expected = format_factors(nf_factors(diagram_nf(req.terms[0], n)))
        if code != 0 or not lines or lines[-1] != expected:
            return f"normal form {lines[-1:]} != {expected!r}"
        if kind == "nf":
            return None if len(lines) == 1 else "nf printed a trace"
        final = _replay_trace(lines[:-1], req.terms[0])
        return None if final == expected else f"trace replay: {final}"
    if kind.startswith("eq"):
        equal = diagram_nf(req.terms[0], n) == diagram_nf(req.terms[1], n)
        want = (0, ["equal"]) if equal else (1, ["not-equal"])
        return None if (code, lines) == want else f"eq answered {lines} with exit {code}"
    if code != 0:
        return f"exit {code}"
    if kind == "diagram":
        got = diagram_to_nf(from_json_dict(json.loads(out)))
        return None if got == normal_form(to_term(req.terms[0], n)) else "diagram != normal_form"
    if kind.startswith("render"):
        term = to_term(req.terms[0], n)
        d = delta(term)
        if diagram_to_nf(d) != normal_form(term):
            return "delta and normal_form disagree on the rendered term"
        if kind == "render ascii":
            if out.count("o") != d.circles or lines[-1].count("|") != n:
                return "ascii drawing lacks a circle or a bottom thread end"
            return None
        cups = sum(a > 0 for a, b in d.pairs)
        caps = sum(b < 0 for a, b in d.pairs)
        want = [n - cups - caps, cups + caps, d.circles]
        root = ET.fromstring(out)
        counts = [len(root.findall(f".//{_SVG}{tag}")) for tag in ("line", "path", "circle")]
        return None if counts == want else f"svg elements {counts} != {want}"
    if kind.startswith("term-of"):
        if len(lines) != 1:
            return "term-of printed more than one line"
        d = from_json_dict(json.loads(req.stdin))
        return None if delta(parse(lines[0], d.n)) == d else "delta(term-of) != input"
    if kind == "count":
        return None if lines == [str(catalan(n))] else f"count {lines} != C({n})"
    if kind == "enum":
        diagrams = {from_json_dict(json.loads(line)) for line in lines}
        if len(lines) != catalan(n) or len(diagrams) != len(lines):
            return f"enum gave {len(lines)} lines, {len(diagrams)} distinct, want C({n})"
        bad = [d for d in diagrams if d.n != n or d.circles]
        return None if not bad else "enum printed a diagram of the wrong size or with circles"
    return f"unknown request kind {kind!r}"


def disagreements(requests, responses) -> set[int]:
    """Indices of term-of requests whose slope and peel answers differ."""
    by_input: dict[str, set[str]] = {}
    for req, (code, out) in zip(requests, responses):
        if req.kind.startswith("term-of"):
            by_input.setdefault(req.stdin, set()).add(out)
    return {i for i, req in enumerate(requests)
            if req.kind.startswith("term-of") and len(by_input[req.stdin]) > 1}
