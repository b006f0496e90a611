"""Shared generators and independent oracles for the test suite.

The naive stepper (`find_redex`, `apply_rule`), the full rescans
(`naive_leftmost_steps`, and `naive_rightmost_steps`, the only rightmost
reduction), `expand`, `identity`, the hand-built `diapsis_diagram` and
the generator-by-generator `format_word_reference` are used by the
tests only, so they live here rather than in the package.  So is
`render_svg_reference`, the SVG writer that builds an ElementTree and
serializes it: the byte-for-byte reference for `render`'s text writer.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from kauffman import (
    CIRCLE,
    Block,
    Circle,
    ConsistencyError,
    Diagram,
    DomainError,
    Generator,
    JonesNF,
    Term,
    compose,
    delta,
    nf_to_term,
    peel,
)
from kauffman.diagrams import is_planar_pairing
from kauffman.draw import UNITS, _fmt, _split, _unit, canvas_height
from kauffman.rewrite import _classify, _rhs
from kauffman.selftest import random_term  # noqa: F401  (shared with selftest)


def identity(n: int) -> Diagram:
    """All threads vertical, no circles; n = 1 included."""
    return Diagram(n, tuple((-i, i) for i in range(1, n + 1)))


def diapsis_diagram(n: int, i: int) -> Diagram:
    """H^i built by hand, not by `delta`: a cup at i, i+1 over the matching cap."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"diapsis index must be in 1..{n - 1}, got {i}")
    pairs = [(i, i + 1), (-(i + 1), -i)]
    pairs.extend((-m, m) for m in range(1, n + 1) if m not in (i, i + 1))
    return Diagram(n, tuple(pairs))


def expand(t: Term) -> Term:
    """Replace every block h^[b,a] by its word of diapsides h^b ... h^a."""
    word: list[Generator] = []
    for g in t.word:
        if isinstance(g, Block):
            word.extend(Block(i, i) for i in range(g.upper, g.lower - 1, -1))
        else:
            word.append(g)
    return Term(t.n, tuple(word))


def _first_redex(word, positions) -> tuple[int, str] | None:
    """Position and rule of the first redex met at `positions`, in their order."""
    for p in positions:
        tag = _classify(word[p], word[p + 1])
        if tag is not None:
            return p, tag
    return None


def find_redex(t: Term) -> tuple[int, str] | None:
    """Position and rule of the leftmost redex, or None for a normal form."""
    return _first_redex(t.word, range(len(t.word) - 1))


def apply_rule(t: Term, position: int, rule: str) -> Term:
    """Fire the given rule at the given position, as reported by find_redex."""
    word = list(t.word)
    if not 0 <= position < len(word) - 1:
        raise ConsistencyError(f"no adjacent pair at position {position}")
    tag = _classify(word[position], word[position + 1])
    if tag != rule:
        raise ConsistencyError(
            f"rule {rule!r} does not apply at position {position} (found {tag!r})"
        )
    word[position:position + 2] = _rhs(word[position], word[position + 1], rule)
    return Term(t.n, tuple(word))


def format_word_reference(word: tuple[Generator, ...]) -> str:
    """Canonical text of a word, one generator at a time: the oracle of `format_word`."""
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


def render_svg_reference(d: Diagram, unit: float = UNITS["svg"],
                         show_labels: bool = False) -> str:
    """The SVG of `d` built as an ElementTree, then serialized."""
    unit = _unit(unit)
    n, height = d.n, canvas_height(d.n)
    if not math.isfinite(max(n + 1, height) * unit):
        raise DomainError(f"svg canvas of {n + 1} x {height} units of {unit} is not finite")

    def x(pos: float) -> float:
        return pos * unit

    def y(v: float) -> float:
        return (height - v) * unit

    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _fmt((n + 1) * unit),
        "height": _fmt(height * unit),
        "viewBox": f"0 0 {_fmt((n + 1) * unit)} {_fmt(height * unit)}",
    })
    group = ET.SubElement(root, "g", {
        "fill": "none",
        "stroke": "black",
        "stroke-width": _fmt(max(1.0, unit / 16)),
    })
    cups, caps, trans = _split(d)
    for top, bottom in trans:
        ET.SubElement(group, "line", {
            "x1": _fmt(x(top)), "y1": _fmt(y(height)),
            "x2": _fmt(x(bottom)), "y2": _fmt(y(0)),
        })
    for arcs, edge, sweep in ((cups, _fmt(y(height)), 0), (caps, _fmt(y(0)), 1)):
        for left, right in arcs:
            r = _fmt((right - left) / 2 * unit)
            ET.SubElement(group, "path", {
                "d": f"M {_fmt(x(left))} {edge} A {r} {r} 0 0 {sweep} {_fmt(x(right))} {edge}",
            })
    if d.circles:
        spacing = min(1.0, (height - 1) / d.circles)
        radius = min(0.25, spacing / 3) * unit
        for k in range(d.circles):
            ET.SubElement(group, "circle", {
                "cx": _fmt(x(0.5)),
                "cy": _fmt(y(0.5 + k * spacing)),
                "r": _fmt(radius),
            })
    if show_labels:
        labels = ET.SubElement(root, "g", {
            "font-size": _fmt(unit / 2), "text-anchor": "middle",
        })
        for i in range(1, n + 1):
            for v in (height, 0):
                t = ET.SubElement(labels, "text", {
                    "x": _fmt(x(i)),
                    "y": _fmt(y(v) + (unit / 2 if v == height else -unit / 5)),
                })
                t.text = str(i)
    return ET.tostring(root, encoding="unicode")


def random_nf(rng: random.Random, max_n: int = 10, max_circles: int = 3,
              n: int | None = None) -> JonesNF:
    """Random valid normal form built by an ascending walk over block indices."""
    if n is None:
        n = rng.randint(2, max_n)
    circles = rng.randint(0, max_circles)
    blocks = []
    prev_a = prev_b = 0
    while prev_a + 1 <= n - 1 and rng.random() > 0.25:
        a = rng.randint(prev_a + 1, n - 1)
        lo_b = max(prev_b + 1, a)
        if lo_b > n - 1:
            break
        b = rng.randint(lo_b, n - 1)
        blocks.append((b, a))
        prev_a, prev_b = a, b
    return JonesNF(n, circles, tuple(blocks))


@dataclass(frozen=True)
class ThreadClass:
    kind: str  # "cup" | "cap" | "transversal"
    vertical: bool = False
    falling: bool = False


def thread_class(pair: tuple[int, int]) -> ThreadClass:
    """Classify a thread from its two endpoint codes."""
    a, b = pair
    if a > 0 and b > 0:
        return ThreadClass("cup")
    if a < 0 and b < 0:
        return ThreadClass("cap")
    top, bottom = (a, -b) if a > 0 else (b, -a)
    return ThreadClass("transversal", vertical=top == bottom, falling=top < bottom)


def covers(pair: tuple[int, int], m: int) -> bool:
    """Whether the thread reaches from position <= m across to position >= m+1."""
    lo, hi = sorted((abs(pair[0]), abs(pair[1])))
    return lo <= m and m + 1 <= hi


def generators_st(n: int, wide_blocks: bool = True):
    options = [
        st.integers(1, n - 1).map(lambda i: Block(i, i)),
        st.just(CIRCLE),
    ]
    if wide_blocks and n > 2:
        options.append(
            st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
            .map(lambda ba: Block(max(ba), min(ba)))
        )
    return st.one_of(options)


@st.composite
def terms_st(draw, max_n: int = 6, max_len: int = 10, wide_blocks: bool = True):
    n = draw(st.integers(2, max_n))
    word = draw(st.lists(generators_st(n, wide_blocks), max_size=max_len))
    return Term(n, tuple(word))


@st.composite
def circle_runs_st(draw, max_n: int = 40):
    """Words made of segments: a run of blocks, then a run of circles.

    A run of blocks is random, or ascending as in a normal form, which a
    circle after it crosses by hcI all the way; the circle runs put
    circles between blocks and after them.
    """
    n = draw(st.integers(2, max_n))
    block = generators_st(n).filter(lambda g: isinstance(g, Block))
    word: list[Generator] = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            seed = draw(st.integers(0, 2**32 - 1))
            word.extend(nf_to_term(random_nf(random.Random(seed), n=n, max_circles=0)).word)
        else:
            word.extend(draw(st.lists(block, max_size=8)))
        word.extend([CIRCLE] * draw(st.integers(0, 4)))
    return Term(n, tuple(word))


@st.composite
def normal_forms_st(draw, max_n: int = 8, max_circles: int = 3):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_nf(random.Random(seed), n=n, max_circles=max_circles)


def brute_force_pairings(n: int) -> list[Diagram]:
    """Planar pairings by exhausting every perfect matching of the 2n codes.

    Independent of the library's recursive enumeration; the generation
    order is already lexicographic on the canonical pair lists.
    """
    codes = (*range(-n, 0), *range(1, n + 1))
    results: list[Diagram] = []
    chosen: list[tuple[int, int]] = []

    def build(remaining: tuple[int, ...]) -> None:
        if not remaining:
            if is_planar_pairing(chosen, n):
                results.append(Diagram(n, tuple(chosen)))
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            chosen.append((first, remaining[idx]))
            build(remaining[1:idx] + remaining[idx + 1:])
            chosen.pop()

    build(codes)
    return results


def is_exact_cover(pairs, n: int) -> bool:
    """Whether the codes of the pairs are -n..-1, 1..n, each exactly once."""
    return sorted(c for pair in pairs for c in pair) == [*range(-n, 0), *range(1, n + 1)]


def is_planar_matching(pairs, n: int) -> bool:
    """The diagrams module's definition of an n-diagram's pairing, read literally.

    The pairs cover the codes exactly once, and the closed intervals they
    span are pairwise disjoint or nested.
    """
    if not is_exact_cover(pairs, n):
        return False
    intervals = [(min(pair), max(pair)) for pair in pairs]
    return all(hi1 < lo2 or hi2 < lo1 or lo1 < lo2 < hi2 < hi1 or lo2 < lo1 < hi1 < hi2
               for (lo1, hi1), (lo2, hi2) in combinations(intervals, 2))


def compose_oracle(bottom: Diagram, top: Diagram) -> Diagram:
    """Compose by connected components of the glued boundary graph.

    Independent of the path-tracing implementation: nodes are the codes of
    both diagrams, edges are the threads plus the interface identifications,
    and each component either hits exactly two free boundary codes (a
    thread) or none (a loop).
    """
    assert bottom.n == top.n
    n = bottom.n
    adjacency = defaultdict(list)
    for a, b in top.pairs:
        adjacency[("t", a)].append(("t", b))
        adjacency[("t", b)].append(("t", a))
    for a, b in bottom.pairs:
        adjacency[("b", a)].append(("b", b))
        adjacency[("b", b)].append(("b", a))
    for i in range(1, n + 1):
        adjacency[("t", -i)].append(("b", i))
        adjacency[("b", i)].append(("t", -i))

    seen: set = set()
    pairs = []
    loops = 0
    for node in list(adjacency):
        if node in seen:
            continue
        component = []
        stack = [node]
        seen.add(node)
        while stack:
            u = stack.pop()
            component.append(u)
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        free = [
            code for side, code in component
            if (side == "t" and code > 0) or (side == "b" and code < 0)
        ]
        if not free:
            loops += 1
        else:
            assert len(free) == 2
            pairs.append(tuple(sorted(free)))
    return Diagram(n, tuple(pairs), bottom.circles + top.circles + loops)


def compose_fold(t: Term) -> Diagram:
    """delta by its definition: stack one generator diagram per factor.

    Blocks are expanded into diapsides; the first factor ends up at the
    bottom, and a circle is the identity pairing carrying one circle.
    """
    acc = identity(t.n)
    for g in expand(t).word:
        if isinstance(g, Block):
            acc = compose(acc, diapsis_diagram(t.n, g.upper))
        else:
            acc = compose(acc, Diagram(t.n, identity(t.n).pairs, 1))
    return acc


def peel_states(d: Diagram):
    """Yield (j, diagram left) after each `peel` step, first step first.

    Peel detaches the diapsides of the expanded word from the right, so
    after k steps the diagram left is `delta` of that word without its
    last k factors; each one is rebuilt that way, independently of `peel`.
    """
    word = expand(peel(d)).word
    for k in range(1, len(word) - d.circles + 1):
        yield word[-k].upper, delta(Term(d.n, word[:-k]))


def staircase(n: int) -> Diagram:
    """delta(h[n/2,1] h[n/2+1,2] ... h[n-2,n/2-1]) for even n: the largest span."""
    half = n // 2
    return delta(Term(n, tuple(Block(half - 1 + k, k) for k in range(1, half))))


def nested(n: int) -> Diagram:
    """Nested top cups (i, n+1-i) over nested bottom caps, for even n: span n²/2."""
    cups = [(i, n + 1 - i) for i in range(1, n // 2 + 1)]
    return Diagram(n, tuple(cups) + tuple((-b, -a) for a, b in cups))


def side_by_side(n: int) -> Diagram:
    """Top cups (2i+1, 2i+2) over bottom caps at the same places, for even n."""
    cups = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
    return Diagram(n, tuple(cups) + tuple((-b, -a) for a, b in cups))


def random_pairing(rng: random.Random, n: int, circles: int) -> Diagram:
    """A planar pairing read off a random balanced bracket word, plus circles.

    Each code in code order opens a thread or closes the last one open:
    it must close once all n are open, and may close, by a coin flip,
    while any is open.
    """
    pairs: list[tuple[int, int]] = []
    opened: list[int] = []
    for code in (*range(-n, 0), *range(1, n + 1)):
        if opened and (len(pairs) + len(opened) == n or rng.random() < 0.5):
            pairs.append((opened.pop(), code))
        else:
            opened.append(code)
    return Diagram(n, pairs, circles)


def _naive_steps(t: Term, rightmost: bool):
    """Reference reduction: rescan the whole word after every firing.

    The word is a plain list: each redex is found by `_classify`, fired
    by `_rhs`, and one Term is built from the final word.  Returns the
    steps, each (rule, position, before, after) as in a RewriteStep, and
    the final term.
    """
    word = list(t.word)
    steps = []
    while True:
        positions = range(len(word) - 1)
        redex = _first_redex(word, reversed(positions) if rightmost else positions)
        if redex is None:
            return steps, Term(t.n, tuple(word))
        position, rule = redex
        before = (word[position], word[position + 1])
        after = tuple(_rhs(*before, rule))
        word[position:position + 2] = after
        steps.append((rule, position, before, after))


def naive_leftmost_steps(t: Term):
    """Reference reduction: rescan from the left after every firing."""
    return _naive_steps(t, False)


def naive_rightmost_steps(t: Term):
    """Reference reduction: rescan from the right after every firing, the only
    rightmost reduction there is; the package's kernel fires leftmost."""
    return _naive_steps(t, True)


def replay(trace) -> list[Term]:
    """Replay a trace, returning every intermediate term (input first).

    Asserts that each recorded step matches the word it is applied to.
    """
    word = list(trace.input.word)
    intermediates = [trace.input]
    for step in trace.steps:
        p = step.position
        assert tuple(word[p:p + len(step.before)]) == step.before, step
        word[p:p + len(step.before)] = list(step.after)
        intermediates.append(Term(trace.input.n, tuple(word)))
    assert intermediates[-1] == nf_to_term(trace.output)
    return intermediates


def is_jones_shape(t: Term) -> bool:
    """Normal-form shape check written directly from the definition."""
    word = t.word
    k = 0
    while k < len(word) and not isinstance(word[k], Block):
        k += 1
    blocks = word[k:]
    if not all(isinstance(g, Block) for g in blocks):
        return False
    uppers = [g.upper for g in blocks]
    lowers = [g.lower for g in blocks]
    return (sorted(set(uppers)) == uppers and sorted(set(lowers)) == lowers)


def workload_requests(workload: str, seed: int) -> list:
    """The request list of one pass of a benchmark workload, built by
    `perfbench/workloads.py`, which is loaded from its file each call."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.build(workload, seed)
