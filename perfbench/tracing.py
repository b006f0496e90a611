"""Spans around the calls each kauffman module makes into another.

Nothing under src/ is changed: while a Tracer is installed, the names a
module imported from another module are replaced, in the importing
module's namespace, by wrappers that record a span per call.  A span is
(name, start, end, parent span, request id); spans stay in memory in flat
arrays and are written out once, after the run.  A span's self time is its
duration minus the durations of its child spans, so the time a layer
spends in a wrapped callee is charged to the callee's layer.

Counts that come from results (generators parsed, rewrite steps, peeled
diapsides) are read in the wrappers.  Two counts need to look inside a
function and are taken after the traced passes, by replaying the recorded
calls untimed: hcI steps of normal_form (through the private rule
right-hand side rewrite._rhs, called once per step) and the candidate
matchings enumerate_pairings checks (through its is_planar_pairing calls).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module whose namespace is patched, imported name, span name)
WRAPPED = (
    ("kauffman.cli", "parse", "syntax.parse"),
    ("kauffman.cli", "format_term", "syntax.format"),
    ("kauffman.rewrite", "format_word", "syntax.format"),
    ("kauffman.cli", "normalize", "rewrite.normalize"),
    ("kauffman.cli", "format_step", "rewrite.format_step"),
    ("kauffman.cli", "normal_form", "rewrite.normal_form"),
    ("kauffman.semantics", "normal_form", "rewrite.normal_form"),
    ("kauffman.cli", "decide_equal", "semantics.decide_equal"),
    ("kauffman.cli", "delta", "semantics.delta"),
    ("kauffman.semantics", "delta", "semantics.delta"),
    ("kauffman.semantics", "delta_block", "semantics.delta_block"),
    ("kauffman.cli", "diagram_to_nf", "semantics.diagram_to_nf"),
    ("kauffman.cli", "peel", "semantics.peel"),
    ("kauffman.semantics", "compose", "diagrams.compose"),
    ("kauffman.semantics", "slope_points", "diagrams.slope_points"),
    ("kauffman.cli", "to_json_dict", "diagrams.to_json"),
    ("kauffman.cli", "from_json_dict", "diagrams.from_json"),
    ("kauffman.cli", "render", "draw.render"),
    ("kauffman.cli", "enumerate_pairings", "enumeration.pairings"),
)
ROOT = "cli"  # the span around kauffman.cli.main


class Tracer:
    """Span store plus the per-pass counts read from wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.normal_form_inputs: list = []
        self.pairings_sizes: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.request_of.append(self.request)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_result(self, name: str):
        from kauffman.terms import Block

        if name == "syntax.parse":
            def hook(args, term):
                self.counts["parse.gens"] += len(term.word)
        elif name == "rewrite.normalize":
            def hook(args, trace):
                self.counts["rewrite.trace_steps"] += len(trace.steps)
        elif name == "rewrite.normal_form":
            def hook(args, nf):
                self.normal_form_inputs.append(args[0])
        elif name == "semantics.peel":
            def hook(args, term):
                self.counts["peel.steps"] += sum(isinstance(g, Block) for g in term.word)
        elif name == "enumeration.pairings":
            def hook(args, result):
                self.pairings_sizes.append(args[0])
        else:
            hook = None
        return hook

    @contextmanager
    def installed(self):
        """Patch every WRAPPED name and count Diagram constructions; undo on exit."""
        from kauffman.diagrams import Diagram

        saved = []
        post_init = Diagram.__post_init__

        def counting_post_init(d):
            self.counts["diagrams.constructed"] += 1
            post_init(d)

        try:
            for modname, attr, name in WRAPPED:
                module = sys.modules[modname]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, self._on_result(name)))
            saved.append((Diagram, "__post_init__", post_init))
            Diagram.__post_init__ = counting_post_init
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> Counter:
        """Total self time in ns per span name."""
        child = array("q", bytes(8 * len(self.start)))
        for idx in range(len(self.start)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        self_ns: Counter = Counter()
        for idx in range(len(self.start)):
            self_ns[self.names[self.name_of[idx]]] += self.end[idx] - self.start[idx] - child[idx]
        return self_ns

    def write(self, path) -> None:
        """Write every span as CSV: request,name,start_ns,end_ns,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as f:
            f.write("request,name,start_ns,end_ns,parent\n")
            for idx in range(len(self.start)):
                f.write(f"{self.request_of[idx]},{self.names[self.name_of[idx]]},"
                        f"{self.start[idx] - t0},{self.end[idx] - t0},{self.parent[idx]}\n")


def hcI_counts(terms) -> tuple[int, int]:
    """(hcI steps, all steps) that normal_form fires on the given terms."""
    from kauffman import rewrite

    steps: Counter = Counter()
    rhs = rewrite._rhs

    def counting_rhs(x, y, rule):
        steps[rule] += 1
        return rhs(x, y, rule)

    rewrite._rhs = counting_rhs
    try:
        for t in terms:
            rewrite.normal_form(t)
    finally:
        rewrite._rhs = rhs
    return steps["hcI"], sum(steps.values())


def pairings_yield(sizes) -> float:
    """Diagrams returned over candidate matchings checked, over the given calls."""
    from kauffman import enumeration

    check = enumeration.is_planar_pairing
    per_size: dict[int, tuple[int, int]] = {}
    for n in set(sizes):
        checked = 0

        def counting_check(pairs, m):
            nonlocal checked
            checked += 1
            return check(pairs, m)

        enumeration.is_planar_pairing = counting_check
        try:
            returned = len(enumeration.enumerate_pairings(n))
        finally:
            enumeration.is_planar_pairing = check
        per_size[n] = (returned, max(checked, returned))
    returned = sum(per_size[n][0] for n in sizes)
    candidates = sum(per_size[n][1] for n in sizes)
    return returned / candidates if candidates else 0.0
