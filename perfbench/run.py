"""Request-level benchmark of the kauffman CLI.

    python3 perfbench/run.py --workload terms --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # each workload in a fresh process

Replays a seeded list of CLI requests (see workloads.py) through
kauffman.cli.main(argv) in this process, with stdin, stdout and stderr
redirected, so interpreter start-up is not part of any request.  Load is a
closed loop with one client: the next request is sent when the previous
one has returned.  The loop runs whole passes over the list until
--seconds have passed and at least MIN_SAMPLES requests were timed.

Times are host-speed normalized.  On a shared host the speed of a core
drifts by tens of percent over tens of seconds, far more than a run can
average out.  So the loop also times reference_loop(), fixed pure-Python
work that is not part of the package, every CALIBRATE_EVERY requests and after
every request longer than LONG_MS.  Each request's latency is divided by
the mean reference time measured just before and just after it, and
multiplied by REF_MS: the result is the latency on a nominal host where the
reference loop takes REF_MS.  Set-up times are normalized the same way.
Throughput is requests over the summed request times, so neither the
reference loop nor the client's bookkeeping counts.  The raw wall-clock
figures are printed too, on the lines marked "raw".

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs untraced passes for half the time, then traced passes (tracing.py) for
the other half, and prints the per-layer metrics: raw self times in ms per
request, counts per pass (exact for a seed), and the tracing overhead as
traced minus untraced throughput.  End-to-end metrics never come from a
traced run.

Every response is checked (check.py) after the timed loop; a wrong exit
code or output, an uncaught exception, or an answer that differs between
passes counts as failed.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Seeds: DEFAULT_SEED is the one numbers are quoted for while developing a
change; confirm a claim on HELD_OUT_SEED, which no change is tuned on.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 8187
SETUP_REPEATS = 5
MIN_SAMPLES = 1000  # p99 then has at least 10 samples beyond it
REF_MS = 2.0  # close to the reference loop's time on the 2-vCPU Xeon VM of baseline.json
CALIBRATE_EVERY = 20
LONG_MS = 20.0


def reference_loop() -> int:
    """Fixed work in the package's own style: tuples, dicts, sorting, strings."""
    table = {}
    for i in range(1500):
        table[i] = (i % 31, f"h{i}")
    ordered = sorted(table.values(), key=lambda pair: (-pair[0], pair[1]))
    return len(" ".join(name for _, name in ordered))


def reference_ms() -> float:
    """Duration of one reference loop, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        reference_loop()
        return (perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


def serve(main, req) -> tuple[object, str]:
    """Run one request; returns (exit code or uncaught exception text, stdout)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), out, io.StringIO()
    try:
        code = main(list(req.argv))
    except Exception as e:  # a crash is a failed response, not a failed benchmark
        code = f"uncaught {type(e).__name__}: {e}"
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def set_up(workload: str, seed: int):
    """Import the package afresh, build the inputs, warm up.

    Returns (raw seconds, normalized seconds, main, requests).
    """
    before = reference_ms()
    t0 = perf_counter_ns()
    for name in [m for m in sys.modules if m == "kauffman" or m.startswith("kauffman.")]:
        del sys.modules[name]
    main = importlib.import_module("kauffman.cli").main
    requests = workloads.build(workload, seed)
    smallest: dict[str, tuple] = {}
    for req in requests:
        size = (req.n, len(" ".join(req.terms)) + len(req.stdin))
        if req.kind not in smallest or size < smallest[req.kind][0]:
            smallest[req.kind] = (size, req)
    for _, req in smallest.values():
        serve(main, req)
    raw = (perf_counter_ns() - t0) / 1e9
    return raw, raw * REF_MS / ((before + reference_ms()) / 2), main, requests


class Replay:
    """Closed-loop replay of whole passes; keeps the first response per request."""

    def __init__(self, requests) -> None:
        self.requests = requests
        self.first: list = [None] * len(requests)
        self.differing: Counter = Counter()  # request index -> attempts unlike the first
        self.passes = 0

    def run(self, main, seconds: float, min_samples: int = 0, tracer=None):
        """Whole passes until `seconds` and `min_samples` are reached (at least one).

        Returns (raw latencies in ns, normalized latencies in ms, raw ns per kind).
        """
        raw = array("q")
        normalized = array("d")
        kind_ns: Counter = Counter()
        refs = array("d", [reference_ms()])
        ref_index = array("l")  # last reference time taken before each request
        first, differing, requests = self.first, self.differing, self.requests
        start = perf_counter_ns()
        while True:
            for i, req in enumerate(requests):
                if tracer is not None:
                    tracer.request = self.passes * len(requests) + i
                t0 = perf_counter_ns()
                response = serve(main, req)
                t1 = perf_counter_ns()
                raw.append(t1 - t0)
                ref_index.append(len(refs) - 1)
                kind_ns[req.kind] += t1 - t0
                if t1 - t0 > LONG_MS * 1e6 or len(raw) % CALIBRATE_EVERY == 0:
                    refs.append(reference_ms())
                if first[i] is None:
                    first[i] = response
                elif response != first[i]:
                    differing[i] += 1
            self.passes += 1
            if perf_counter_ns() - start >= seconds * 1e9 and len(raw) >= min_samples:
                break
        refs.append(reference_ms())
        for ns, k in zip(raw, ref_index):
            normalized.append(ns / 1e6 * REF_MS / ((refs[k] + refs[k + 1]) / 2))
        return raw, normalized, kind_ns

    def failed(self) -> tuple[int, list[str]]:
        """Failed attempts over all passes, and the distinct reasons."""
        wrong = check.disagreements(self.requests, self.first)
        reasons: Counter = Counter()
        failed = 0
        for i, (req, (code, out)) in enumerate(zip(self.requests, self.first)):
            reason = "slope and peel disagree" if i in wrong else check.check(req, code, out)
            if reason is not None:
                reasons[f"{req.kind}: {reason}"] += 1
                failed += self.passes - self.differing[i]
            failed += self.differing[i]
        if self.differing:
            reasons["answer changed between passes"] += len(self.differing)
        return failed, [f"{count} x {reason}" for reason, count in reasons.items()]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(latencies_ms) -> dict[str, float]:
    ordered = sorted(latencies_ms)
    return {
        "throughput_rps": len(ordered) / (sum(ordered) / 1e3),
        "latency_p50_ms": statistics.median(ordered),
        "latency_p99_ms": percentile(ordered, 0.99),
    }


def end_to_end(main, requests, seconds: float, setups: list[tuple[float, float]]):
    replay = Replay(requests)
    raw, normalized, kind_ns = replay.run(main, seconds, MIN_SAMPLES)
    n = len(raw)
    total = sum(kind_ns.values())
    per_pass = Counter(req.kind for req in requests)
    notes = [f"samples {n} in {replay.passes} passes of {len(requests)} requests; "
             f"{n - math.ceil(0.99 * n)} beyond p99"]
    notes += [f"share {kind}: {100 * ns / total:.1f}% of time, {per_pass[kind]} requests/pass"
              for kind, ns in sorted(kind_ns.items())]
    raw_metrics = latency_metrics([ns / 1e6 for ns in raw])
    raw_metrics["setup_s"] = statistics.median(s[0] for s in setups)
    notes += [f"raw {name} {value}" for name, value in raw_metrics.items()]
    notes.append(f"host speed: wall-clock / normalized time = {sum(raw) / 1e6 / sum(normalized)}")
    metrics = latency_metrics(normalized)
    metrics["setup_s"] = statistics.median(s[1] for s in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return replay, metrics, notes, True


def per_layer(main, requests, seconds: float, spans_path: Path):
    """Untraced passes for seconds/2, then traced passes for seconds/2."""
    replay = Replay(requests)
    _, normalized, _ = replay.run(main, seconds / 2)
    untraced_rps = latency_metrics(normalized)["throughput_rps"]

    tracer = tracing.Tracer()
    pass_counts = []
    traced = array("d")
    normal_form_inputs = pairings_sizes = None
    traced_main = tracer.wrap(tracing.ROOT, main)
    with tracer.installed():
        start = perf_counter_ns()
        while perf_counter_ns() - start < seconds / 2 * 1e9 or not pass_counts:
            first_span = len(tracer.start)
            tracer.counts = Counter()
            tracer.normal_form_inputs, tracer.pairings_sizes = [], []
            _, normalized, _ = replay.run(traced_main, 0, tracer=tracer)
            traced.extend(normalized)
            calls = Counter(tracer.names[i] + ".calls" for i in tracer.name_of[first_span:])
            pass_counts.append(tracer.counts + calls)
            if normal_form_inputs is None:
                normal_form_inputs = tracer.normal_form_inputs
                pairings_sizes = tracer.pairings_sizes
    traced_rps = latency_metrics(traced)["throughput_rps"]

    stable = all(c == pass_counts[0] for c in pass_counts)
    notes = [] if stable else ["exact counts differ between traced passes"]
    counts = pass_counts[0]
    self_ns = tracer.self_times()
    tracer.write(spans_path)
    hcI, steps = tracing.hcI_counts(normal_form_inputs)

    def ms(name: str) -> float:
        return self_ns[name] / 1e6 / len(traced)

    def rate(count: int, name: str) -> float:
        return count / (self_ns[name] / 1e9) if self_ns[name] else 0.0

    metrics = {f"{name}.self_ms": ms(name) for name in tracer.names}
    metrics.update({
        "syntax.parse.calls": counts["syntax.parse.calls"],
        "syntax.parse.gens_per_s": rate(sum(c["parse.gens"] for c in pass_counts),
                                        "syntax.parse"),
        "rewrite.trace_steps": counts["rewrite.trace_steps"],
        "rewrite.trace_steps_per_s": rate(sum(c["rewrite.trace_steps"] for c in pass_counts),
                                          "rewrite.normalize"),
        "rewrite.hcI_share": hcI / steps if steps else 0.0,
        "diagrams.compose.calls": counts["diagrams.compose.calls"],
        "diagrams.constructed_per_request": counts["diagrams.constructed"] / len(requests),
        "semantics.peel.steps": counts["peel.steps"],
        "enumeration.pairings.yield": tracing.pairings_yield(pairings_sizes),
        "trace.overhead_rps": traced_rps - untraced_rps,
    })
    notes.append(f"tracing overhead: {traced_rps:.2f} traced - {untraced_rps:.2f} untraced "
                 f"= {traced_rps - untraced_rps:.2f} requests/s (normalized)")
    notes.append(f"{len(pass_counts)} traced passes; {len(tracer.start)} spans written to "
                 f"{spans_path}")
    return replay, metrics, notes, stable


def run_one(args, spec) -> int:
    if not (ROOT / "src" / "kauffman" / "__init__.py").is_file():
        print(f"error: no kauffman package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setups = []
    for _ in range(SETUP_REPEATS):
        raw, normalized, main, requests = set_up(args.workload, args.seed)
        setups.append((raw, normalized))
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv"
        replay, values, notes, ok = per_layer(main, requests, args.seconds, spans)
        wanted = spec["per_layer"]
    else:
        replay, values, notes, ok = end_to_end(main, requests, args.seconds, setups)
        wanted = spec["end_to_end"]
    failed, reasons = replay.failed()
    attempted = replay.passes * len(requests)
    notes.append(f"failed_frac {failed / attempted} ({failed} of {attempted})")
    for line in notes + reasons:
        print(line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints their metrics and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
