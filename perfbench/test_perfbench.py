"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("rewrite.trace_steps", "diagrams.compose.calls", "diagrams.constructed_per_request",
         "semantics.peel.steps", "enumeration.pairings.yield")


def small_requests(workload: str, seed: int = run.DEFAULT_SEED):
    """Up to eight small requests of each kind, in pass order."""
    taken: dict[str, int] = {}
    chosen = []
    for req in workloads.build(workload, seed):
        if req.n <= 16 and taken.get(req.kind, 0) < 8:
            taken[req.kind] = taken.get(req.kind, 0) + 1
            chosen.append(req)
    return chosen


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    first = workloads.build(workload, 1)
    assert workloads.build(workload, 1) == first
    assert workloads.build(workload, 2) != first
    assert {r.kind for r in first} == {r.kind for r in workloads.build(workload, 2)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_and_every_layer_metric_is_present(workload, tmp_path):
    _, _, main, _ = run.set_up(workload, run.DEFAULT_SEED)
    requests = small_requests(workload)
    results = [run.per_layer(main, requests, 0, tmp_path / f"spans{k}.csv") for k in range(2)]
    (replay, first, _, stable), (_, second, _, _) = results
    assert stable
    assert replay.failed() == (0, [])
    assert {m["name"] for m in SPEC["per_layer"]} <= first.keys()
    assert [first[name] for name in EXACT] == [second[name] for name in EXACT]
    assert (tmp_path / "spans0.csv").read_text().startswith("request,name,start_ns")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_present(workload):
    _, _, main, _ = run.set_up(workload, run.DEFAULT_SEED)
    replay, metrics, notes, ok = run.end_to_end(main, small_requests(workload), 0, [(0.1, 0.1)])
    assert ok and replay.failed() == (0, [])
    assert {m["name"] for m in SPEC["end_to_end"]} <= metrics.keys()
    assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_wrong_answers(workload):
    _, _, main, _ = run.set_up(workload, run.DEFAULT_SEED)
    for req in small_requests(workload):
        code, out = run.serve(main, req)
        assert check.check(req, code, out) is None, req
        wrong = "1\n" if req.kind == "malformed" else out + "h1\n"
        assert check.check(req, code, wrong) is not None, req


def test_slope_and_peel_disagreement_is_found():
    reqs = [r for r in workloads.build("from-diagram", 1) if r.kind.startswith("term-of")]
    peel = next(r for r in reqs if r.kind == "term-of peel")
    slope = next(r for r in reqs if r.kind == "term-of slope" and r.stdin == peel.stdin)
    assert check.disagreements([slope, peel], [(0, "h1\n"), (0, "h1\n")]) == set()
    assert check.disagreements([slope, peel], [(0, "h1\n"), (0, "h2\n")]) == {0, 1}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "terms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
