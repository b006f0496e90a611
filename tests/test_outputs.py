"""Every response of the benchmark's workloads, hashed against recorded digests.

Each request of the three workloads, on the default seed 1 and the
held-out seed 8187, runs through `kauffman.cli.main` in process with its
stdin.  Its argv, exit code, stdout and stderr are hashed in request
order into one sha256 per (workload, seed).  Any change to an output
byte, an exit code or an error text changes a digest: a change that
alters output on purpose records the new digest here and says why.
"""

import hashlib
import io
import json
import sys

import pytest

from kauffman.cli import main

from helpers import workload_requests

DIGESTS = {
    ("terms", 1): "0fe7828705486aed01607ce077acf8db5336eea1ea4462063d14b5699fb3d7cf",
    ("terms", 8187): "8262688fd3e1267d05b1baeba65b2b85945f619f1b55bc08fa4a68fefae5a32b",
    ("to-diagram", 1): "70e2aa49f5169e9f74494aa609eb66f9520b1b46c350c8a6c99b05ca3319e701",
    ("to-diagram", 8187): "28c0739d3d47ede334369ccccb598af6db3adec424718e30a0a9851640b71c0d",
    ("from-diagram", 1): "5af73d36192f2316e453fbcda018b4f9bc7f095dde85f2c59a3fbef8c32f0074",
    ("from-diagram", 8187): "9ad1dac1029ee94c8c7534473b1085605fac8b56985b7409872ee45ac9740970",
}


def responses_digest(monkeypatch, workload: str, seed: int) -> str:
    """sha256 over one JSON line [argv, exit code, stdout, stderr] per request."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse's text wraps at the terminal width
    digest = hashlib.sha256()
    for req in workload_requests(workload, seed):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(req.stdin))
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        code = main(list(req.argv))
        line = json.dumps([list(req.argv), code, out.getvalue(), err.getvalue()])
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(("workload", "seed"), list(DIGESTS))
def test_every_workload_response_hashes_as_recorded(monkeypatch, workload, seed):
    assert responses_digest(monkeypatch, workload, seed) == DIGESTS[workload, seed]
