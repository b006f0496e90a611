"""Mutant gate: a fault planted in a fast path must fail the tests.

Each row of `MUTANTS` names a file of `src/kauffman/`, an exact source
text in it, its replacement, and the test files that must catch it.

    python tests/mutants.py

copies `src/` and `tests/` to a temporary directory and first runs each
test selection on the unmutated copy, which must pass.  It then applies
one mutant at a time and runs `pytest -x -q` on the row's test files in
a subprocess.  A mutant is killed when its tests fail, and survives when
they pass: the tests no longer tell the fault from the code.  The run
prints one line per mutant and exits 1 if any mutant survives or any run
ends other than by a passing or failing test.

Each source text occurs exactly once in its file, which the tier-1 test
`tests/test_mutants.py` checks, so a refactor that moves a line fails
loudly and updates the table.  The table only grows: removing a row
takes a CHANGES.md line saying why, for example that its code is gone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "kauffman")


class Mutant(NamedTuple):
    file: str  # under src/kauffman/
    text: str  # the exact source text, found once in the file
    replacement: str
    tests: tuple[str, ...]  # under tests/


MUTANTS: tuple[Mutant, ...] = (
    # normal_form's hI run: a bisect bound one higher gives the right answers more slowly
    Mutant("rewrite.py", "bisect_left(word, y.upper + 2, 0, p, key=_lower)",
           "bisect_left(word, y.upper + 3, 0, p, key=_lower)", ("test_rewrite.py",)),
    # the known-clean interval dropped after every firing: right answers, more classifying
    Mutant("rewrite.py", "lo = min(max(lo + shift, p + len(rhs)), hi)", "lo = hi",
           ("test_rewrite.py",)),
    # a right-hand side off by one
    Mutant("rewrite.py", "_new(Block, (k - 2, l))", "_new(Block, (k - 1, l))",
           ("test_rewrite.py",)),
    # hI's condition off by one
    Mutant("rewrite.py", "if j >= k + 2:", "if j >= k + 1:", ("test_rewrite.py",)),
    # _stack's circle test: a diapsis over a cup at the same place closes a circle
    Mutant("semantics.py", "if left == i + 1:", "if left == i:", ("test_semantics.py",)),
    # _rewire refuses a word at its limit as well as past it
    Mutant("semantics.py", "if expanded > limit:", "if expanded >= limit:",
           ("test_semantics.py",)),
    # slope points with the top and bottom edges swapped
    Mutant("diagrams.py", "return tuple(top), tuple(bottom)",
           "return tuple(bottom), tuple(top)", ("test_semantics.py",)),
    # peel's right cursor stepping one code at a time instead of past each partner
    Mutant("semantics.py", "right = m + 1 if m != n else -n",
           "right = right + 1 if right != n else -n", ("test_semantics.py",)),
)


def count_matches(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's source text occurs in its file under `root`."""
    return (root / PACKAGE / mutant.file).read_text().count(mutant.text)


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[int, str, float]:
    """Run `pytest -x -q` on the copy's test files: (exit code, first failure, seconds)."""
    # no bytecode is written or read: a mutant of the same size in the same second
    # would otherwise be served the unmutated module's cached code
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(str(Path("tests", f)) for f in tests)],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return proc.returncode, failed, time.perf_counter() - start


def main() -> int:
    bad = {m: count for m in MUTANTS if (count := count_matches(m)) != 1}
    for m, count in bad.items():
        print(f"{m.file}: {m.text!r} occurs {count} times, not once")
    if bad:
        return 1
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code, failed, seconds = _pytest(copy, tests)
            print(f"baseline {seconds:6.1f} s  {' '.join(tests)}: exit {code} {failed}".rstrip())
            if code != 0:
                print("the unmutated copy must pass its tests; no mutant was run")
                return 1
        for m in MUTANTS:
            path = copy / PACKAGE / m.file
            source = path.read_text()
            path.write_text(source.replace(m.text, m.replacement))
            try:
                code, failed, seconds = _pytest(copy, m.tests)
            finally:
                path.write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            ok &= code == 1
            print(f"{verdict:8} {seconds:6.1f} s  {m.file}: {m.text!r} -> {m.replacement!r}"
                  + (f"  by {failed}" if failed else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
