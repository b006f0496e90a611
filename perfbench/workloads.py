"""Seeded request sets for the benchmark's three workloads.

A workload is a fixed list of CLI requests (a *pass*) that the benchmark
replays in order, pass after pass.  The list depends only on the workload
name and the seed, and it is built without importing the package under
test, so input generation costs the same whatever the package does.

Sizes follow a fixed ladder so that every seed puts the same amount of
work into each rung; the seed only changes the contents.  Term rungs are
(n, L) = (3..7, 4..30), (8, 100), (16, 400), (32, 1600), the last three
taken from the ROADMAP size ladder.  Successive words of one rung
alternate between a circle share of 18% and of 50%, and 18% of the
factors of every word are wide blocks h[b,a] with b > a.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CIRCLE_SHARES = (0.18, 0.5)
WIDE_SHARE = 0.18

# Term rungs: (n_lo, n_hi, L_lo, L_hi).
SMALL = (3, 7, 4, 30)
R100 = (8, 8, 100, 100)
R400 = (16, 16, 400, 400)
R1600 = (32, 32, 1600, 1600)

# Diagram rungs for term-of (n_lo, n_hi) and enumeration sizes (n_lo, n_hi).
D_SMALL, D16, D32, D64 = (2, 8), (16, 16), (32, 32), (64, 64)
E_SMALL, E6, E7 = (2, 5), (6, 6), (7, 7)

ARGV = {
    "nf": ("nf",),
    "nf --trace": ("nf", "--trace"),
    "eq": ("eq",),
    "malformed": ("nf",),
    "diagram": ("diagram",),
    "render svg": ("render", "--format", "svg"),
    "render ascii": ("render", "--format", "ascii"),
    "eq --cross-check": ("eq", "--cross-check"),
    "term-of slope": ("term-of", "--method", "slope"),
    "term-of peel": ("term-of", "--method", "peel"),
    "count": ("count", "--pairings"),
    "enum": ("enum", "--pairings"),
}

# (kind, rung, requests per pass).  The counts are set so that each kind
# (malformed terms aside) takes a comparable share of a pass's time at the
# seed commit; the measured shares are recorded in baseline.json.
PLANS = {
    "terms": (
        ("nf", SMALL, 200), ("nf", R100, 30), ("nf", R400, 6), ("nf", R1600, 2),
        ("nf --trace", SMALL, 150), ("nf --trace", R100, 30),
        ("nf --trace", R400, 6), ("nf --trace", R1600, 2),
        ("eq", SMALL, 300), ("eq", R100, 60), ("eq", R400, 20), ("eq", R1600, 8),
        ("malformed", SMALL, 40),
    ),
    "to-diagram": (
        ("diagram", SMALL, 190), ("diagram", R100, 40), ("diagram", R400, 13),
        ("diagram", R1600, 2),
        ("render svg", SMALL, 95), ("render svg", R100, 19), ("render svg", R400, 6),
        ("render svg", R1600, 1),
        ("render ascii", SMALL, 95), ("render ascii", R100, 19),
        ("render ascii", R400, 6), ("render ascii", R1600, 1),
        ("eq --cross-check", SMALL, 60), ("eq --cross-check", R100, 12),
        ("eq --cross-check", R400, 2), ("eq --cross-check", R1600, 1),
    ),
    "from-diagram": (
        ("term-of slope", D_SMALL, 300), ("term-of slope", D16, 120),
        ("term-of slope", D32, 50), ("term-of slope", D64, 25),
        ("term-of peel", D_SMALL, 100), ("term-of peel", D16, 40),
        ("term-of peel", D32, 20), ("term-of peel", D64, 3),
        ("count", E_SMALL, 30), ("count", E6, 3), ("count", E7, 1),
        ("enum", E_SMALL, 30), ("enum", E6, 3), ("enum", E7, 1),
    ),
}

WORKLOADS = tuple(PLANS)


@dataclass(frozen=True)
class Request:
    """One CLI request and what its check needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    n: int
    terms: tuple[str, ...] = ()  # term arguments: factors separated by spaces
    stdin: str = ""              # diagram JSON for term-of


def random_word(rng: random.Random, n: int, length: int, circle_share: float) -> list[str]:
    """Factors of a random word: exact circle and wide-block counts, shuffled."""
    circles = round(circle_share * length)
    wide = round(WIDE_SHARE * length) if n >= 3 else 0
    factors = ["c"] * circles
    for _ in range(wide):
        b = rng.randint(2, n - 1)
        factors.append(f"h[{b},{rng.randint(1, b - 1)}]")
    factors.extend(f"h{rng.randint(1, n - 1)}" for _ in range(length - circles - wide))
    rng.shuffle(factors)
    return factors


def equal_variant(rng: random.Random, factors: list[str]) -> list[str]:
    """A different word for the same monoid element.

    Uses only defining equations: a wide block is its descending product of
    diapsides, circles are central, and diapsides at distance >= 2 commute.
    """
    word: list[str] = []
    for f in factors:
        if f.startswith("h["):
            b, a = map(int, f[2:-1].split(","))
            word.extend(f"h{i}" for i in range(b, a - 1, -1))
        elif f != "c":
            word.append(f)
    for _ in range(len(word) // 4):
        p = rng.randrange(len(word) - 1) if len(word) > 1 else 0
        if p + 1 < len(word) and abs(int(word[p][1:]) - int(word[p + 1][1:])) >= 2:
            word[p], word[p + 1] = word[p + 1], word[p]
    for _ in range(factors.count("c")):
        word.insert(rng.randint(0, len(word)), "c")
    return word


def malformed_word(rng: random.Random, n: int, factors: list[str]) -> list[str]:
    """Insert one factor that parse must reject (ParseError or DomainError)."""
    bad = rng.choice(("h0", f"h{n}", "h[1,2]", f"h[{n},1]", "x", "c^", "h"))
    word = list(factors)
    word.insert(rng.randint(0, len(word)), bad)
    return word


def random_dyck_pairs(rng: random.Random, n: int) -> list[list[int]]:
    """A random planar pairing on codes -n..-1, 1..n, in canonical order."""
    codes = [*range(-n, 0), *range(1, n + 1)]
    stack: list[int] = []
    pairs: list[list[int]] = []
    opens = n
    for code in codes:
        if opens and (not stack or rng.random() < 0.5):
            stack.append(code)
            opens -= 1
        else:
            pairs.append([stack.pop(), code])
    pairs.sort()
    return pairs


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one pass, deterministic in (workload, seed)."""
    if workload not in PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    requests: list[Request] = []
    rung_words: dict[tuple, int] = {}   # words made so far per rung
    diagrams: dict[tuple, list[str]] = {}  # term-of inputs per rung

    def word(rung) -> tuple[int, list[str]]:
        k = rung_words.get(rung, 0)
        rung_words[rung] = k + 1
        n = rng.randint(rung[0], rung[1])
        length = rng.randint(rung[2], rung[3])
        return n, random_word(rng, n, length, CIRCLE_SHARES[k % 2])

    for kind, rung, count in PLANS[workload]:
        for i in range(count):
            if kind.startswith("term-of"):
                pool = diagrams.setdefault(rung, [])
                if kind == "term-of slope":
                    n = rng.randint(*rung)
                    pool.append(json.dumps({"n": n, "pairs": random_dyck_pairs(rng, n),
                                            "circles": rng.randint(0, 3)}))
                blob = pool[i]  # peel requests reuse slope inputs, so both are compared
                requests.append(Request(kind, ARGV[kind], json.loads(blob)["n"], stdin=blob))
            elif kind in ("count", "enum"):
                n = rng.randint(*rung)
                requests.append(Request(kind, (*ARGV[kind], "-n", str(n)), n))
            else:
                n, t = word(rung)
                if kind.startswith("eq"):
                    u = equal_variant(rng, t) if i // 2 % 2 == 0 else word_for(rng, n, t)
                    texts = (" ".join(t), " ".join(u))
                elif kind == "malformed":
                    texts = (" ".join(malformed_word(rng, n, t)),)
                else:
                    texts = (" ".join(t),)
                requests.append(Request(kind, (*ARGV[kind], "-n", str(n), *texts), n, texts))
    rng.shuffle(requests)
    return requests


def word_for(rng: random.Random, n: int, like: list[str]) -> list[str]:
    """An independent random word with the length and circle share of `like`."""
    return random_word(rng, n, len(like), like.count("c") / len(like) if like else 0.0)
