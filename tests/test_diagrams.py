import json
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import (
    Diagram,
    DomainError,
    compose,
    delta,
    delta_block,
    enumerate_pairings,
    from_json_dict,
    is_planar_pairing,
    parenword_to_pairing,
    parse,
    slope_points,
    span,
    to_json_dict,
)

from helpers import (compose_oracle, covers, diapsis_diagram, identity, is_exact_cover,
                     is_planar_matching, thread_class)


def with_circles(d: Diagram, k: int) -> Diagram:
    return Diagram(d.n, d.pairs, k)


def test_identity_pairing():
    assert identity(2).pairs == ((-2, 2), (-1, 1))
    assert identity(2).circles == 0


def test_identity_span_and_threads():
    assert span(identity(3)) == 0
    classes = [thread_class(p) for p in identity(5).pairs]
    assert all(c.kind == "transversal" and c.vertical for c in classes)


def test_diapsis_diagram_shape():
    d = delta_block(2, 1, 1)
    assert d.pairs == ((-2, -1), (1, 2))
    kinds = sorted(thread_class(p).kind for p in delta_block(4, 2, 2).pairs)
    assert kinds == ["cap", "cup", "transversal", "transversal"]


def test_diapsis_diagram_span():
    for n, i in [(2, 1), (5, 3), (7, 1)]:
        assert span(delta_block(n, i, i)) == 2


def test_diapsis_diagram_rejects_bad_index():
    with pytest.raises(DomainError):
        delta_block(3, 3, 3)
    with pytest.raises(DomainError):
        delta_block(3, 0, 0)


def test_circle_diagram():
    c = with_circles(identity(4), 1)
    assert delta(parse("c", 4)) == c
    assert compose(c, identity(4)).circles == 1
    assert compose(c, c) == with_circles(identity(4), 2) == delta(parse("c c", 4))


def test_compose_closes_a_loop():
    h = diapsis_diagram(2, 1)
    out = compose(h, h)
    assert out.pairs == ((-2, -1), (1, 2))
    assert out.circles == 1


def test_compose_hand_traced_example():
    # bottom H^1, top H^2 at n = 3: top cup survives, one long transversal
    out = compose(diapsis_diagram(3, 1), diapsis_diagram(3, 2))
    assert out == Diagram(3, ((-3, 1), (-2, -1), (2, 3)))


def test_compose_rejects_size_mismatch():
    with pytest.raises(DomainError):
        compose(identity(2), identity(3))


def test_compose_unit_laws():
    for n in range(1, 5):
        for d in enumerate_pairings(n):
            d = with_circles(d, 1)
            assert compose(identity(n), d) == d
            assert compose(d, identity(n)) == d


def test_compose_matches_component_oracle():
    for n in range(1, 5):
        pool = enumerate_pairings(n)
        for a, b in product(pool, repeat=2):
            assert compose(a, b) == compose_oracle(a, b)


def random_pairing(rng: random.Random, n: int, circles: int) -> Diagram:
    """A planar pairing read off a random balanced bracket word, plus circles."""
    word, opened = "", 0
    while len(word) < 2 * n:
        close = opened > len(word) - opened and (opened == n or rng.random() < 0.5)
        word += ")" if close else "("
        opened += not close
    return Diagram(n, parenword_to_pairing(word, n).pairs, circles)


def test_compose_matches_component_oracle_on_random_pairings():
    rng = random.Random(20)
    for _ in range(400):
        n = rng.randint(1, 40)
        a, b = (random_pairing(rng, n, rng.randint(0, 2)) for _ in range(2))
        assert compose(a, b) == compose_oracle(a, b), (a, b)


def test_compose_closes_one_circle_per_loop_at_large_n():
    # all-adjacent cups over all-adjacent caps: every cap of the top meets a cup below
    n = 20000
    cups_and_caps = Diagram(n, tuple(p for i in range(1, n, 2)
                                     for p in ((i, i + 1), (-(i + 1), -i))))
    out = compose(cups_and_caps, cups_and_caps)
    assert out == Diagram(n, cups_and_caps.pairs, n // 2)


def test_compose_associative_exhaustive_n3():
    pool = enumerate_pairings(3)
    for a, b, c in product(pool, repeat=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=60)
@given(st.data())
def test_compose_associative_sampled_n5(data):
    pool = enumerate_pairings(5)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    c = data.draw(st.sampled_from(pool))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_planarity_rejects_crossings():
    with pytest.raises(DomainError):
        Diagram(2, ((1, -2), (2, -1)))


def test_diagram_rejects_non_matchings():
    with pytest.raises(DomainError):
        Diagram(2, ((1, 2), (1, -1)))
    with pytest.raises(DomainError):
        Diagram(2, ((1, 2),))
    with pytest.raises(DomainError):
        Diagram(2, ((1, 2), (-1, -3)))
    # size, circle count and codes must be int itself: bool, float and str are refused
    for args in [(True, ((-1, 1),), True), (1, ((-1, 1),), True), (1.0, ((-1, 1),)),
                 ("1", ((-1, 1),)), (1, ((-1, 1),), 0.0), (2, ((-2, -1), (1, 2.0))),
                 (2, ((-2, -1), (True, 2))), (2, ((-2, -1), ("1", 2)))]:
        with pytest.raises(DomainError):
            Diagram(*args)


def test_equivalence_is_structural_equality():
    h = diapsis_diagram(3, 1)
    assert h == diapsis_diagram(3, 1)
    assert h != with_circles(h, 1)


def test_covers():
    assert not covers((-3, 3), 2)          # vertical covers nothing except its column
    assert not covers((-3, 3), 3)
    assert covers((1, 2), 1)
    assert not covers((1, 2), 2)
    assert covers((-4, 1), 2)


def test_even_covering_everywhere():
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            for m in range(1, n):
                assert sum(covers(p, m) for p in d.pairs) % 2 == 0


def test_cups_equal_caps_and_even_span():
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            cups = sum(1 for a, b in d.pairs if a > 0)
            caps = sum(1 for a, b in d.pairs if b < 0)
            assert cups == caps
            assert span(d) % 2 == 0


def test_slope_points_identity_empty():
    assert slope_points(identity(6)) == ((), ())


def test_slope_points_balanced():
    for n in range(2, 6):
        for d in enumerate_pairings(n):
            top, bottom = slope_points(d)
            assert len(top) == len(bottom)


def test_thread_class_falling():
    assert thread_class((-3, 1)) == thread_class((-3, 1))
    cls = thread_class((-3, 1))   # top 1 descending to bottom 3
    assert cls.kind == "transversal" and cls.falling and not cls.vertical
    cls = thread_class((-1, 3))   # bottom 1 rising to top 3
    assert cls.kind == "transversal" and not cls.falling
    assert thread_class((2, 3)).kind == "cup"
    assert thread_class((-3, -2)).kind == "cap"


def test_json_round_trip():
    d = with_circles(diapsis_diagram(4, 2), 3)
    blob = json.dumps(to_json_dict(d))
    assert from_json_dict(json.loads(blob)) == d


def test_json_format_is_sorted_min_first():
    payload = to_json_dict(compose(diapsis_diagram(3, 1), diapsis_diagram(3, 2)))
    assert payload == {"n": 3, "pairs": [[-3, 1], [-2, -1], [2, 3]], "circles": 0}


@pytest.mark.parametrize("obj", [
    [],
    {"n": 2, "pairs": [[1, 2], [-1, -2]]},
    {"n": "2", "pairs": [[1, 2], [-2, -1]], "circles": 0},
    {"n": 2, "pairs": [[1, -2], [2, -1]], "circles": 0},
    {"n": 2, "pairs": "nope", "circles": 0},
    {"n": 2, "pairs": [["-2", "-1"], [1.9, 2]], "circles": 0},
    {"n": 2, "pairs": [[-2, -1], [1, 2]], "circles": True},
    {"n": True, "pairs": [[-1, 1]], "circles": 0},
    {"n": 2, "pairs": [[-2, -1], [True, 2]], "circles": 0},
    {"n": 2, "pairs": [[-2, -1], [1, 2.0]], "circles": 0},
    {"n": 2, "pairs": [[-2, -1], "12"], "circles": 0},
])
def test_json_validation(obj):
    with pytest.raises(DomainError):
        from_json_dict(obj)


def test_oversized_json_size_is_refused_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            from_json_dict({"n": 10**6, "pairs": [], "circles": 0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _planar_matching(draw, codes: list[int]) -> list[tuple[int, int]]:
    """A planar matching of the codes: the first one pairs across an even stretch."""
    if not codes:
        return []
    k = 2 * draw(st.integers(0, len(codes) // 2 - 1)) + 1
    return ([(codes[0], codes[k])] + _planar_matching(draw, codes[1:k])
            + _planar_matching(draw, codes[k + 1:]))


@st.composite
def pair_lists_st(draw):
    """Shuffled, flipped pair lists over codes -n-1..n+1, valid or damaged."""
    n = draw(st.integers(1, 7))
    codes = [*range(-n, 0), *range(1, n + 1)]
    code = st.integers(-n - 1, n + 1)
    source = draw(st.sampled_from(["planar", "planar", "matching", "arbitrary"]))
    if source == "planar":
        pairs = _planar_matching(draw, codes)
    elif source == "matching":
        order = draw(st.permutations(codes))
        pairs = [(order[k], order[k + 1]) for k in range(0, 2 * n, 2)]
    else:
        pairs = draw(st.lists(st.tuples(code, code), min_size=n - 1, max_size=n + 1))
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(pairs))]
    damage = draw(st.sampled_from(["none", "none", "recode", "drop", "add", "swap"]))
    if damage == "recode" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(code))
    elif damage == "drop" and pairs:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif damage == "add":
        pairs.append(draw(st.tuples(code, code)))
    elif damage == "swap" and len(pairs) > 1:
        i, j = draw(st.permutations(range(len(pairs))))[:2]
        (a, b), (c, e) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, e), (c, b)
    return n, tuple(pairs)


@settings(max_examples=400)
@given(pair_lists_st())
def test_walk_accepts_exactly_the_planar_matchings(case):
    n, pairs = case
    planar = is_planar_matching(pairs, n)
    assert is_planar_pairing(pairs, n) == planar
    if not planar:
        with pytest.raises(DomainError) as refused:
            Diagram(n, pairs)
        # a pairing that misses a code is reported as such, crossing or not
        assert ("crossing" in str(refused.value)) == is_exact_cover(pairs, n)
        return
    d = Diagram(n, pairs)
    assert d.pairs == tuple(sorted((min(p), max(p)) for p in pairs))
    assert d.involution == {**dict(pairs), **{b: a for a, b in pairs}}
    other = Diagram(n, tuple((b, a) for a, b in reversed(pairs)))
    assert other == d and hash(other) == hash(d)
    assert "involution" not in repr(d)


def test_is_planar_pairing_direct():
    assert is_planar_pairing([(-1, 1), (-2, 2)], 2)
    assert not is_planar_pairing([(-2, 1), (-1, 2)], 2)


def test_compose_preserves_planarity_closure():
    # constructor re-validates, so reaching here means every composite is planar
    pool = enumerate_pairings(4)
    for a, b in product(pool[:7], pool[:7]):
        composite = compose(a, b)
        assert is_planar_pairing(composite.pairs, 4)
