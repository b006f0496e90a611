import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman import (
    Diagram,
    DomainError,
    delta,
    enumerate_pairings,
    parse,
    render,
)
from kauffman.draw import canvas_height, render_ascii

from helpers import diapsis_diagram, identity, render_svg_reference, terms_st

ALLOWED_ASCII = set("|/\\_o \n")


def svg_counts(svg: str) -> dict:
    root = ET.fromstring(svg)
    counts = {"line": 0, "path": 0, "circle": 0, "text": 0}
    for node in root.iter():
        local = node.tag.rsplit("}", 1)[-1]
        if local in counts:
            counts[local] += 1
    return counts


def test_canvas_height():
    assert canvas_height(2) == 5
    assert canvas_height(3) == 5
    assert canvas_height(11) == 45


# Nested cups and caps, a transversal slanting each way and two circles.
GOLDEN_DIAGRAM = Diagram(10, ((1, 4), (2, 3), (6, 7), (8, 9), (5, -7), (10, -8),
                              (-1, -6), (-2, -5), (-3, -4), (-9, -10)), 2)
GOLDEN_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="264" height="864" viewBox="0 0 264 864">'
    '<g fill="none" stroke="black" stroke-width="1.5">'
    '<line x1="240" y1="0" x2="192" y2="864" /><line x1="120" y1="0" x2="168" y2="864" />'
    '<path d="M 24 0 A 36 36 0 0 0 96 0" /><path d="M 48 0 A 12 12 0 0 0 72 0" />'
    '<path d="M 144 0 A 12 12 0 0 0 168 0" /><path d="M 192 0 A 12 12 0 0 0 216 0" />'
    '<path d="M 216 864 A 12 12 0 0 1 240 864" />'
    '<path d="M 24 864 A 60 60 0 0 1 144 864" />'
    '<path d="M 48 864 A 36 36 0 0 1 120 864" />'
    '<path d="M 72 864 A 12 12 0 0 1 96 864" /><circle cx="12" cy="852" r="6" />'
    '<circle cx="12" cy="828" r="6" /></g><g font-size="12" text-anchor="middle">'
    '<text x="24" y="12">1</text><text x="24" y="859.2">1</text>'
    '<text x="48" y="12">2</text><text x="48" y="859.2">2</text>'
    '<text x="72" y="12">3</text><text x="72" y="859.2">3</text>'
    '<text x="96" y="12">4</text><text x="96" y="859.2">4</text>'
    '<text x="120" y="12">5</text><text x="120" y="859.2">5</text>'
    '<text x="144" y="12">6</text><text x="144" y="859.2">6</text>'
    '<text x="168" y="12">7</text><text x="168" y="859.2">7</text>'
    '<text x="192" y="12">8</text><text x="192" y="859.2">8</text>'
    '<text x="216" y="12">9</text><text x="216" y="859.2">9</text>'
    '<text x="240" y="12">10</text><text x="240" y="859.2">10</text></g></svg>'
)
GOLDEN_ASCII = r"""
    1   2   3   4   5   6   7   8   9   0
    |   |   |   |   \   |   |   |   |   /
    |   |   |   |    \  |   |   |   |  /
    |   \___/   |     \ \___/   \___/ /
    |           |      \             /
    |           |       \           /
    |           |        \         /
    \___________/         \       /
                           \     /
    /___________________\   |   |
    |                   |   |   |
    |                   |   |   |
    |                   |   |   |
    |   /___________\   |   |   |
    |   |           |   |   |   |
    |   |           |   |   |   |
    |   |           |   |   |   |
o   |   |   /___\   |   |   |   |   /___\
o   |   |   |   |   |   |   |   |   |   |
    |   |   |   |   |   |   |   |   |   |
    1   2   3   4   5   6   7   8   9   0
"""


def test_golden_drawings():
    assert render(GOLDEN_DIAGRAM, "svg", show_labels=True) == GOLDEN_SVG
    assert "\n" + render(GOLDEN_DIAGRAM, "ascii", show_labels=True) + "\n" == GOLDEN_ASCII


UNITS_ST = (st.integers(1, 10**9)
            | st.floats(0.001, 100.0)
            | st.floats(1e5, 1e300))


@settings(max_examples=300, deadline=None)
@given(terms_st(max_n=40, max_len=60), UNITS_ST, st.booleans())
def test_svg_is_byte_identical_to_the_element_tree_writer(t, unit, labels):
    d = delta(t)
    assert render(d, "svg", unit, labels) == render_svg_reference(d, unit, labels)


def test_identity_svg_has_only_lines():
    counts = svg_counts(render(identity(3)))
    assert counts["line"] == 3
    assert counts["path"] == 0
    assert counts["circle"] == 0


def test_diapsis_svg_has_one_line_two_arcs():
    counts = svg_counts(render(diapsis_diagram(3, 1)))
    assert counts["line"] == 1
    assert counts["path"] == 2


def test_worked_example_svg_margin_circles():
    d = delta(parse("c^6 h[3,1] h[4,4] h[7,7] h[9,8] h[10,9]", 11))
    assert svg_counts(render(d))["circle"] == 6


def test_svg_element_counts_match_thread_classes():
    for n in range(1, 5):
        for base in enumerate_pairings(n):
            d = Diagram(base.n, base.pairs, 2)
            counts = svg_counts(render(d))
            transversals = sum(1 for a, b in d.pairs if a < 0 < b)
            assert counts["line"] == transversals
            assert counts["path"] == d.n - transversals
            assert counts["circle"] == 2


def test_svg_labels_toggle():
    counts = svg_counts(render(identity(4), show_labels=True))
    assert counts["text"] == 8
    assert svg_counts(render(identity(4)))["text"] == 0


def test_ascii_charset_and_circle_count():
    for n in range(2, 5):
        for base in enumerate_pairings(n):
            d = Diagram(base.n, base.pairs, 3)
            art = render(d, format="ascii")
            assert set(art) <= ALLOWED_ASCII
            assert art.count("o") == 3


def test_ascii_touches_every_top_position():
    art = render(delta(parse("h1 h3 c", 4)), format="ascii", unit=4)
    top = art.splitlines()[0]
    # every thread reaches the top boundary, so row 0 holds n marks
    assert sum(1 for ch in top if ch in "|/\\") == 4


def test_ascii_labels():
    art = render(identity(3), format="ascii", show_labels=True)
    assert art.splitlines()[0].count("1") == 1


def test_render_options_validation():
    with pytest.raises(DomainError):
        render(identity(2), format="png")
    for fmt in ("svg", "ascii"):
        for unit in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                render(identity(2), format=fmt, unit=unit)


def test_render_refuses_a_bool_unit():
    # True would otherwise draw silently with unit 1
    with pytest.raises(DomainError):
        render(identity(2), "svg", True)


@pytest.mark.parametrize("unit", ["3", 2j, 10**400], ids=["str", "complex", "int-over-float-max"])
def test_render_refuses_a_unit_that_is_not_a_finite_int_or_float(unit):
    for fmt in ("svg", "ascii"):
        with pytest.raises(DomainError):
            render(identity(2), fmt, unit)


def test_ascii_raster_is_bounded():
    # about 4.5 M cells from the unit; about 5.8 M from the nested cups and caps at n = 600
    rainbow = Diagram(600, tuple(p for i in range(1, 301)
                                 for p in ((i, 601 - i), (-(601 - i), -i))))
    for d, unit in [(diapsis_diagram(3, 1), 1500), (rainbow, 4)]:
        with pytest.raises(DomainError, match="cells"):
            render_ascii(d, unit=unit)


def test_svg_is_well_formed_for_tall_diagrams():
    d = delta(parse("c^12 h1", 2))
    counts = svg_counts(render(d))
    assert counts["circle"] == 12
