import xml.etree.ElementTree as ET

import pytest

from kauffman import (
    Diagram,
    DomainError,
    canvas_height,
    delta,
    enumerate_pairings,
    parse,
    render,
    render_ascii,
)

from helpers import diapsis_diagram, identity

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
