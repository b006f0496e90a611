"""Drawings of diagrams: straight transversals, semicircular cups and caps.

The logical canvas is the rectangle [0, n+1] x [0, a(n)] with
a(n) = max(5, (n-1)(n-2)/2), which leaves room for the steepest
transversal.  Circles are stacked along the left margin.  SVG output uses
only line, path (arc commands), circle and text elements, so drawings can
be checked by counting elements: one line per transversal, one arc per
cup or cap, one small circle per circle component.  ASCII output is a
coarse raster over the characters | / \\ _ o.  A raster of more than
MAX_ASCII_CELLS cells, or an SVG canvas whose size is not a finite
float, is refused with DomainError.
"""

from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET

from .diagrams import Diagram
from .terms import DomainError

UNITS = {"svg": 24.0, "ascii": 4.0}  # default pixels (svg) or character columns per step
MAX_ASCII_CELLS = 4_000_000  # largest ascii raster, rows times columns


def canvas_height(n: int) -> int:
    """Logical height a(n) of the drawing rectangle."""
    return max(5, (n - 1) * (n - 2) // 2)


def _split(d: Diagram):
    cups, caps, trans = [], [], []
    for lo, hi in d.pairs:
        if lo > 0:
            cups.append((lo, hi))
        elif hi < 0:
            caps.append((-hi, -lo))
        else:
            trans.append((hi, -lo))  # (top position, bottom position)
    return cups, caps, trans


def _unit(unit: float) -> float:
    """The unit as a float; it must be a positive finite int or float."""
    # type() rather than isinstance(): bool is an int subclass and is refused too
    if type(unit) not in (int, float) or not 0 < unit <= sys.float_info.max:
        raise DomainError("unit must be a positive finite int or float")
    return float(unit)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(d: Diagram, unit: float = UNITS["svg"], show_labels: bool = False) -> str:
    unit = _unit(unit)
    n, height = d.n, canvas_height(d.n)
    if not math.isfinite(max(n + 1, height) * unit):
        raise DomainError(f"svg canvas of {n + 1} x {height} units of {unit} is not finite")

    def x(pos: float) -> float:
        return pos * unit

    def y(v: float) -> float:
        return (height - v) * unit  # diagram y grows upward, svg y downward

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
    # sweep flag 0 bows a left-to-right arc toward +y (down into the canvas), 1 up
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


def render_ascii(d: Diagram, unit: float = UNITS["ascii"], show_labels: bool = False) -> str:
    unit = _unit(unit)
    n = d.n
    cols = max(2, round(unit))
    cups, caps, trans = _split(d)

    def depth(left: int, right: int) -> int:
        return max(1, (right - left) * cols // 2)

    top_depth = max((depth(*c) for c in cups), default=0)
    bot_depth = max((depth(*c) for c in caps), default=0)
    diag = max((abs(t - b) * cols for t, b in trans), default=0)
    rows = max(5, top_depth + bot_depth + 3, diag + 2)

    rows_avail = max(rows - 2, 1)
    circle_cols = 2 * math.ceil(d.circles / rows_avail) if d.circles else 0
    margin = max(3, circle_cols + 2)

    def x(pos: int) -> int:
        return margin + (pos - 1) * cols

    width = x(n) + 2
    if rows * width > MAX_ASCII_CELLS:
        raise DomainError(f"ascii drawing of {rows} x {width} cells exceeds {MAX_ASCII_CELLS}")
    grid = [[" "] * width for _ in range(rows)]

    for top, bottom in trans:
        row, col, target = 0, x(top), x(bottom)
        step = 1 if target > col else -1 if target < col else 0
        ch = "\\" if step > 0 else "/"
        while col != target:
            grid[row][col] = ch
            row += 1
            col += step
        while row < rows:
            grid[row][col] = "|"
            row += 1
    # a cup's stems run from row 0 down to its base, a cap's from its base down to the last row
    for arcs, is_cup, ends in ((cups, True, "\\/"), (caps, False, "/\\")):
        for left, right in arcs:
            dep = depth(left, right)
            base = dep if is_cup else rows - 1 - dep
            lcol, rcol = x(left), x(right)
            for r in range(base) if is_cup else range(base + 1, rows):
                grid[r][lcol] = grid[r][rcol] = "|"
            line = grid[base]
            line[lcol], line[rcol] = ends
            line[lcol + 1:rcol] = "_" * (rcol - lcol - 1)
    for k in range(d.circles):
        grid[rows - 2 - (k % rows_avail)][2 * (k // rows_avail)] = "o"

    lines = ["".join(row).rstrip() for row in grid]
    if show_labels:
        header = [" "] * width
        for i in range(1, n + 1):
            header[x(i)] = str(i % 10)
        label = "".join(header).rstrip()
        lines = [label] + lines + [label]
    return "\n".join(lines)


def render(d: Diagram, format: str = "svg", unit: float | None = None,
           show_labels: bool = False) -> str:
    """Render a diagram as svg or ascii; unit defaults to the format's UNITS entry."""
    if format not in UNITS:
        raise DomainError(f"format must be one of {tuple(UNITS)}, got {format!r}")
    draw = render_svg if format == "svg" else render_ascii
    return draw(d, UNITS[format] if unit is None else unit, show_labels)
