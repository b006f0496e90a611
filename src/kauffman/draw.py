"""Drawings of diagrams: straight transversals, semicircular cups and caps.

The logical canvas is the rectangle [0, n+1] x [0, a(n)] with
a(n) = max(5, (n-1)(n-2)/2), which leaves room for the steepest
transversal.  Circles are stacked along the left margin.  SVG output uses
only line, path (arc commands), circle and text elements, so drawings can
be checked by counting elements: one line per transversal, one arc per
cup or cap, one small circle per circle component.  The SVG is yielded
one string per element, for `render` to join or the CLI to write in
chunks; no value needs escaping.  ASCII output is a coarse raster over
the characters | / \\ _ o.  A raster of more than MAX_ASCII_CELLS cells,
or an SVG canvas whose size is not a finite float, is refused with
DomainError.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator

from .diagrams import Diagram
from .terms import DomainError

UNITS = {"svg": 24.0, "ascii": 4.0}  # default pixels (svg) or character columns per step
MAX_ASCII_CELLS = 4_000_000  # largest ascii raster, rows times columns


def canvas_height(n: int) -> int:
    """Logical height a(n) of the drawing rectangle."""
    return max(5, (n - 1) * (n - 2) // 2)


def _split(d: Diagram):
    n, mates = d.n, d.mates
    cups = ((c, mates[c]) for c in range(1, n + 1) if c < mates[c])
    caps = ((-mates[c], -c) for c in range(-n, 0) if c < mates[c] < 0)
    trans = ((mates[c], -c) for c in range(-n, 0) if mates[c] > 0)  # (top, bottom)
    return cups, caps, trans


def _unit(unit: float) -> float:
    """The unit as a float; it must be a positive finite int or float."""
    # type() rather than isinstance(): bool is an int subclass and is refused too
    if type(unit) not in (int, float) or not 0 < unit <= sys.float_info.max:
        raise DomainError("unit must be a positive finite int or float")
    return float(unit)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(d: Diagram, unit: float = UNITS["svg"], show_labels: bool = False) -> Iterator[str]:
    """The SVG text, one f-string per element, yielded as it is made, the first after the checks.

    Nothing is escaped, and nothing needs to be: every attribute value and
    text node is a `_fmt` number, a label's digits or the M/A commands of
    a path.  Each group holds at least one element, since n >= 1.
    """
    unit = _unit(unit)
    n, height = d.n, canvas_height(d.n)
    if not math.isfinite(max(n + 1, height) * unit):
        raise DomainError(f"svg canvas of {n + 1} x {height} units of {unit} is not finite")

    def x(pos: float) -> str:
        return _fmt(pos * unit)

    def y(v: float) -> float:
        return (height - v) * unit  # diagram y grows upward, svg y downward

    w, h, top, bottom = x(n + 1), _fmt(height * unit), _fmt(y(height)), _fmt(y(0))
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
           f' viewBox="0 0 {w} {h}">'
           f'<g fill="none" stroke="black" stroke-width="{_fmt(max(1.0, unit / 16))}">')
    cups, caps, trans = _split(d)
    for t, b in trans:
        yield f'<line x1="{x(t)}" y1="{top}" x2="{x(b)}" y2="{bottom}" />'
    # sweep flag 0 bows a left-to-right arc toward +y (down into the canvas), 1 up
    for arcs, edge, sweep in ((cups, top, 0), (caps, bottom, 1)):
        for left, right in arcs:
            r = _fmt((right - left) / 2 * unit)
            yield f'<path d="M {x(left)} {edge} A {r} {r} 0 0 {sweep} {x(right)} {edge}" />'
    if d.circles:
        spacing = min(1.0, (height - 1) / d.circles)
        cx, r = x(0.5), _fmt(min(0.25, spacing / 3) * unit)
        for k in range(d.circles):
            yield f'<circle cx="{cx}" cy="{_fmt(y(0.5 + k * spacing))}" r="{r}" />'
    yield "</g>"
    if show_labels:
        yield f'<g font-size="{_fmt(unit / 2)}" text-anchor="middle">'
        above, below = _fmt(y(height) + unit / 2), _fmt(y(0) - unit / 5)
        for i in range(1, n + 1):
            yield (f'<text x="{x(i)}" y="{above}">{i}</text>'
                   f'<text x="{x(i)}" y="{below}">{i}</text>')
        yield "</g>"
    yield "</svg>"


def render_ascii(d: Diagram, unit: float = UNITS["ascii"], show_labels: bool = False) -> str:
    unit = _unit(unit)
    n = d.n
    cols = max(2, round(unit))
    cups, caps, trans = map(list, _split(d))  # the raster's size needs the depth maxima first

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


def render_pieces(d: Diagram, format: str, unit: float | None, show_labels: bool) -> Iterable[str]:
    """`render`'s text in pieces: the SVG element by element, an ASCII raster whole."""
    if format not in UNITS:
        raise DomainError(f"format must be one of {tuple(UNITS)}, got {format!r}")
    unit = UNITS[format] if unit is None else unit
    return (render_svg(d, unit, show_labels) if format == "svg"
            else (render_ascii(d, unit, show_labels),))


def render(d: Diagram, format: str = "svg", unit: float | None = None,
           show_labels: bool = False) -> str:
    """Render a diagram as svg or ascii; unit defaults to the format's UNITS entry."""
    return "".join(render_pieces(d, format, unit, show_labels))
