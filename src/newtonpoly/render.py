"""Deterministic ASCII and SVG pictures of Newton polygons.

Axes follow the customary diagram: the vertical axis carries the exponent
of y, the horizontal one the exponent of x.  Output is byte-deterministic
for golden tests.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Unrenderable
from .polygon import NewtonPolygon, _corners, _wall_floor_chain, boundary_at, is_inf


def _finite_geometry(p: NewtonPolygon):
    """Vertex chain plus ray markers; rejects doubly-infinite polygons."""
    if sum(not e.is_finite for e in p.edges) > 1:
        raise Unrenderable("polygon has two infinite directions")
    wall, floor, edges = _wall_floor_chain(p)
    chain = _corners(wall, floor, edges)
    vray = wall if wall != p.x_offset or (wall and (edges or floor)) else None
    return chain, vray, floor if floor != p.y_offset else None


def render_ascii(p: NewtonPolygon) -> str:
    """Lattice picture with '*' vertices and '+' edge lattice points.

    A vertical ray adds a row with '^' above the first vertex, and a
    horizontal floor a column with '-' right of the last one.
    """
    if p.is_trivial:
        return "exp y\n  0 | .\n    +----\n      0\n      (exp x)\nvertices: (none)\n"
    chain, vray, floor = _finite_geometry(p)
    width = chain[-1][0] + 1 + (floor is not None)
    height = chain[0][1] + 1 + (vray is not None)
    marks = {}
    for x, y in chain:
        marks[(x, y)] = "*"
    if vray is not None:
        marks[(vray, height - 1)] = "^"
    if floor is not None:
        marks[(width - 1, floor)] = "-"
    for x in range(width):
        b = boundary_at(p, x)
        if not is_inf(b) and b.denominator == 1 and (x, int(b)) not in marks:
            marks[(x, int(b))] = "+"
    lines = ["exp y"]
    for y in range(height - 1, -1, -1):
        row = [marks.get((x, y), ".") for x in range(width)]
        lines.append(f"{y:3d} | " + "  ".join(row))
    lines.append("    +-" + "---" * width)
    lines.append("      " + "  ".join(f"{x:d}" if x < 10 else "#" for x in range(width)))
    lines.append("      (exp x)")
    lines.append("vertices: " + " ".join(f"({x},{y})" for x, y in chain))
    if vray is not None:
        lines.append(f"vertical ray at x = {vray}")
    if floor is not None:
        lines.append(f"horizontal floor at y = {floor}")
    return "\n".join(lines) + "\n"


_SVG_UNIT = 24
_SVG_MARGIN = 48


def _px(x, y, height):
    return (
        _SVG_MARGIN + int(_SVG_UNIT * Fraction(x)),
        _SVG_MARGIN + int(_SVG_UNIT * Fraction(height)) - int(_SVG_UNIT * Fraction(y)),
    )


def render_svg(polys, labels=None, shade_between: bool = False) -> str:
    """SVG 1.1 document overlaying the given polygons.

    With shade_between=True and exactly two polygons, the area separating
    their boundaries is filled, visualising dominance.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("nothing to render")
    geoms = [_finite_geometry(p) for p in polys]
    width = max(max(x for x, _ in chain) for chain, _, _ in geoms) + 1
    height = max(max(y for _, y in chain) for chain, _, _ in geoms) + 1
    W = 2 * _SVG_MARGIN + _SVG_UNIT * (width + 1)
    H = 2 * _SVG_MARGIN + _SVG_UNIT * (height + 1)
    colors = ["#1f4e9c", "#c03020", "#2c8a4b", "#8a2ca0"]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    ox, oy = _px(0, 0, height)
    ax_top = _px(0, height, height)
    ax_right = _px(width, 0, height)
    out.append(
        f'<line x1="{ox}" y1="{oy}" x2="{ax_top[0]}" y2="{ax_top[1]}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{ox}" y1="{oy}" x2="{ax_right[0]}" y2="{ax_right[1]}" stroke="black"/>'
    )
    out.append(
        f'<text x="{ax_top[0] + 6}" y="{ax_top[1] + 12}" font-size="12">exp y</text>'
    )
    out.append(
        f'<text x="{ax_right[0] - 30}" y="{ax_right[1] - 8}" font-size="12">exp x</text>'
    )
    if shade_between and len(polys) == 2:
        upper, lower = geoms[0][0], geoms[1][0]
        pts = [_px(x, y, height) for x, y in upper]
        pts += [_px(x, y, height) for x, y in reversed(lower)]
        path = " ".join(f"{x},{y}" for x, y in pts)
        out.append(f'<polygon points="{path}" fill="#9db8e0" fill-opacity="0.5" stroke="none"/>')
    for idx, (p, (chain, vray, floor)) in enumerate(zip(polys, geoms)):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{x},{y}" for x, y in (_px(a, b, height) for a, b in chain))
        if len(chain) > 1:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for a, b in chain:
            cx, cy = _px(a, b, height)
            out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
            out.append(
                f'<text x="{cx + 5}" y="{cy - 5}" font-size="10" fill="{color}">({a},{b})</text>'
            )
        if vray is not None:
            bx, by = _px(vray, chain[0][1], height)
            tx, ty = _px(vray, height, height)
            out.append(
                f'<line x1="{bx}" y1="{by}" x2="{tx}" y2="{ty}" stroke="{color}" '
                f'stroke-width="2" stroke-dasharray="4 3"/>'
            )
        if labels and idx < len(labels):
            lx, ly = _px(chain[0][0], chain[0][1], height)
            out.append(
                f'<text x="{lx + 8}" y="{ly + 14 * (idx + 1)}" font-size="12" '
                f'fill="{color}">{labels[idx]}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
