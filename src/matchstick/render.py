"""SVG emission: unit edges as segments, lattice components color-coded,
boundary highlighted.  Pure output target, no interactivity."""

from __future__ import annotations

from .graph import MatchstickGraph, boundary, connectivity

SCALE = 48.0  # SVG units per unit of length
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#17becf", "#8c564b", "#e377c2")


def render_svg(g: MatchstickGraph, report=None) -> str:
    """Render a graph to an SVG document string.

    When a DecompositionReport is given, edges are colored by their lattice
    component; for 2-connected graphs the outer boundary is overdrawn thicker.
    """
    pos = g.positions()
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    pad = 0.6
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad
    width = (maxx - minx) * SCALE
    height = (maxy - miny) * SCALE

    # each vertex's SVG coordinates, formatted once (y flipped for SVG)
    pt = {v: (f"{(x - minx) * SCALE:.2f}", f"{(maxy - y) * SCALE:.2f}")
          for v, (x, y) in pos.items()}

    edge_color = {}
    if report is not None:
        for ci, comp in enumerate(report.components):
            color = PALETTE[ci % len(PALETTE)]
            for e in comp.edges:
                edge_color.setdefault(e, color)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">',
    ]
    for a, b in g.edges:
        (x1, y1), (x2, y2) = pt[a], pt[b]
        color = edge_color.get((a, b), "#888888")  # g.edges holds (a, b) with a < b
        lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="{color}" stroke-width="2"/>')
    if g.validated and connectivity(g).two_connected:
        cycle, _ = boundary(g)
        for i in range(len(cycle)):
            (x1, y1), (x2, y2) = pt[cycle[i]], pt[cycle[(i + 1) % len(cycle)]]
            lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke="#000000" stroke-width="3.5" stroke-linecap="round"/>')
    for x, y in pt.values():  # in vertex order
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#222222"/>')
    lines.append("</svg>")
    return "\n".join(lines)
