import random

import pytest

from matchstick.builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from matchstick.components import decompose
from matchstick.graph import MatchstickGraph, _norm_edge, boundary, connectivity
from matchstick.render import PALETTE, SCALE, render_svg

from test_components import make_bowtie, patch_chain
from test_validation_oracle import rotated_free


class TestRenderSvg:
    def test_patch_shape(self):
        g = build_hexagon_patch(1)
        g.validate()
        svg = render_svg(g, decompose(g))
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == 7
        # 12 unit edges plus the 6 boundary overdraw segments
        assert svg.count("<line") == 18
        assert PALETTE[0] in svg

    def test_components_get_distinct_colors(self):
        g = make_bowtie()
        svg = render_svg(g, decompose(g))
        assert PALETTE[0] in svg and PALETTE[1] in svg

    def test_unvalidated_graph_renders_plain(self):
        g = build_hexagon_patch(1)
        svg = render_svg(g)
        assert "<svg" in svg and 'stroke="#888888"' in svg


def _per_edge_render_svg(g: MatchstickGraph, report=None) -> str:
    """render_svg formatting each vertex's coordinates again on every line."""
    pos = g.positions()
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    pad = 0.6
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad
    width = (maxx - minx) * SCALE
    height = (maxy - miny) * SCALE

    def pt(v):
        x, y = pos[v]
        return ((x - minx) * SCALE, (maxy - y) * SCALE)  # flip y for SVG

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
    for a, b in sorted(g.edges):
        (x1, y1), (x2, y2) = pt(a), pt(b)
        color = edge_color.get(_norm_edge(a, b), "#888888")
        lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
    if g.validated and connectivity(g).two_connected:
        cycle, _ = boundary(g)
        for i in range(len(cycle)):
            (x1, y1), (x2, y2) = pt(cycle[i]), pt(cycle[(i + 1) % len(cycle)])
            lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                         f'stroke="#000000" stroke-width="3.5" stroke-linecap="round"/>')
    for v in sorted(pos):
        x, y = pt(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#222222"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def _spiral():
    return build_extremal(300)


def _rotated():
    return rotated_free(build_extremal(120), 0.7, (123.456, -78.9))


def _chain():
    return patch_chain(8, 1, random.Random(1))


def _cut_vertex():
    return random_lattice_subgraph(40, seed=3)


def _first_difference(got: str, want: str):
    """None when the documents are equal, else the first differing line; a
    plain == on two large strings makes pytest diff them for minutes."""
    if got == want:
        return None
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[i:i + 1], b[i:i + 1]


class TestSameSvgAsPerEdgeFormatting:
    @pytest.mark.parametrize("make, two_connected", [
        (_spiral, True), (_rotated, True), (_chain, True), (_cut_vertex, False),
        (make_bowtie, False)])
    def test_byte_identical(self, make, two_connected):
        g = make()
        # unvalidated: no boundary
        assert _first_difference(render_svg(g), _per_edge_render_svg(g)) is None
        assert g.validate().ok
        assert connectivity(g).two_connected is two_connected
        report = decompose(g)
        assert _first_difference(render_svg(g, report), _per_edge_render_svg(g, report)) is None
        assert _first_difference(render_svg(g), _per_edge_render_svg(g)) is None
