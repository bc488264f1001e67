"""Valid graphs far from the origin keep their faces.

The face walk of a lattice-mode graph reads only the direction of each edge's
(m, n) step and orients its faces by an integer turn sum, and that of a free
graph sums its areas on positions relative to one vertex, so a unit face's
area does not cancel away when the coordinates are large.  A lattice graph's
analysis depends neither on its frame nor on where its points are: ``stats``,
``decompose`` and ``trace`` give the same JSON at any frame origin and angle,
but for the components' frame, and at any lattice coordinates.
"""

import json
import math

import pytest

from matchstick.builders import build_extremal, random_lattice_subgraph
from matchstick.cli import main
from matchstick.components import decompose
from matchstick.graph import LatticeCoord, MatchstickGraph
from matchstick.isoperimetry import graph_isoperimetric_audit
from matchstick.lattice import EisensteinPoint, LatticeFrame
from test_validation_oracle import rotated_free

ORIGINS = [1e8, 1e15, 2.0 ** 60, 1e100]
ANGLES = [0.3, 1.1, math.pi / 3]
LATTICE_GRAPHS = {
    "spiral-19": lambda: build_extremal(19),
    "spiral-1000": lambda: build_extremal(1000),
    "random-40": lambda: random_lattice_subgraph(40, seed=2, require_2connected=True),
}
# lattice coordinate shifts up to the largest from_json accepts, less the graphs' extent
SHIFTS = [2 ** 30, 2 ** 40, 2 ** 52]
SHIFTED_GRAPHS = {
    "spiral-200": lambda: build_extremal(200),
    "random-40": LATTICE_GRAPHS["random-40"],
}


def reframed(g: MatchstickGraph, origin: float, angle: float) -> MatchstickGraph:
    """g's lattice points on the frame with origin (origin, origin) and ``angle``."""
    return MatchstickGraph(g.vertices, g.edges, frames=(LatticeFrame((origin, origin), angle),))


def shifted(g: MatchstickGraph, s: int) -> MatchstickGraph:
    """g with every lattice point moved by (s, -s) in (m, n), on g's frame."""
    vertices = [(vid, LatticeCoord(c.frame, EisensteinPoint(c.point.m + s, c.point.n - s)))
                for vid, c in g.vertices]
    return MatchstickGraph(vertices, g.edges, g.frames)


def outputs(g: MatchstickGraph, tmp_path, capsys, tol: float = 1e-9) -> dict:
    """Each analysis command's parsed JSON, with the components' frames left out;
    every command must exit 0."""
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    out = {}
    for cmd in ("stats", "decompose", "trace"):
        rc = main([cmd, str(path), "--tol", repr(tol)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, ""), (cmd, captured.err)
        doc = json.loads(captured.out)
        for comp in doc.get("components", ()):
            del comp["frame"]
        out[cmd] = doc
    return out


@pytest.mark.parametrize("angle", ANGLES)
@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("name", LATTICE_GRAPHS)
def test_lattice_graph_has_its_origin_outputs(name, origin, angle, tmp_path, capsys):
    g = LATTICE_GRAPHS[name]()
    assert outputs(reframed(g, origin, angle), tmp_path, capsys) == outputs(g, tmp_path, capsys)


@pytest.mark.parametrize("s", SHIFTS)
@pytest.mark.parametrize("name", SHIFTED_GRAPHS)
def test_far_lattice_coordinates_keep_their_outputs(name, s, tmp_path, capsys):
    g = SHIFTED_GRAPHS[name]()
    far = shifted(g, s)
    assert outputs(far, tmp_path, capsys) == outputs(g, tmp_path, capsys)


@pytest.mark.parametrize("s", SHIFTS)
@pytest.mark.parametrize("name", SHIFTED_GRAPHS)
def test_far_lattice_coordinates_keep_their_audit(name, s):
    # the boundary polygon is taken relative to its first corner's lattice
    # point, in integers, so the audit is bit-identical at any coordinates
    g = SHIFTED_GRAPHS[name]()
    far = shifted(g, s)
    assert g.validate().ok and far.validate().ok
    rec, far_rec = (graph_isoperimetric_audit(h, decompose(h)) for h in (g, far))
    assert far_rec == rec


@pytest.mark.parametrize("n", [19, 2000])
@pytest.mark.parametrize("shift, tol", [(1e8, 1e-6), (1e8, 9e-5), (1e10, 0.009)])
def test_shifted_free_spiral_has_its_unshifted_outputs(n, shift, tol, tmp_path, capsys):
    g = build_extremal(n)
    near = rotated_free(g, 0.7, (0.0, 0.0))
    far = rotated_free(g, 0.7, (shift, shift))
    assert outputs(far, tmp_path, capsys, tol) == outputs(near, tmp_path, capsys, tol)


@pytest.mark.parametrize("origin", ORIGINS)
def test_lattice_audit_reads_the_lattice_points(origin):
    # the boundary polygon is on the frame-free lattice points, so its area
    # and every bound are those at origin 0; only theta0 follows the frame
    g = build_extremal(200)
    far = reframed(g, origin, 0.3)
    assert g.validate().ok and far.validate().ok
    rec, far_rec = (graph_isoperimetric_audit(h, decompose(h)) for h in (g, far))
    assert far_rec["hexagonal"].pop("theta0") == 0.3
    assert rec["hexagonal"].pop("theta0") == 0.0
    assert far_rec == rec
    assert rec["classic"]["holds"] and rec["hexagonal"]["holds"]


@pytest.mark.parametrize("n", [19, 200])
@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_shifted_free_spiral_passes_the_audit(n, shift):
    # the free boundary polygon is summed on positions less its first corner's,
    # so its area keeps the spiral's and no bound fails at tol 1e-6
    g = build_extremal(n)
    far = rotated_free(g, 0.7, (shift, shift))
    assert g.validate().ok and far.validate(tol=1e-6).ok
    rec = graph_isoperimetric_audit(g, decompose(g))
    far_rec = graph_isoperimetric_audit(far, decompose(far, tol=1e-6))
    assert (far_rec["b"], far_rec["f3"]) == (rec["b"], rec["f3"])
    assert far_rec["A"] == pytest.approx(rec["A"], rel=1e-9)
    assert far_rec["classic"]["holds"] and far_rec["hexagonal"]["holds"]
