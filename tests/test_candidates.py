"""The one-pass candidate generator and the lean lift against the forms they
replaced.

``graph._candidates`` filters pairs as it finds them, and
``graph._lift_pieces`` walks the adjacency with plain loops.  The functions
in the reference section below are the earlier forms, kept verbatim but for
the reference lift's whole-lift record, whose edge steps it reads off
``UNIT_STEP_INDEX`` itself: the earlier ``_candidates`` listed every pair
that shares a grid cell and then, with pieces, dropped the pairs one piece
holds (``_add_across_pieces``) and those whose boxes are apart
(``_near_across_pieces``).  On every case the validation report must be the
same, the lift must give the same pieces or whole-lift record, and the
candidate sets must be those the reference keeps after its filters, with no
candidate listed twice.  A fixed corpus of invalid free graphs must also get
the reference's report, naming its violation.
"""

import math
import random
from unittest import mock

import pytest

from matchstick import graph
from matchstick.builders import build_extremal
from matchstick.graph import (_BOX_PAD, _CELL, _NONE, MatchstickGraph, _grow, _unit_steps,
                              free_graph)
from matchstick.lattice import ORIGIN, UNIT_RING, UNIT_STEP_INDEX, LatticeFrame

from test_components import patch_chain
from test_validation_oracle import (far_collinear_case, faulty_lattice_graph, in_lift_window, moved,
                                    rotated_free, turned_lattice_graph)

# ---------------------------------------------------------------------------
# reference: the earlier candidate generator and lift, verbatim


def _grid_of(points, cell):
    grid = {}
    for key, (x, y) in points:
        c = (math.floor(x / cell), math.floor(y / cell))
        grid.setdefault(c, []).append(key)
    return grid


def _near_cells(grid, x, y, cell):
    cx, cy = math.floor(x / cell), math.floor(y / cell)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            yield from grid.get((cx + dx, cy + dy), ())


def _candidates(g: MatchstickGraph, pos: dict, tol: float, pieces=None):
    """Grid-pruned candidates of a validation pass on the vertex positions
    ``pos``, as (vertex pairs, sorted edges, edge index pairs, (vertex, edge
    index) hits).  Every pair of the graph's elements within ``tol`` of each
    other is one, and so is every vertex pair closer than 1.1.

    Cells are ``cell = max(_CELL, tol + _BOX_PAD)`` wide, so two vertices within
    ``cell`` of each other are in neighbouring cells.  A point within tol of an
    edge lies in the edge's bounding box widened by tol, so two edges within tol
    share a cell of their widened boxes and a vertex within tol of an edge is in
    one of the edge's cells.

    With ``pieces`` from :func:`_lift_pieces`, only pairs that no single piece
    holds both elements of are listed: each cell groups its edges by the piece
    lifting them and pairs them only across groups, so a cell inside one piece
    lists none.  A vertex-edge hit or an edge pair sharing no end is left out
    too when their boxes, one widened by tol + _BOX_PAD, are apart (the lift's
    tol window keeps float rounding below tol/256).
    """
    cell = max(_CELL, tol + _BOX_PAD)
    vgrid = _grid_of(pos.items(), cell)
    vpairs = set()
    for vid, (x, y) in pos.items():
        for other in _near_cells(vgrid, x, y, cell):
            if other > vid:  # the pair is found from both ends
                vpairs.add((vid, other))
    edges = sorted(g.edges)
    r = (tol + _BOX_PAD) / cell  # the widening in cells; dividing first cannot overflow
    egrid = {}
    brute = []
    boxes = []
    for idx, (a, b) in enumerate(edges):
        (ax, ay), (bx, by) = pos[a], pos[b]
        box = (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
        boxes.append(box)
        x0, x1 = math.floor(box[0] / cell - r), math.floor(box[1] / cell + r)
        y0, y1 = math.floor(box[2] / cell - r), math.floor(box[3] / cell + r)
        if (x1 - x0 + 1) * (y1 - y0 + 1) > g.n + g.e:
            brute.append(idx)
            continue
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                egrid.setdefault((cx, cy), []).append(idx)
    epairs = set()
    vhits = set()
    for c, members in egrid.items():  # each cell's edge indices, ascending
        vids = vgrid.get(c, ())
        if pieces is not None:
            _add_across_pieces(members, vids, *pieces, epairs, vhits)
            continue
        for k, i in enumerate(members):
            epairs.update((i, j) for j in members[k + 1:])
            vhits.update((vid, i) for vid in vids)
    for i in brute:
        epairs.update((min(i, j), max(i, j)) for j in range(len(edges)) if j != i)
        vhits.update((vid, i) for vid in pos)
    if pieces is not None:
        vpairs, epairs, vhits = _near_across_pieces(pos, edges, boxes, vpairs, epairs, vhits,
                                                    pieces[0], tol + _BOX_PAD)
    return vpairs, edges, epairs, vhits


def _add_across_pieces(members, vids, held, edge_piece, epairs, vhits):
    """Add the pairs of one cell's edges ``members`` and vertices ``vids`` that
    no single piece holds both of to ``epairs`` and ``vhits``."""
    groups = {}  # piece -> the cell's edges it lifts; None -> the unlifted ones
    for i in members:
        groups.setdefault(edge_piece[i], []).append(i)
    groups = list(groups.items())
    for x, (k, group) in enumerate(groups):
        if k is None:
            for y, i in enumerate(group):
                epairs.update((i, j) for j in group[y + 1:])
        for _, other in groups[x + 1:]:
            epairs.update((i, j) if i < j else (j, i) for i in group for j in other)
        vhits.update((vid, i) for vid in vids if k not in held.get(vid, _NONE) for i in group)


def _near_across_pieces(pos, edges, boxes, vpairs, epairs, vhits, held, w):
    """The vertex pairs of ``vpairs`` with no common piece, and the vertex-edge
    hits and edge pairs of ``vhits`` and ``epairs`` less those of a vertex and
    an edge or of two edges sharing no end whose ``boxes`` are more than ``w``
    apart in x or y."""
    vpairs = {(a, b) for a, b in vpairs if not held.get(a, _NONE) & held.get(b, _NONE)}
    hits = set()
    for vid, i in vhits:
        if vid not in edges[i]:
            x, y = pos[vid]
            x0, x1, y0, y1 = boxes[i]
            if x0 - w <= x <= x1 + w and y0 - w <= y <= y1 + w:
                hits.add((vid, i))
    pairs = set()
    for i, j in epairs:
        (a1, b1), (a2, b2) = edges[i], edges[j]
        if a1 not in (a2, b2) and b1 not in (a2, b2):
            p0, p1, p2, p3 = boxes[i]
            q0, q1, q2, q3 = boxes[j]
            if p1 + w < q0 or q1 + w < p0 or p3 + w < q2 or q3 + w < p2:
                continue
        pairs.add((i, j))
    return vpairs, pairs, hits


def _lift_pieces(g: MatchstickGraph, tol: float):
    """The lattice pieces of a free graph, as (path, pieces): ("free-lift",
    (frame, points, steps)) when the first piece holds every vertex with a
    unit step on every edge, ``steps`` each edge's ``UNIT_RING`` index as
    bytes in ``g.edges`` order, ("free-pieces", (held, edge_piece)) when some
    piece exists, else ("float", None).  ``held`` maps a vertex to the
    indices of the pieces holding it; ``edge_piece`` gives, for each edge in
    ascending order, a piece holding its ends a unit step apart (the edge is
    lifted), or None.

    Each edge (a, b), in ascending order, whose length is within tol/2 of 1
    and that no piece lifts yet seeds a piece when b snaps to (1, 0) on the
    frame with origin a and angle a -> b.  An edge off by more counts as
    unlifted: at most rounding could let a piece lift it, and an unlifted edge
    only sends more pairs to the float predicates.  The piece grows by
    :func:`_grow` at slack tol/4 from the vertices no earlier piece holds;
    those of earlier pieces may join it as leaves (the corner two patches
    share).  So each vertex is grown from at most once: at most e + 2e snaps.
    """
    pos = g.positions()
    if not any(abs(math.dist(pos[a], pos[b]) - 1.0) <= tol / 2 for a, b in g.edges):
        return "float", None  # no edge can seed a piece
    adj = g.adjacency()
    slack = tol / 4
    points = []  # each piece's vertex -> EisensteinPoint
    held = {}
    edge_piece = []
    for a, b in ((a, b) for a in sorted(adj) for b in adj[a] if b > a):  # ascending, lazily
        if abs(math.dist(pos[a], pos[b]) - 1.0) > tol / 2:
            edge_piece.append(None)
            continue
        k = next((k for k in held.get(a, _NONE) & held.get(b, _NONE)
                  if _unit_steps(((a, b),), points[k]) is not None), None)
        if k is None:
            (ax, ay), (bx, by) = pos[a], pos[b]
            frame = LatticeFrame(origin=(ax, ay), angle=math.atan2(by - ay, bx - ax))
            if frame.snap(pos[b], slack) == UNIT_RING[0]:
                piece = _grow(pos, adj, frame, {a: ORIGIN, b: UNIT_RING[0]}, slack, held)
                if not points and len(piece) == g.n:
                    steps = [UNIT_STEP_INDEX.get(piece[b] - piece[a]) for a, b in g.edges]
                    if None not in steps:
                        return "free-lift", (frame, piece, bytes(steps))
                k = len(points)
                points.append(piece)
                for v in piece:
                    held.setdefault(v, set()).add(k)
        edge_piece.append(k)
    return ("free-pieces", (held, edge_piece)) if points else ("float", None)


# ---------------------------------------------------------------------------
# corpus

TOLS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.45)


def unit_star(rng, rays):
    """``rays`` rays of two unit edges at random angles from a centre, the
    largest id: the centre is held by hundreds of pieces."""
    angles = [rng.uniform(0, 2 * math.pi) for _ in range(rays)]
    coords = [(r * math.cos(t), r * math.sin(t)) for r in (2, 1) for t in angles]
    edges = [(i, rays + i) for i in range(rays)] + [(rays + i, 2 * rays) for i in range(rays)]
    return free_graph(coords + [(0.0, 0.0)], edges)


def long_star(rng, rays):
    """A centre with ``rays`` spokes of length 5: no edge seeds a piece."""
    angles = [rng.uniform(0, 2 * math.pi) for _ in range(rays)]
    return free_graph([(0.0, 0.0)] + [(5 * math.cos(t), 5 * math.sin(t)) for t in angles],
                      [(0, i) for i in range(1, rays + 1)])


def segments(rng, m=120):
    """m length-2 segments in rows, some nudged so that boxes nearly meet and
    some so that neighbours in a row overlap."""
    coords = []
    for i in range(m):
        x = 2.1 * (i % 15) + rng.choice((0.0, 0.0, -0.06, -0.2))
        y = 0.8 * (i // 15) + rng.choice((0.0, 0.0, 0.03, 0.5))
        coords += [(x, y), (x + 2.0, y)]
    return free_graph(coords, [(2 * i, 2 * i + 1) for i in range(m)])


def long_edges(rng):
    """A rotated hexagon patch under a few edges long enough for the brute
    force, one of them through the patch."""
    base = rotated_free(build_extremal(19), rng.uniform(0, 1), (0.0, 0.0))
    coords = [base.position(v) for v in base.ids()]
    edges = list(base.edges)
    for _ in range(4):
        t = rng.uniform(0, math.pi)
        c = rng.uniform(-3, 3)
        dx, dy = 40 * math.cos(t), 40 * math.sin(t)
        coords += [(c - dx, -dy), (c + dx, dy)]
        edges.append((len(coords) - 2, len(coords) - 1))
    return free_graph(coords, edges)


def noisy_spiral(rng, n, tol):
    """A rotated spiral with every vertex but its first edge's moved by tol/4
    to tol."""
    flat = rotated_free(build_extremal(n), rng.uniform(0, 2 * math.pi), (rng.uniform(-9, 9), 3.0))
    return moved(rng, flat, rng.uniform(0.25, 1.0) * tol)


def free_corpus(kind, tol, rays=100):
    """The graphs of one kind at one tol; stars have ``rays`` rays (the report
    of a star's centre pairs every two of its edges)."""
    rng = random.Random(f"candidates-{kind}-{tol}")
    if kind == "chain":
        return [patch_chain(k, r, rng) for k, r in ((2, 1), (2, 3), (3, 2), (8, 1), (16, 2),
                                                   (64, 1))]
    if kind == "noisy-chain":
        return [moved(rng, patch_chain(k, r, rng), rng.uniform(0.25, 1.0) * tol)
                for k, r in ((4, 1), (8, 3))]
    if kind == "noisy-spiral":
        return [noisy_spiral(rng, n, tol) for n in (37, 300)]
    if kind == "star":
        return [unit_star(rng, rays), long_star(rng, rays)]
    if kind == "segments":
        return [segments(rng), long_edges(rng), long_edges(rng)]
    raise ValueError(kind)


FREE_KINDS = ("chain", "noisy-chain", "noisy-spiral", "star", "segments")


def whole_lifts(tol):
    """Rotated spirals n = 19, 136 and 384 at 0.7 and 2.1 rad, shifted by
    (3, -2) and, from tol 1e-6 on (the lift window's lower end is above 1e-9
    there), by (1e5, 1e5); each also with its vertices moved by 0.2 tol."""
    rng = random.Random(f"candidates-lift-{tol}")
    shifts = ((3.0, -2.0), (1e5, 1e5)) if tol >= 1e-6 else ((3.0, -2.0),)
    flat = [rotated_free(build_extremal(n), angle, shift)
            for n in (19, 136, 384) for angle in (0.7, 2.1) for shift in shifts]
    return flat + [moved(rng, g, 0.2 * tol) for g in flat]


def _hexagon_with(coords, edges):
    """A unit hexagon patch, centre 0 and ring 1..6 counterclockwise from
    (1, 0), with ``coords`` added as vertices 7, 8, ... and ``edges`` added;
    turned by 0.4 rad and shifted by (2, -1), as free floats."""
    ring = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    ca, sa = math.cos(0.4), math.sin(0.4)
    return free_graph([(2.0 + ca * x - sa * y, -1.0 + sa * x + ca * y)
                       for x, y in [(0.0, 0.0)] + ring + coords],
                      [(0, k) for k in range(1, 7)] + [(k, k % 6 + 1) for k in range(1, 7)] + edges)


def off_edge(tol):
    """A unit edge out from a point 0.5 tol outside the midpoint of ring edge (1, 2)."""
    ux, uy = math.cos(math.pi / 6), math.sin(math.pi / 6)
    r = math.sqrt(3) / 2 + 0.5 * tol
    return _hexagon_with([(r * ux, r * uy), ((r + 1) * ux, (r + 1) * uy)], [(7, 8)])


# hand-built free graphs, each with a violation at tol <= 0.45 that the report must name
INVALID_FREE = {
    "crossing-chords": (lambda tol: _hexagon_with([], [(1, 3), (2, 4)]),
                        ("Crossing", (1, 3, 2, 4))),
    "vertex-off-edge": (off_edge, ("VertexOnEdge", (7, 1, 2))),
    "close-vertices": (lambda tol: _hexagon_with([(1.0, 0.5 * tol), (2.0, 0.5 * tol)], [(7, 8)]),
                       ("DuplicateVertexPosition", (1, 7))),
    "narrow-wedge": (lambda tol: _hexagon_with(
        [(2.0, 0.0), (1.0 + math.cos(0.5 * math.asin(tol)), math.sin(0.5 * math.asin(tol)))],
        [(1, 7), (1, 8)]), ("Crossing", (1, 7, 1, 8))),
    "long-segment": (lambda tol: _hexagon_with([(-1.0, 0.3), (1.0, 0.3)], [(7, 8)]),
                     ("NonUnitEdge", (7, 8))),
}


def reference_report(g, tol, penny):
    """The report of the validation pipeline with the reference lift and
    candidates in place of the current ones (patched with ``mock``, so that
    hypothesis tests can call it too)."""
    with (mock.patch.object(graph, "_candidates", _candidates),
          mock.patch.object(graph, "_lift_pieces", _lift_pieces)):
        return graph._validation_report(g, tol, penny)


def assert_same_report(g, tol, penny, where):
    got = graph._validation_report(g, tol, penny)
    want = reference_report(g, tol, penny)
    assert (got.to_json(), got.path) == (want.to_json(), want.path), where
    return got


def assert_same_candidates(g, pos, tol, pieces, where):
    """The current generator lists each vertex pair, edge pair and vertex-edge
    hit once, and keeps the pairs the reference keeps after its filters; with
    no pieces, that is after ``_near_across_pieces`` with no held vertex."""
    vpairs, edges, epairs, vhits = graph._candidates(g, pos, tol, pieces)
    for found in (vpairs, epairs, vhits):
        assert len(set(found)) == len(found), where
    want = _candidates(g, pos, tol, pieces)
    if pieces is None:
        vp, ed, ep, vh = want
        boxes = [(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
                 for (ax, ay), (bx, by) in ((pos[a], pos[b]) for a, b in ed)]
        vp, ep, vh = _near_across_pieces(pos, ed, boxes, vp, ep, vh, {}, tol + _BOX_PAD)
        want = (vp, ed, ep, vh)
    assert (set(vpairs), list(edges), set(epairs), set(vhits)) == want, where


# ---------------------------------------------------------------------------
# tests


class TestSameReport:
    @pytest.mark.parametrize("kind", FREE_KINDS)
    def test_free_graphs(self, kind):
        paths = set()
        for tol in TOLS:
            for i, g in enumerate(free_corpus(kind, tol)):
                for penny in (False, True):
                    paths.add(assert_same_report(g, tol, penny, (kind, i, tol, penny)).path)
        assert "float" in paths
        if kind != "segments":
            assert "free-pieces" in paths

    @pytest.mark.parametrize("faults", ["extra-edges", "repeated-points"])
    def test_exact_generic_pass(self, faults):
        rng = random.Random(f"candidates-exact-{faults}")
        generic = 0
        for trial in range(40):
            extra = rng.randint(1, 4) if faults == "extra-edges" else 0
            g = faulty_lattice_graph(rng, rng.randint(2, 40), extra, int(faults != "extra-edges"))
            for penny in (False, True):
                report = assert_same_report(g, 0.0, penny, (trial, penny))
                generic += report.path == "lattice-generic"
        assert generic > 20

    def test_turned_frames_at_large_coordinates(self):
        rng = random.Random("candidates-turned")
        for trial in range(40):
            points, edges = far_collinear_case(rng)
            g = turned_lattice_graph(points, edges, rng.uniform(0, 2 * math.pi))
            report = assert_same_report(g, 0.0, False, trial)
            assert not report.ok


class TestInvalidFreeGraphs:
    """A fixed corpus of invalid free graphs: at tol 1e-9 the float pass runs
    on the pairs across lift pieces, at 0.2 and 0.45 on every pair."""

    @pytest.mark.parametrize("name", INVALID_FREE)
    def test_same_report_with_the_violation(self, name):
        make, violation = INVALID_FREE[name]
        for tol in (1e-9, 0.2, 0.45):
            g = make(tol)
            for penny in (False, True):
                report = assert_same_report(g, tol, penny, (tol, penny))
                assert violation in [(v.kind, v.ids) for v in report.violations], (tol, penny)


class TestSameCandidatesWithPieces:
    """With pieces the current generator keeps exactly the pairs the earlier
    one kept after its filters, each once."""

    @pytest.mark.parametrize("kind", FREE_KINDS)
    def test_same_candidate_sets(self, kind):
        lifted = 0
        for tol in TOLS:
            for i, g in enumerate(free_corpus(kind, tol)):
                if not (g.edges and in_lift_window(g, tol)):
                    continue
                path, pieces = graph._lift_pieces(g, tol)
                if path != "free-pieces":
                    continue
                lifted += 1
                assert_same_candidates(g, g.positions(), tol, pieces, (kind, i, tol))
        assert lifted > 0 or kind == "segments"


class TestSameCandidatesWithoutPieces:
    """With no pieces, in the float pass and the exact pass, the current
    generator keeps exactly the pairs the earlier one kept after its box
    filters, each once."""

    @pytest.mark.parametrize("kind", FREE_KINDS)
    def test_float_pass(self, kind):
        for tol in TOLS:
            for i, g in enumerate(free_corpus(kind, tol)):
                assert_same_candidates(g, g.positions(), tol, None, (kind, i, tol))

    def test_exact_pass(self):
        rng = random.Random("candidates-exact-grid")
        for trial in range(40):
            g = faulty_lattice_graph(rng, rng.randint(2, 40), rng.randint(0, 4), rng.randint(0, 1))
            grid = {vid: c.point.cartesian() for vid, c in g.vertices}
            assert_same_candidates(g, grid, 0.0, None, trial)


class TestSameLift:
    @pytest.mark.parametrize("kind", FREE_KINDS + ("whole-lift",))
    def test_same_pieces(self, kind):
        window, lifted = set(), set()
        for tol in TOLS:
            corpus = whole_lifts(tol) if kind == "whole-lift" else free_corpus(kind, tol, rays=400)
            for i, g in enumerate(corpus):
                if g.edges:
                    got = graph._lift_pieces(g, tol)
                    assert got == _lift_pieces(g, tol), (kind, i, tol)
                    if in_lift_window(g, tol):
                        window.add(tol)
                        if got[0] == "free-lift":
                            lifted.add(tol)
        if kind == "whole-lift":  # a whole lift's record at every tol of the window
            assert lifted == window == {t for t in TOLS if 1e-12 <= t <= graph._LIFT_MAX_TOL}
