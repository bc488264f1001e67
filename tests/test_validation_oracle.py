"""Grid-pruned validation vs an all-pairs reference implementation.

The validator prunes candidate pairs with a spatial hash; this oracle redoes
every check with plain double loops over the same primitives and the two
violation sets must agree exactly, including on invalid inputs.  The exact
lattice fast path is checked the same way against the generic exact pass it
shortcuts, every lattice report against an all-pairs exact reference, and the
lift of free graphs onto one lattice against the float pass.
"""

import json
import math
import random

import pytest

from matchstick import geometry as geo
from matchstick import graph
from matchstick.builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from matchstick.graph import (DEFAULT_TOL, FreeCoord, LatticeCoord, MatchstickGraph,
                              ValidationReport, Violation, free_graph, lattice_graph)
from matchstick.lattice import UNIT_RING, EisensteinPoint, LatticeFrame


def brute_force_violations(g: MatchstickGraph, tol: float, penny: bool):
    """Every violation as (kind, ids, value), by all-pairs float predicates."""
    pos = g.positions()
    found = set()
    ids = g.ids()
    edges = sorted(g.edges)
    for a, b in edges:
        length = math.dist(pos[a], pos[b])
        if abs(length - 1.0) > tol:
            found.add(("NonUnitEdge", (a, b), length))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            lo, hi = min(a, b), max(a, b)
            d = math.dist(pos[a], pos[b])
            if d <= tol:
                found.add(("DuplicateVertexPosition", (lo, hi), d))
            if penny and d < 1.0 - tol:
                found.add(("PennyDistance", (lo, hi), d))
    for v in ids:
        for a, b in edges:
            if v in (a, b):
                continue
            d = geo.point_segment_distance(pos[v], pos[a], pos[b])
            if d <= tol and math.dist(pos[v], pos[a]) > tol \
                    and math.dist(pos[v], pos[b]) > tol:
                found.add(("VertexOnEdge", (v, a, b), d))
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            a1, b1 = edges[i]
            a2, b2 = edges[j]
            shared = {a1, b1} & {a2, b2}
            if len(shared) == 2:
                continue
            if len(shared) == 1:
                s = shared.pop()
                p = b1 if a1 == s else a1
                q = b2 if a2 == s else a2
                if geo.dot(pos[s], pos[p], pos[q]) > 0:
                    d = min(geo.point_segment_distance(pos[p], pos[s], pos[q]),
                            geo.point_segment_distance(pos[q], pos[s], pos[p]))
                    if d <= tol:
                        found.add(("Crossing", (a1, b1, a2, b2), d))
            else:
                d = geo.segment_distance(pos[a1], pos[b1], pos[a2], pos[b2])
                if d <= tol:
                    found.add(("Crossing", (a1, b1, a2, b2), d))
    return found


def as_pairs(report):
    return {(v.kind, v.ids) for v in report.violations}


def as_triples(report):
    return {(v.kind, v.ids, v.value) for v in report.violations}


def perturbed_graph(rng, n, noise, extra_edges):
    """A lattice subgraph re-entered as floats with noise and junk edges."""
    base = random_lattice_subgraph(n, seed=rng.randrange(10 ** 6))
    coords = []
    for vid in base.ids():
        x, y = base.position(vid)
        coords.append((x + rng.uniform(-noise, noise),
                       y + rng.uniform(-noise, noise)))
    edges = set(base.edges)
    ids = base.ids()
    for _ in range(extra_edges):
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    return free_graph(coords, edges)


class TestAgainstBruteForce:
    # tolerances from the default to well past the 1.1 grid cell
    TOLS = (1e-9, 0.05, 0.2, 0.8, 2.5)

    def test_valid_and_noisy_graphs(self):
        rng = random.Random(12345)
        for trial in range(150):
            n = rng.randint(2, 18)
            noise = rng.choice([0.0, 1e-12, 1e-7, 0.02, 0.3])
            extra = rng.choice([0, 0, 1, 3])
            g = perturbed_graph(rng, n, noise, extra)
            for tol in self.TOLS:
                for penny in (False, True):
                    got = as_triples(g.validate(tol=tol, penny_mode=penny))
                    want = brute_force_violations(g, tol, penny)
                    assert got == want, (trial, n, noise, extra, tol, penny,
                                         got ^ want)

    def test_exact_mode_agrees_on_lattice_inputs(self):
        rng = random.Random(999)
        for trial in range(60):
            g = random_lattice_subgraph(rng.randint(2, 25),
                                        seed=rng.randrange(10 ** 6))
            # same graph entered as floats must validate identically (clean)
            coords = [g.position(v) for v in g.ids()]
            gf = free_graph(coords, g.edges)
            assert g.validate().ok and gf.validate().ok

    def test_long_edges_and_clusters(self):
        # stress the brute-force fallback path for long edges
        rng = random.Random(777)
        for _ in range(40):
            m = rng.randint(3, 8)
            coords = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(m)]
            edges = set()
            for _ in range(rng.randint(2, m * (m - 1) // 2)):
                a, b = rng.sample(range(m), 2)
                edges.add((min(a, b), max(a, b)))
            g = free_graph(coords, edges)
            got = as_triples(g.validate())
            want = brute_force_violations(g, 1e-9, False)
            assert got == want

    def test_long_edges_on_the_grid(self):
        # long edges spread over a wide area, so most go in the grid rather
        # than brute force; vertices placed on or just off long edges and a
        # tolerance large enough that the box widening matters
        rng = random.Random(4242)
        for trial in range(40):
            m = rng.randint(10, 30)
            coords = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(m)]
            edges = set()
            for _ in range(rng.randint(m // 2, 2 * m)):
                a, b = rng.sample(range(m), 2)
                edges.add((min(a, b), max(a, b)))
            for tol in (0.01,) + self.TOLS:
                near = []
                for a, b in rng.sample(sorted(edges), min(4, len(edges))):
                    t, off = rng.random(), rng.uniform(-2 * tol, 2 * tol)
                    (ax, ay), (bx, by) = coords[a], coords[b]
                    length = math.dist(coords[a], coords[b])
                    near.append((ax + t * (bx - ax) - off * (by - ay) / length,
                                 ay + t * (by - ay) + off * (bx - ax) / length))
                g = free_graph(coords + near, edges)
                for penny in (False, True):
                    got = as_triples(g.validate(tol=tol, penny_mode=penny))
                    want = brute_force_violations(g, tol, penny)
                    assert got == want, (trial, tol, penny, got ^ want)

    def test_long_edge_near_miss_across_a_grid_line(self):
        # a vertex and a parallel long edge just below a long edge on y = 0,
        # within tol but in the grid row beneath it: the long edge's box is
        # widened by tol, so both are candidates
        g = free_graph([(0, 0), (5, 0), (2, -0.005), (1, -0.004), (4, -0.004)],
                       [(0, 1), (3, 4)])
        report = g.validate(tol=0.01)
        assert {("VertexOnEdge", (2, 0, 1)), ("Crossing", (0, 1, 3, 4))} <= as_pairs(report)
        assert as_triples(report) == brute_force_violations(g, 0.01, False)

    def test_unit_edges_within_a_large_tol(self):
        # two collinear unit edges 0.15 apart cross at tol 0.2, although their
        # midpoints are 1.15 apart, in grid cells that are not neighbours
        g = free_graph([(0.59, 0), (1.59, 0), (1.74, 0), (2.74, 0)], [(0, 1), (2, 3)])
        report = g.validate(tol=0.2)
        assert ("Crossing", (0, 1, 2, 3)) in as_pairs(report)
        assert as_triples(report) == brute_force_violations(g, 0.2, False)

    def test_tol_and_coordinates_near_the_float_limit(self):
        # the edge's box widened by tol reaches past the largest float; free_graph
        # and from_json bound coordinates at 1e100, so the graph is built directly
        g = MatchstickGraph([(0, FreeCoord(0.0, 0.0)), (1, FreeCoord(1e308, 0.0)),
                             (2, FreeCoord(5e307, 1e307))], [(0, 1)])
        assert as_triples(g.validate(tol=1e308)) == brute_force_violations(g, 1e308, False)

    def test_far_collinear_edges_do_not_cross(self):
        # two edges on one line about 0.836 apart, whose float orientations
        # alternate in sign: the exact sign reports no Crossing at tol 0.8
        g = free_graph([(1.2544885755603807, -5.431807993889613),
                        (0.25885091715245045, -0.5810939643381292),
                        (-0.4432577753748589, 2.8395565668583127),
                        (0.09074853142839179, 0.23789534763371245)], [(0, 1), (2, 3)])
        report = g.validate(tol=0.8)
        assert as_pairs(report) == {("NonUnitEdge", (0, 1)), ("NonUnitEdge", (2, 3))}
        assert as_triples(report) == brute_force_violations(g, 0.8, False)


def generic_report(g: MatchstickGraph, penny: bool) -> ValidationReport:
    """The report of the generic exact pass, called directly."""
    violations = sorted(graph._validate_exact_generic(g, penny),
                        key=lambda v: (v.kind, v.ids))
    return ValidationReport(ok=not violations, violations=tuple(violations),
                            mode="lattice")


def faulty_lattice_graph(rng, n, extra_edges, repeats):
    """A random lattice subgraph with random extra edges (mostly non-unit,
    some crossing) and ``repeats`` new vertices on points already taken,
    each joined to a neighbour of the vertex it repeats."""
    base = random_lattice_subgraph(n, seed=rng.randrange(10 ** 6))
    vertices = list(base.vertices)
    edges = set(base.edges)
    adj = base.adjacency()
    for k in range(repeats):
        vid, coord = rng.choice(base.vertices)
        new = base.n + k
        vertices.append((new, LatticeCoord(coord.frame, coord.point)))
        if adj[vid]:
            edges.add((rng.choice(adj[vid]), new))
    ids = [vid for vid, _ in vertices]
    for _ in range(extra_edges):
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    return MatchstickGraph(vertices, edges, base.frames)


class TestLatticeFastPath:
    @pytest.mark.parametrize("faults", ["clean", "extra-edges", "repeated-points", "both"])
    def test_same_report_as_generic_pass(self, faults):
        rng = random.Random(f"fast-path-{faults}")
        invalid = 0
        for trial in range(60):
            extra = rng.randint(1, 4) if faults in ("extra-edges", "both") else 0
            repeats = rng.randint(1, 3) if faults in ("repeated-points", "both") else 0
            g = faulty_lattice_graph(rng, rng.randint(2, 30), extra, repeats)
            assert g.lattice_mode
            for penny in (False, True):
                got = g.validate(penny_mode=penny)
                assert got.to_json() == generic_report(g, penny).to_json(), (trial, penny)
                invalid += not got.ok
        assert invalid > 0 if faults != "clean" else invalid == 0

    def test_valid_graph_never_runs_generic_pass(self, monkeypatch):
        def generic(g, penny_mode):
            raise AssertionError("generic exact pass ran on a valid lattice graph")

        monkeypatch.setattr(graph, "_validate_exact_generic", generic)
        g = build_extremal(2000)
        assert g.validate().ok and g.validate(penny_mode=True).ok


def turned_lattice_graph(points, edges, angle: float) -> MatchstickGraph:
    return MatchstickGraph([(i, LatticeCoord(0, p)) for i, p in enumerate(points)], edges,
                           frames=(LatticeFrame((0.0, 0.0), angle),))


def far_collinear_case(rng):
    """Points a, a + 2d and a + d near the 2**53 coordinate bound, with the
    edge (0, 1) through point 2, and half the time an edge (3, 4) crossing it
    at a + d: an invalid lattice graph whose report needs the grid."""
    top = 2 ** 53
    a = EisensteinPoint(rng.choice((-1, 1)) * rng.randint(top - 2 ** 20, top - 4),
                        rng.choice((-1, 1)) * rng.randint(top - 2 ** 20, top - 4))
    k = rng.randrange(6)
    d = UNIT_RING[k]
    while max(abs(c) for c in a + d + d) > top:
        a = a - d
    points, edges = [a, a + d + d, a + d], [(0, 1)]
    if rng.random() < 0.5:
        e = UNIT_RING[(k + rng.choice((1, 2))) % 6]
        points += [a + d - e, a + d + e]
        edges.append((3, 4))
    return points, edges


class TestTurnedFrameAtLargeCoordinates:
    """The exact pass finds its candidates on frame-free coordinates, so a
    turned frame, whose positions round by about 1 near 2**53, gives the
    report of the same points on the unturned frame."""

    def test_vertex_on_edge_on_a_turned_frame(self):
        points = [EisensteinPoint(8102849068493987, 2349064213343310),
                  EisensteinPoint(8102849068493985, 2349064213343312),
                  EisensteinPoint(8102849068493986, 2349064213343311)]
        got = turned_lattice_graph(points, [(0, 1)], 0.7).validate()
        assert [(v.kind, v.ids) for v in got.violations] == \
            [("NonUnitEdge", (0, 1)), ("VertexOnEdge", (2, 0, 1))]
        assert got.to_json() == turned_lattice_graph(points, [(0, 1)], 0.0).validate().to_json()

    def test_seeded_turned_frames_give_the_unturned_report(self):
        rng = random.Random(53)
        for trial in range(400):
            points, edges = far_collinear_case(rng)
            angle = rng.uniform(0.0, 2 * math.pi)
            for penny in (False, True):
                want = turned_lattice_graph(points, edges, 0.0).validate(penny_mode=penny)
                got = turned_lattice_graph(points, edges, angle).validate(penny_mode=penny)
                assert got.to_json() == want.to_json(), (trial, angle)


def exact_reference_report(g: MatchstickGraph, penny: bool) -> ValidationReport:
    """The report of a lattice-mode graph from all-pairs exact predicates, one
    per violation kind, on the doubled integer coordinates ``scaled()``."""
    sp = {vid: c.point.scaled() for vid, c in g.vertices}
    ids = sorted(sp)
    edges = sorted(g.edges)
    out = []
    for a, b in edges:
        du, dv = sp[b][0] - sp[a][0], sp[b][1] - sp[a][1]
        norm = (du * du + 3 * dv * dv) // 4
        if norm != 1:
            out.append(Violation("NonUnitEdge", (a, b), math.sqrt(norm)))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if sp[a] == sp[b]:
                out.append(Violation("DuplicateVertexPosition", (a, b), 0.0))
                if penny:
                    out.append(Violation("PennyDistance", (a, b), 0.0))
    for v in ids:
        for a, b in edges:
            # strictly inside the segment
            if v not in (a, b) and geo.on_segment(sp[a], sp[b], sp[v]) \
                    and sp[v] not in (sp[a], sp[b]):
                out.append(Violation("VertexOnEdge", (v, a, b), 0.0))
    for i, (a1, b1) in enumerate(edges):
        for a2, b2 in edges[i + 1:]:
            shared = {a1, b1} & {a2, b2}
            if len(shared) == 1:
                s = shared.pop()
                p = b1 if a1 == s else a1
                q = b2 if a2 == s else a2
                hit = geo.orient(sp[s], sp[p], sp[q]) == 0 and geo.dot(sp[s], sp[p], sp[q]) > 0
            else:
                hit = not shared and geo.segments_intersect(sp[a1], sp[b1], sp[a2], sp[b2])
            if hit:
                out.append(Violation("Crossing", (a1, b1, a2, b2), 0.0))
    out.sort(key=lambda v: (v.kind, v.ids))
    return ValidationReport(ok=not out, violations=tuple(out), mode="lattice")


class TestExactReference:
    """Every lattice-mode report equals the all-pairs exact reference: an
    oracle for the generic exact pass that shares none of its code."""

    @pytest.mark.parametrize("faults", ["clean", "extra-edges", "repeated-points", "both"])
    def test_faulty_lattice_graphs(self, faults):
        rng = random.Random(f"exact-reference-{faults}")
        invalid = 0
        for trial in range(40):
            extra = rng.randint(1, 4) if faults in ("extra-edges", "both") else 0
            repeats = rng.randint(1, 3) if faults in ("repeated-points", "both") else 0
            g = faulty_lattice_graph(rng, rng.randint(2, 30), extra, repeats)
            for penny in (False, True):
                got = g.validate(penny_mode=penny)
                assert got.to_json() == exact_reference_report(g, penny).to_json(), (trial, penny)
                invalid += not got.ok
        assert invalid > 0 if faults != "clean" else invalid == 0

    def test_far_collinear_cases_on_turned_frames(self):
        rng = random.Random(2 ** 53)
        kinds = set()
        for trial in range(200):
            points, edges = far_collinear_case(rng)
            g = turned_lattice_graph(points, edges, rng.uniform(0.0, 2 * math.pi))
            for penny in (False, True):
                got = g.validate(penny_mode=penny)
                assert got.to_json() == exact_reference_report(g, penny).to_json(), (trial, penny)
                kinds |= {v.kind for v in got.violations}
        assert kinds == {"NonUnitEdge", "VertexOnEdge", "Crossing"}


def float_report(g: MatchstickGraph, tol: float, penny: bool) -> ValidationReport:
    """The report of the float pass, called directly."""
    violations = sorted(graph._validate_float(g, tol, penny),
                        key=lambda v: (v.kind, v.ids))
    ulp = max(abs(c) for xy in g.positions().values() for c in xy) * 2.0 ** -52
    return ValidationReport(ok=not violations, violations=tuple(violations), mode="free",
                            tol_below_resolution=ulp if ulp > tol else None)


def rotated_free(g: MatchstickGraph, angle: float, shift) -> MatchstickGraph:
    """g's drawing rotated by ``angle`` about the origin and shifted, as free floats."""
    ca, sa = math.cos(angle), math.sin(angle)
    pos = g.positions()
    index = {vid: i for i, vid in enumerate(g.ids())}
    coords = [(shift[0] + ca * x - sa * y, shift[1] + sa * x + ca * y)
              for x, y in (pos[vid] for vid in g.ids())]
    return free_graph(coords, [(index[a], index[b]) for a, b in g.edges])


def moved(rng, g: MatchstickGraph, noise: float) -> MatchstickGraph:
    """g with every vertex but the two of its smallest edge (the lift's frame)
    moved by ``noise`` in a random direction."""
    keep = set(min(g.edges))
    coords = []
    for vid in g.ids():
        x, y = g.position(vid)
        if vid not in keep:
            t = rng.uniform(0, 2 * math.pi)
            x, y = x + noise * math.cos(t), y + noise * math.sin(t)
        coords.append((x, y))
    return free_graph(coords, g.edges)


def _with_leaf(g: MatchstickGraph, rng) -> MatchstickGraph:
    """Lattice-mode g with a pendant leaf of id -1, below every other id, on a
    free lattice point one step from a random vertex."""
    points = {c.point for _, c in g.vertices}
    for v in rng.sample(g.ids(), g.n):
        p = g.coord(v).point
        if free := [p + d for d in UNIT_RING if p + d not in points]:
            leaf = (-1, LatticeCoord(0, rng.choice(free)))
            return MatchstickGraph([*g.vertices, leaf], [*g.edges, (-1, v)], g.frames)
    raise AssertionError("a finite lattice graph has a vertex with a free neighbour point")


def squeezed(rng, g: MatchstickGraph, gap: float) -> MatchstickGraph:
    """g without one edge (u, w) other than its smallest, u and w each moved
    ``gap / 2`` towards the other: a unit pair that is no edge, ``gap`` short."""
    u, w = rng.choice(sorted(set(g.edges) - {min(g.edges)}))
    coords = [g.position(vid) for vid in g.ids()]
    (ux, uy), (wx, wy) = coords[u], coords[w]
    h = gap / 2 / math.dist(coords[u], coords[w])
    coords[u] = (ux + h * (wx - ux), uy + h * (wy - uy))
    coords[w] = (wx - h * (wx - ux), wy - h * (wy - uy))
    return free_graph(coords, set(g.edges) - {(u, w)})


def two_patch_chain() -> MatchstickGraph:
    """Two radius-1 hexagon patches sharing one corner, the second on a lattice
    turned by 20 degrees: valid, but on no single lattice."""
    first = build_hexagon_patch(1)
    turn = math.radians(20)
    frame = LatticeFrame(origin=(1 + math.cos(turn), math.sin(turn)), angle=turn)
    ids = {first.coord(v).point: v for v in first.ids()}
    coords = [first.position(v) for v in first.ids()]
    index = {}
    for p, v in ids.items():
        if p == EisensteinPoint(-1, 0):  # its west corner is the first's east corner
            index[v] = ids[EisensteinPoint(1, 0)]
        else:
            index[v] = len(coords)
            coords.append(frame.to_cartesian(p))
    edges = list(first.edges) + [(index[a], index[b]) for a, b in first.edges]
    return free_graph(coords, edges)


class TestFreeLift:
    TOLS = (1e-13, 1e-9, 1e-6, 0.05, 0.2)

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e7])
    @pytest.mark.parametrize("faults", ["clean", "squeezed", "extra-edges", "repeated-points"])
    def test_same_report_as_float_pass(self, faults, shift):
        rng = random.Random(f"free-lift-{faults}-{shift}")
        paths = set()
        for trial in range(12):
            extra = rng.randint(1, 3) if faults == "extra-edges" else 0
            repeats = rng.randint(1, 2) if faults == "repeated-points" else 0
            base = faulty_lattice_graph(rng, rng.randint(2, 30), extra, repeats)
            if not base.edges:
                continue
            angle = rng.uniform(0, 2 * math.pi)
            flat = rotated_free(base, angle, (shift + rng.uniform(-9, 9), rng.uniform(-9, 9)))
            for tol in self.TOLS:
                if faults == "squeezed" and flat.e > 1:
                    # each end moved by 0.2 tol (lifts) or 0.6 tol (PennyDistance)
                    g = squeezed(rng, flat, rng.choice([0.4, 1.2]) * tol)
                else:
                    # noise just under or just over the lift's tol/4, or none
                    g = moved(rng, flat, rng.choice([0.0, 0.9, 1.1]) * tol / 4)
                for penny in (False, True):
                    got = g.validate(tol=tol, penny_mode=penny)
                    assert got.to_json() == float_report(g, tol, penny).to_json(), \
                        (trial, tol, penny)
                    assert got.path in ("free-lift", "free-pieces", "float")
                    assert got.path == "float" or tol <= 0.1
                    assert got.path != "free-lift" or got.ok
                    paths.add(got.path)
        assert "float" in paths
        if faults in ("clean", "squeezed"):
            assert "free-lift" in paths
        if faults == "repeated-points":  # never on distinct lattice points
            assert "free-lift" not in paths

    def test_valid_graph_never_runs_float_pass(self, monkeypatch):
        def float_pass(g, tol, penny_mode):
            raise AssertionError("float pass ran on a graph on one lattice")

        monkeypatch.setattr(graph, "_validate_float", float_pass)
        g = rotated_free(build_extremal(2000), 0.4, (31.5, -17.25))
        for penny in (False, True):
            report = g.validate(penny_mode=penny)
            assert report.ok and report.mode == "free" and report.path == "free-lift"

    def test_no_lift_where_floats_are_coarser_than_tol(self):
        # a patch whose every vertex is exactly its own frame point, framed at
        # (1e7, 1e7): floats there are about 2e-9 apart, so at tol 1e-10 edge
        # lengths are off by more than tol and only the lift's rounding bound
        # keeps it from calling the graph valid
        points = [EisensteinPoint(0, 0), EisensteinPoint(1, 0)]
        points += [p for p in (build_hexagon_patch(2).coord(v).point for v in range(19))
                   if p not in points]
        for origin, lifts in (((0.0, 0.0), True), ((1e7, 1e7), False)):
            exact = lattice_graph(points, frame=LatticeFrame(origin=origin))
            g = free_graph([exact.position(v) for v in exact.ids()], exact.edges)
            report = g.validate(tol=1e-10)
            assert report.to_json() == float_report(g, 1e-10, False).to_json()
            assert report.path == ("free-lift" if lifts else "float")
            assert report.ok == lifts and (report.tol_below_resolution is None) == lifts

    def test_chain_on_two_lattices_lifts_each_patch(self, monkeypatch):
        g = two_patch_chain()
        assert g.n == 13 and g.e == 24
        vertex_at = {xy: v for v, xy in g.positions().items()}
        corner = next(iter(set(range(7)) & {a for e in g.edges for a in e if max(e) >= 7}))
        patches = (set(range(7)), {corner} | set(range(7, 13)))
        calls = []
        distance = geo.point_segment_distance

        def spy(p, a, b):
            calls.append({vertex_at[p], vertex_at[a], vertex_at[b]})
            return distance(p, a, b)

        monkeypatch.setattr(geo, "point_segment_distance", spy)
        report = g.validate()
        assert report.ok and report.path == "free-pieces"
        assert calls and not any(c <= patch for c in calls for patch in patches)
        assert report.to_json() == float_report(g, DEFAULT_TOL, False).to_json()


def overlaid_spirals(n1: int, n2: int, angle: float, offset: float) -> MatchstickGraph:
    """A spiral and a second one on top of it, turned by ``angle`` and moved by
    ``offset`` along its first lattice direction, both then turned by 0.3: at
    offset 0.5 and angle 0 each spiral's vertices sit on the other's edges."""
    a = build_extremal(n1)
    b = rotated_free(build_extremal(n2), angle, (offset, 0.0))
    coords = [a.position(v) for v in a.ids()] + [b.position(v) for v in b.ids()]
    both = free_graph(coords, list(a.edges) + [(x + a.n, y + a.n) for x, y in b.edges])
    return rotated_free(both, 0.3, (0.0, 0.0))


def in_lift_window(g: MatchstickGraph, tol: float) -> bool:
    max_coord = max(abs(c) for xy in g.positions().values() for c in xy)
    return (max_coord + 1) * 2.0 ** -44 <= tol <= 0.1


class TestLiftPieces:
    """Graphs made of lattice pieces: the lift of each piece leaves only the
    pairs across pieces to the float predicates, with the same report."""

    TOLS = (1e-13, 1e-9, 1e-6, 0.05, 0.1)

    @staticmethod
    def corpus():
        from test_components import patch_chain, spiral_pair
        rng = random.Random(2024)
        chains = [patch_chain(k, r, rng) for k, r in ((2, 1), (3, 2), (5, 1), (8, 2), (16, 1),
                                                     (64, 1))]
        return [("chain", g) for g in chains] + [
            ("overlaid", overlaid_spirals(40, 30, 0.0, 0.5)),
            ("crossing", overlaid_spirals(19, 37, 0.5, 0.2)),
            ("far-apart", rotated_free(spiral_pair(40, 25), 1.3, (4.0, -7.5))),
        ]

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e7])
    def test_same_report_as_float_pass(self, shift):
        lifted = 0
        for kind, base in self.corpus():
            g = rotated_free(base, 0.0, (shift, -shift / 2))
            for tol in self.TOLS:
                for penny in (False, True):
                    got = g.validate(tol=tol, penny_mode=penny)
                    assert got.to_json() == float_report(g, tol, penny).to_json(), \
                        (kind, g.n, tol, penny)
                    assert got.path == ("free-pieces" if in_lift_window(g, tol) else "float")
                    lifted += got.path == "free-pieces"
                    kinds = {v.kind for v in got.violations}
                    if kind == "overlaid":
                        assert {"Crossing", "VertexOnEdge"} <= kinds
                    elif kind == "crossing":
                        assert "Crossing" in kinds
                    else:  # the rhombus joints of a chain are closer than 1
                        assert got.ok or penny or got.tol_below_resolution is not None
        assert lifted >= 54  # every graph at tol 1e-6, 0.05 and 0.1

    @pytest.mark.parametrize("noise", [0.9, 1.1])
    def test_noisy_chain(self, noise):
        from test_components import patch_chain
        rng = random.Random(f"noisy-chain-{noise}")
        base = patch_chain(16, 1, rng)
        for tol in self.TOLS:
            g = moved(rng, base, noise * tol / 4)
            for penny in (False, True):
                got = g.validate(tol=tol, penny_mode=penny)
                assert got.to_json() == float_report(g, tol, penny).to_json(), (tol, penny)
                assert got.path == ("free-pieces" if in_lift_window(g, tol) else "float")
                assert got.ok or penny

    def test_no_unit_edge_takes_float_pass_without_a_frame(self, monkeypatch):
        frames = []
        init = LatticeFrame.__init__

        def counting_init(frame, *args, **kwargs):
            frames.append(frame)
            init(frame, *args, **kwargs)

        monkeypatch.setattr(LatticeFrame, "__init__", counting_init)
        coords = []
        for i in range(300):
            x, y = 3.0 * (i % 17) + (i % 8) / 16, 1.5 * (i // 17) + (i % 4) / 16
            coords += [(x, y), (x + 2.0, y)]
        g = free_graph(coords, [(2 * i, 2 * i + 1) for i in range(300)])
        report = g.validate()
        assert report.path == "float" and len(report.violations) == 300 and not frames
        LatticeFrame()  # the counter sees a frame that is built
        assert len(frames) == 1

    @pytest.mark.parametrize("shape", ["chain", "noisy-spiral", "long-star", "unit-star"])
    def test_snaps_linear_in_graph_size(self, shape, monkeypatch):
        from test_components import patch_chain
        rng = random.Random(f"snaps-{shape}")
        if shape == "chain":
            g = patch_chain(256, 1, rng)
        elif shape == "noisy-spiral":
            # every vertex 1.1 * tol/4 off its lattice point: nearly every seed fails
            flat = rotated_free(build_extremal(2000), 0.7, (3.0, -2.0))
            d = 1.1 * DEFAULT_TOL / 4
            coords = []
            for v in flat.ids():
                (x, y), t = flat.position(v), rng.uniform(0, 2 * math.pi)
                coords.append((x + d * math.cos(t), y + d * math.sin(t)))
            g = free_graph(coords, flat.edges)
        elif shape == "long-star":
            # a centre with 400 spokes of length 5: no edge seeds a piece
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(400)]
            g = free_graph([(0.0, 0.0)] + [(5 * math.cos(t), 5 * math.sin(t)) for t in angles],
                           [(0, i) for i in range(1, 401)])
        else:
            # 400 rays of two unit edges at random angles from a centre (the
            # largest id): each ray is a piece seeded at its outer edge, and
            # the centre joins all but the first as a leaf, never grown from
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(400)]
            coords = [(r * math.cos(t), r * math.sin(t)) for r in (2, 1) for t in angles]
            rays = [(i, 400 + i) for i in range(400)] + [(400 + i, 800) for i in range(400)]
            g = free_graph(coords + [(0.0, 0.0)], rays)
        snaps = []
        snap = LatticeFrame.snap

        def counted(frame, xy, slack):
            snaps.append(xy)
            return snap(frame, xy, slack)

        monkeypatch.setattr(LatticeFrame, "snap", counted)
        report = g.validate()
        assert len(snaps) <= 4 * (g.n + g.e)
        assert report.path == {"chain": "free-pieces", "noisy-spiral": "free-pieces",
                               "long-star": "float", "unit-star": "free-pieces"}[shape]


class TestTolBelowResolution:
    @pytest.mark.parametrize("shift", [1e7, 50.0])
    def test_flagged_only_when_floats_are_coarser_than_tol(self, shift):
        g = rotated_free(build_extremal(200), 0.7, (shift, shift))
        doc = json.loads(g.validate().to_json())
        ulp = max(abs(c) for xy in g.positions().values() for c in xy) * 2.0 ** -52
        if shift == 1e7:
            # floats near 1e7 are about 2e-9 apart, coarser than tol = 1e-9:
            # spurious NonUnitEdge violations, and the report says why
            assert not doc["ok"] and doc["tol_below_resolution"] == ulp > DEFAULT_TOL
        else:
            assert doc["ok"] and "tol_below_resolution" not in doc

    def test_never_in_lattice_mode(self):
        g = lattice_graph([EisensteinPoint(10 ** 9, 0), EisensteinPoint(10 ** 9 + 1, 0)])
        assert "tol_below_resolution" not in json.loads(g.validate(tol=0.0).to_json())
