"""Grid-pruned validation vs an all-pairs reference implementation.

The validator prunes candidate pairs with a spatial hash; this oracle redoes
every check with plain double loops over the same primitives and the two
violation sets must agree exactly, including on invalid inputs.  The exact
lattice fast path is checked the same way against the generic exact pass it
shortcuts.
"""

import math
import random

import pytest

from matchstick import geometry as geo
from matchstick import graph
from matchstick.builders import build_extremal, random_lattice_subgraph
from matchstick.graph import (LatticeCoord, MatchstickGraph, ValidationReport,
                              free_graph)


def brute_force_violations(g: MatchstickGraph, tol: float, penny: bool):
    pos = g.positions()
    found = set()
    ids = g.ids()
    edges = sorted(g.edges)
    for a, b in edges:
        if abs(math.dist(pos[a], pos[b]) - 1.0) > tol:
            found.add(("NonUnitEdge", (a, b)))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            lo, hi = min(a, b), max(a, b)
            d = math.dist(pos[a], pos[b])
            if d <= tol:
                found.add(("DuplicateVertexPosition", (lo, hi)))
            if penny and d < 1.0 - tol:
                found.add(("PennyDistance", (lo, hi)))
    for v in ids:
        for a, b in edges:
            if v in (a, b):
                continue
            d = geo.point_segment_distance(pos[v], pos[a], pos[b])
            if d <= tol and math.dist(pos[v], pos[a]) > tol \
                    and math.dist(pos[v], pos[b]) > tol:
                found.add(("VertexOnEdge", (v, a, b)))
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
                        found.add(("Crossing", (a1, b1, a2, b2)))
            else:
                if geo.segment_distance(pos[a1], pos[b1], pos[a2], pos[b2]) <= tol:
                    found.add(("Crossing", (a1, b1, a2, b2)))
    return found


def as_pairs(report):
    return {(v.kind, v.ids) for v in report.violations}


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
    def test_valid_and_noisy_graphs(self):
        rng = random.Random(12345)
        tol = 1e-9
        for trial in range(150):
            n = rng.randint(2, 18)
            noise = rng.choice([0.0, 1e-12, 1e-7, 0.02, 0.3])
            extra = rng.choice([0, 0, 1, 3])
            g = perturbed_graph(rng, n, noise, extra)
            for penny in (False, True):
                got = as_pairs(g.validate(tol=tol, penny_mode=penny))
                want = brute_force_violations(g, tol, penny)
                assert got == want, (trial, n, noise, extra, penny,
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
            got = as_pairs(g.validate())
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
            tol = rng.choice([1e-9, 0.01])
            for a, b in rng.sample(sorted(edges), min(4, len(edges))):
                t, off = rng.random(), rng.uniform(-2 * tol, 2 * tol)
                (ax, ay), (bx, by) = coords[a], coords[b]
                length = math.dist(coords[a], coords[b])
                coords.append((ax + t * (bx - ax) - off * (by - ay) / length,
                               ay + t * (by - ay) + off * (bx - ax) / length))
            g = free_graph(coords, edges)
            for penny in (False, True):
                got = as_pairs(g.validate(tol=tol, penny_mode=penny))
                want = brute_force_violations(g, tol, penny)
                assert got == want, (trial, tol, penny, got ^ want)

    def test_long_edge_near_miss_across_a_grid_line(self):
        # a vertex and a parallel long edge just below a long edge on y = 0,
        # within tol but in the grid row beneath it: the long edge's box is
        # widened by tol, so both are candidates
        g = free_graph([(0, 0), (5, 0), (2, -0.005), (1, -0.004), (4, -0.004)],
                       [(0, 1), (3, 4)])
        got = as_pairs(g.validate(tol=0.01))
        assert {("VertexOnEdge", (2, 0, 1)), ("Crossing", (0, 1, 3, 4))} <= got
        assert got == brute_force_violations(g, 0.01, False)


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
