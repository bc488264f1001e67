import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstick import builders
from matchstick.builders import (build_extremal, build_hexagon_patch,
                                 random_lattice_subgraph, ring_points,
                                 spiral_points)
from matchstick.graph import (ConsistencyError, LatticeCoord, MatchstickGraph, connectivity,
                              lattice_graph)
from matchstick.lattice import (ORIGIN, UNIT_RING, EisensteinPoint, LatticeFrame,
                                eisenstein_norm, harborth_bound)

E = EisensteinPoint


def brute_unit_edge_count(points):
    pts = list(points)
    return sum(1 for i in range(len(pts)) for j in range(i + 1, len(pts))
               if eisenstein_norm(pts[j] - pts[i]) == 1)


class TestRings:
    def test_ring_sizes(self):
        for k in range(1, 7):
            ring = ring_points(k)
            assert len(ring) == 6 * k
            assert all(p.hexdist() == k for p in ring)

    def test_ring_zero(self):
        assert ring_points(0) == [E(0, 0)]


class TestSpiral:
    def test_prefix_counts(self):
        pts = spiral_points(19)
        assert len(set(pts)) == 19
        assert pts[0] == E(0, 0)
        assert pts[1] == E(1, 0)
        assert pts[7] == E(1, 1)  # ring 2 starts past the corner

    def test_distance_envelope(self):
        pts = spiral_points(400)
        for j, p in enumerate(pts):
            assert p.hexdist() <= math.ceil(math.sqrt(max(j, 1))) + 1

    def test_prefixes_nested(self):
        assert spiral_points(10) == spiral_points(25)[:10]


class TestHexagonPatch:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_closed_forms(self, k):
        g = build_hexagon_patch(k)
        assert g.validate().ok
        assert g.n == 3 * k * k + 3 * k + 1
        assert g.e == 9 * k * k + 3 * k
        if k >= 1:
            from matchstick.graph import boundary
            _, b = boundary(g)
            assert b == 6 * k

    def test_k0_single_vertex(self):
        g = build_hexagon_patch(0)
        assert (g.n, g.e) == (1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_hexagon_patch(-1)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_equals_extremal_prefix(self, k):
        n = 3 * k * k + 3 * k + 1
        patch = {c.point for _, c in build_hexagon_patch(k).vertices}
        spiral = {c.point for _, c in build_extremal(n).vertices}
        assert patch == spiral


class TestExtremal:
    def test_two_vertices(self):
        g = build_extremal(2)
        assert g.e == 1 == harborth_bound(2)

    def test_five_vertices_brute_force(self):
        g = build_extremal(5)
        pts = [c.point for _, c in g.vertices]
        assert g.e == brute_unit_edge_count(pts) == 7 == harborth_bound(5)

    def test_seven_matches_patch(self):
        g = build_extremal(7)
        assert g.e == 12
        assert {c.point for _, c in g.vertices} == \
               {c.point for _, c in build_hexagon_patch(1).vertices}

    @pytest.mark.parametrize("n", list(range(1, 40)) + [100, 150, 200])
    def test_tightness(self, n):
        g = build_extremal(n)
        assert g.validate().ok
        assert g.e == harborth_bound(n)

    def test_edge_increments_match_bound(self):
        prev = build_extremal(2).e
        for n in range(3, 60):
            cur = build_extremal(n).e
            assert cur - prev == harborth_bound(n) - harborth_bound(n - 1)
            assert cur - prev in (2, 3)
            prev = cur

    def test_edge_count_against_brute_force(self):
        for n in (3, 8, 13, 20):
            pts = spiral_points(n)
            assert build_extremal(n).e == brute_unit_edge_count(pts)


class TestRandomSubgraph:
    def test_determinism(self):
        a = random_lattice_subgraph(20, seed=1)
        b = random_lattice_subgraph(20, seed=1)
        assert a.to_json() == b.to_json()

    def test_seed_sensitivity(self):
        a = random_lattice_subgraph(20, seed=1)
        b = random_lattice_subgraph(20, seed=2)
        assert a.to_json() != b.to_json()

    def test_bound_and_validity(self):
        g = random_lattice_subgraph(20, seed=1)
        assert g.validate().ok
        assert g.e <= harborth_bound(20) == 44

    def test_two_connected_option(self):
        g = random_lattice_subgraph(3, seed=5, require_2connected=True)
        assert connectivity(g).two_connected
        assert g.n == 3 and g.e == 3  # the only 2-connected 3-vertex graph is a triangle

    def test_small_n_guard(self):
        with pytest.raises(ValueError):
            random_lattice_subgraph(2, seed=0, require_2connected=True)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
    def test_generator_always_valid(self, n, seed):
        g = random_lattice_subgraph(n, seed=seed)
        assert g.n == n
        assert g.validate().ok
        assert connectivity(g).connected


class TestSpiralMiss:
    def test_non_extremal_prefix_raises(self, monkeypatch):
        # 4 collinear points have 3 unit edges, the bound for n=4 is 5
        monkeypatch.setattr(builders, "spiral_points",
                            lambda n: [E(i, 0) for i in range(n)])
        with pytest.raises(ConsistencyError, match=r"n=4 has 3 edges, bound is 5"):
            build_extremal(4)


# The builder as it was before it grew on (m, n) pairs and rejected leaves:
# random_lattice_subgraph and _grow_random verbatim, and lattice_graph's
# unit-pair scan on EisensteinPoint sums.
_MAX_RETRIES = 200


def _reference_lattice_graph(points, frame=LatticeFrame()):
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    edges = []
    for p, i in index.items():
        for q in (p + d for d in UNIT_RING[:3]):
            j = index.get(q)
            if j is not None:
                edges.append((i, j))
    vertices = [(i, LatticeCoord(0, p)) for i, p in enumerate(points)]
    return MatchstickGraph(vertices, edges, frames=(frame,))


def _reference_random_lattice_subgraph(n, seed, require_2connected=False):
    if n < 1:
        raise ValueError("n must be >= 1")
    if require_2connected and n < 3:
        raise ValueError("2-connected graphs need n >= 3")
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        points = _reference_grow_random(rng, n)
        g = _reference_lattice_graph(points)
        if not require_2connected or connectivity(g).two_connected:
            report = g.validate()
            if not report.ok:
                raise ConsistencyError("random lattice subgraph failed validation")
            return g
    raise ValueError(f"could not grow a 2-connected subgraph with n={n} "
                     f"in {_MAX_RETRIES} attempts (seed={seed})")


def _reference_grow_random(rng, n):
    points = [ORIGIN]
    chosen = {ORIGIN}
    frontier = list(UNIT_RING)
    while len(points) < n:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        q = frontier.pop()
        if q in chosen:
            continue
        chosen.add(q)
        points.append(q)
        for d in UNIT_RING:
            nb = q + d
            if nb not in chosen:
                frontier.append(nb)
    return points


class TestSameGraphsAsTheReference:
    """The int-pair growth and the leaf rejection give every (n, seed, flag)
    the graph the reference builder gives, byte for byte."""

    def test_any_graph(self):
        for n in range(1, 61):
            for seed in range(10):
                assert random_lattice_subgraph(n, seed).to_json() == \
                       _reference_random_lattice_subgraph(n, seed).to_json()

    def test_two_connected_graph_and_leaf_rejections(self, monkeypatch):
        rejected = []

        def recorded(points, has_leaf=builders._has_leaf):
            if has_leaf(points):
                rejected.append(points)
                return True
            return False

        monkeypatch.setattr(builders, "_has_leaf", recorded)
        for n in range(3, 31):
            for seed in range(10):
                assert random_lattice_subgraph(n, seed, require_2connected=True).to_json() == \
                       _reference_random_lattice_subgraph(n, seed, True).to_json()
        assert len(rejected) > 500
        # the leaf test rejects only growths the 2-connectivity test rejects
        for points in rejected:
            assert not connectivity(lattice_graph([E(*p) for p in points])).two_connected

    def test_leaf_growths_keep_the_reference_error(self, monkeypatch):
        n, seed = 12, next(s for s in range(100)
                           if builders._has_leaf(builders._grow_random(random.Random(s), 12)))
        monkeypatch.setattr(builders, "_MAX_RETRIES", 1)
        monkeypatch.setitem(globals(), "_MAX_RETRIES", 1)
        with pytest.raises(ValueError) as want:
            _reference_random_lattice_subgraph(n, seed, True)

        def built(points):
            raise AssertionError("a growth with a leaf built a graph")

        monkeypatch.setattr(builders, "lattice_graph", built)
        with pytest.raises(ValueError) as got:
            random_lattice_subgraph(n, seed, require_2connected=True)
        assert str(got.value) == str(want.value) == \
               f"could not grow a 2-connected subgraph with n=12 in 1 attempts (seed={seed})"
