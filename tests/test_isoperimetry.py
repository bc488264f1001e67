import math
import random
from types import SimpleNamespace

import pytest

from matchstick.builders import build_hexagon_patch
from matchstick.components import decompose
from matchstick.isoperimetry import (SQRT3, DirectionSet, check_classic,
                                     check_hexagonal, circumscribed_hexagon,
                                     convexify_rearrangement,
                                     graph_isoperimetric_audit,
                                     hex_parallel_split,
                                     hexagon_isoperimetric_check,
                                     _at_most, obtuse_chord_bound, polygon,
                                     random_simple_polygon)
from matchstick.oracle import max_area_rearrangement

from test_components import make_flap_graph, validated

def same_edge_multiset(p, q, tol=1e-12):
    """Edge-vector multisets agree up to float reconstruction error."""
    a = sorted(p.edge_vectors())
    b = sorted(q.edge_vectors())
    return len(a) == len(b) and all(
        abs(ax - bx) <= tol and abs(ay - by) <= tol
        for (ax, ay), (bx, by) in zip(a, b))


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
UNIT_TRIANGLE = [(0, 0), (1, 0), (0.5, SQRT3 / 2)]
REGULAR_HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                   for k in range(6)]
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


def turned_hexagon(radius, theta0):
    return polygon([(radius * math.cos(theta0 + k * math.pi / 3),
                     radius * math.sin(theta0 + k * math.pi / 3)) for k in range(6)])


D0 = DirectionSet(0.0)


class TestPolygon:
    def test_square_measures(self):
        p = polygon(UNIT_SQUARE)
        assert p.area == pytest.approx(1.0)
        assert p.perimeter == pytest.approx(4.0)

    def test_triangle_measures(self):
        p = polygon(UNIT_TRIANGLE)
        assert p.area == pytest.approx(SQRT3 / 4)
        assert p.perimeter == pytest.approx(3.0)

    def test_hexagon_measures(self):
        p = polygon(REGULAR_HEXAGON)
        assert p.area == pytest.approx(3 * SQRT3 / 2)
        assert p.perimeter == pytest.approx(6.0)

    def test_clockwise_input_reversed(self):
        p = polygon(list(reversed(UNIT_SQUARE)))
        assert p.area == pytest.approx(1.0)

    def test_self_intersecting_rejected(self):
        with pytest.raises(ValueError):
            polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            polygon([(0, 0), (1, 0), (2, 0)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e101])
    def test_non_finite_or_huge_vertex_rejected(self, bad):
        # bad input, not a failed theorem: a ValueError naming the vertex
        # before any area or predicate sees the value
        with pytest.raises(ValueError, match="polygon vertex 1 "):
            polygon([(0, 0), (bad, 0), (0, 1)])
        with pytest.raises(ValueError, match="polygon vertex 2 "):
            polygon([(0, 0), (1, 0), (0, bad)])


class TestClassic:
    def test_square(self):
        rec = check_classic(polygon(UNIT_SQUARE))
        assert rec["lhs"] == pytest.approx(4 * math.pi)
        assert rec["rhs"] == pytest.approx(16.0)
        assert rec["holds"] and rec["margin"] > 0

    def test_hexagon(self):
        rec = check_classic(polygon(REGULAR_HEXAGON))
        assert rec["lhs"] == pytest.approx(4 * math.pi * 1.5 * SQRT3)
        assert rec["rhs"] == pytest.approx(36.0)
        assert rec["holds"]

    def test_thin_rectangle(self):
        rec = check_classic(polygon([(0, 0), (100, 0), (100, 0.01), (0, 0.01)]))
        assert rec["holds"]
        assert rec["rhs"] == pytest.approx(200.02 ** 2)

    def test_corpus_strict(self):
        rng = random.Random(7)
        for _ in range(300):
            rec = check_classic(random_simple_polygon(rng))
            assert rec["margin"] > 0

    @pytest.mark.parametrize("low, high", [(1, 2), (0, 2)])
    def test_random_polygon_with_too_few_vertices_raises(self, low, high):
        # no draw of fewer than 3 points is a polygon, so resampling would never end
        with pytest.raises(ValueError, match="max_vertices"):
            random_simple_polygon(random.Random(0), low, high)


class TestSplit:
    def test_aligned_hexagon_all_parallel(self):
        s = hex_parallel_split(polygon(REGULAR_HEXAGON), D0)
        assert s.b_star == pytest.approx(0.0, abs=1e-12)
        assert s.b_parallel == pytest.approx(6.0)

    def test_square(self):
        s = hex_parallel_split(polygon(UNIT_SQUARE), D0)
        assert s.b_star == pytest.approx(2.0)  # the two vertical sides
        assert s.b_parallel == pytest.approx(2.0)

    def test_aligned_triangle(self):
        s = hex_parallel_split(polygon(UNIT_TRIANGLE), D0)
        assert s.b_star == pytest.approx(0.0, abs=1e-12)

    def test_split_sums_to_perimeter(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_simple_polygon(rng)
            d = DirectionSet(rng.uniform(0, math.pi))
            s = hex_parallel_split(p, d)
            assert s.total == pytest.approx(p.perimeter, rel=1e-9)


class TestConvexify:
    def test_convex_input_congruent(self):
        p = polygon(REGULAR_HEXAGON)
        q = convexify_rearrangement(p)
        assert q.area == pytest.approx(p.area, rel=1e-12)
        assert q.perimeter == pytest.approx(p.perimeter, rel=1e-12)
        assert same_edge_multiset(p, q)

    def test_l_shape(self):
        p = polygon(L_SHAPE)
        assert p.area == pytest.approx(3.0)
        assert p.perimeter == pytest.approx(8.0)
        q = convexify_rearrangement(p)
        assert q.area == pytest.approx(4.0)  # the 2x2 square
        assert q.perimeter == pytest.approx(8.0)

    def test_l_shape_against_oracle(self):
        assert max_area_rearrangement(polygon(L_SHAPE)) == pytest.approx(4.0)

    def test_properties_on_corpus(self):
        rng = random.Random(23)
        for _ in range(150):
            p = random_simple_polygon(rng)
            q = convexify_rearrangement(p)
            assert same_edge_multiset(p, q)
            assert q.perimeter == pytest.approx(p.perimeter, rel=1e-12)
            assert q.area >= p.area - 1e-12
            vs = q.vertices
            m = len(vs)
            for i in range(m):
                o, a, b = vs[i], vs[(i + 1) % m], vs[(i + 2) % m]
                crossv = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert crossv >= -1e-12

    def test_matches_oracle_small(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_simple_polygon(rng, 3, 8)
            cv = convexify_rearrangement(p).area
            mx = max_area_rearrangement(p)
            assert cv == pytest.approx(mx, abs=1e-9)
            assert mx >= p.area - 1e-12

    def test_split_preserved_for_any_direction(self):
        rng = random.Random(43)
        for _ in range(60):
            p = random_simple_polygon(rng)
            q = convexify_rearrangement(p)
            d = DirectionSet(rng.uniform(0, math.pi))
            assert hex_parallel_split(q, d).b_star == pytest.approx(
                hex_parallel_split(p, d).b_star, rel=1e-9, abs=1e-12)


class TestCircumscribedHexagon:
    def test_hexagon_is_its_own(self):
        h = circumscribed_hexagon(polygon(REGULAR_HEXAGON), D0)
        assert h.perimeter == pytest.approx(6.0)
        assert h.area == pytest.approx(3 * SQRT3 / 2)
        assert sorted(h.side_lengths) == pytest.approx([1.0] * 6)

    def test_triangle_degenerates(self):
        h = circumscribed_hexagon(polygon(UNIT_TRIANGLE), D0)
        assert h.perimeter == pytest.approx(3.0)
        assert sorted(round(s, 9) for s in h.side_lengths) == \
            pytest.approx([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_disk_approximation(self):
        ngon = [(math.cos(2 * math.pi * k / 96), math.sin(2 * math.pi * k / 96))
                for k in range(96)]
        h = circumscribed_hexagon(polygon(ngon), D0)
        assert h.perimeter == pytest.approx(12 / SQRT3, abs=0.01)

    def test_contains_polygon(self):
        rng = random.Random(5)
        for _ in range(80):
            p = convexify_rearrangement(random_simple_polygon(rng))
            d = DirectionSet(rng.uniform(0, math.pi))
            h = circumscribed_hexagon(p, d)
            normals = [(math.cos(t), math.sin(t)) for t in d.normals()]
            for x, y in p.vertices:
                for (nx, ny), off in zip(normals, h.offsets):
                    assert nx * x + ny * y <= off + 1e-12

    def test_perimeter_chain_inequality(self):
        # b(H) <= b(P') + (2/sqrt(3)-1) * b_star(P') for the convexified polygon
        rng = random.Random(9)
        coeff = 2 / SQRT3 - 1
        for _ in range(80):
            p = convexify_rearrangement(random_simple_polygon(rng))
            d = DirectionSet(rng.uniform(0, math.pi))
            h = circumscribed_hexagon(p, d)
            s = hex_parallel_split(p, d)
            assert h.perimeter <= p.perimeter + coeff * s.b_star + 1e-9

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            circumscribed_hexagon(polygon(L_SHAPE), D0)


class TestHexagonal:
    def test_aligned_hexagon_equality(self):
        rec = check_hexagonal(polygon(REGULAR_HEXAGON), D0)
        assert rec["lhs"] == pytest.approx(36.0, abs=1e-9)
        assert rec["rhs"] == pytest.approx(36.0, abs=1e-9)
        assert abs(rec["margin"]) <= 1e-9

    def test_square(self):
        rec = check_hexagonal(polygon(UNIT_SQUARE), D0)
        assert rec["lhs"] == pytest.approx(8 * SQRT3)
        assert rec["rhs"] == pytest.approx((4 + (2 / SQRT3 - 1) * 2) ** 2)
        assert rec["holds"]

    def test_aligned_triangle(self):
        rec = check_hexagonal(polygon(UNIT_TRIANGLE), D0)
        assert rec["lhs"] == pytest.approx(6.0)
        assert rec["rhs"] == pytest.approx(9.0)

    def test_corpus_with_random_angles(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_simple_polygon(rng)
            for _ in range(4):
                rec = check_hexagonal(p, DirectionSet(rng.uniform(0, math.pi)))
                assert rec["margin"] >= -1e-9

    def test_scale_invariance(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_simple_polygon(rng)
            base = check_hexagonal(p, D0)
            for lam in (0.1, 10.0):
                q = polygon([(lam * x, lam * y) for x, y in p.vertices])
                rec = check_hexagonal(q, D0)
                assert rec["holds"] == base["holds"]
                assert rec["lhs"] == pytest.approx(lam ** 2 * base["lhs"], rel=1e-9)
                assert rec["rhs"] == pytest.approx(lam ** 2 * base["rhs"], rel=1e-9)

    def test_large_turned_hexagon_equality(self):
        # x86-64 rounding puts lhs 7e-9 above rhs, within the margin scaled by rhs
        rec = check_hexagonal(turned_hexagon(1000.0, 0.589), DirectionSet(0.589))
        assert rec["holds"]
        assert rec["lhs"] == pytest.approx(36e6, rel=1e-12)
        assert rec["rhs"] == pytest.approx(36e6, rel=1e-12)

    def test_equality_at_every_scale(self):
        rng = random.Random(5)
        for radius in (1e3, 1e4, 1e5):
            for _ in range(50):
                theta0 = rng.uniform(0, math.pi / 3)
                p, d = turned_hexagon(radius, theta0), DirectionSet(theta0)
                assert check_hexagonal(p, d)["holds"]
                assert hexagon_isoperimetric_check(circumscribed_hexagon(p, d))

    def test_margin_scales_with_rhs(self):
        assert _at_most(1.0 + 1e-10, 1.0) and not _at_most(1.0 + 1e-8, 1.0)
        assert _at_most(1e6 * (1 + 1e-10), 1e6) and not _at_most(1e6 * (1 + 1e-8), 1e6)
        assert _at_most(1e-12, 0.0) and not _at_most(1e-8, 0.0)


class TestObtuseChord:
    def test_equilateral_equality(self):
        assert obtuse_chord_bound(math.sqrt(3), 1.0, 1.0)

    def test_degenerate(self):
        assert obtuse_chord_bound(1.0, 1.0, 0.0)

    def test_two_one(self):
        assert obtuse_chord_bound(math.sqrt(7), 2.0, 1.0)
        assert 3.0 <= (2 / SQRT3) * math.sqrt(7) + 1e-9

    def test_wrong_angle_rejected(self):
        with pytest.raises(ValueError):
            obtuse_chord_bound(1.0, 1.0, 1.0)  # that would be 60 degrees

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
    def test_true_120_degree_triangle_at_scale(self, scale):
        # |pq|^2 rounds a few ulps off the cosine-rule value at these sizes
        a, b = 0.7 * scale, 1.3 * scale
        assert obtuse_chord_bound(math.sqrt(a * a + b * b + a * b), a, b)

    def test_wrong_angle_rejected_at_scale(self):
        with pytest.raises(ValueError, match="not a 120-degree triangle"):
            obtuse_chord_bound(1e5, 1e5, 1e5)  # 60 degrees at r


class TestHexagonIsoperimetric:
    def test_regular_equality(self):
        h = circumscribed_hexagon(polygon(REGULAR_HEXAGON), D0)
        assert hexagon_isoperimetric_check(h)
        assert h.area == pytest.approx((SQRT3 / 24) * h.perimeter ** 2, abs=1e-9)

    def test_parallelogram(self):
        # 60/120-degree parallelogram with sides 1 and 2, aligned: two of the
        # six supporting sides are degenerate
        para = [(0, 0), (2, 0), (2.5, SQRT3 / 2), (0.5, SQRT3 / 2)]
        h = circumscribed_hexagon(polygon(para), D0)
        assert h.perimeter == pytest.approx(6.0)
        assert h.area == pytest.approx(SQRT3)
        assert hexagon_isoperimetric_check(h)

    def test_triangle_degenerate(self):
        h = circumscribed_hexagon(polygon(UNIT_TRIANGLE), D0)
        assert hexagon_isoperimetric_check(h)
        assert h.area == pytest.approx(SQRT3 / 4)
        assert (SQRT3 / 24) * h.perimeter ** 2 == pytest.approx(SQRT3 * 9 / 24)

    def test_corpus(self):
        rng = random.Random(19)
        for _ in range(80):
            p = convexify_rearrangement(random_simple_polygon(rng))
            d = DirectionSet(rng.uniform(0, math.pi))
            assert hexagon_isoperimetric_check(circumscribed_hexagon(p, d))


class TestGraphAudit:
    def test_patch_equality(self):
        g = validated(build_hexagon_patch(2))
        rep = decompose(g)
        rec = graph_isoperimetric_audit(g, rep)
        assert rec["A"] == pytest.approx(6 * SQRT3, abs=1e-9)
        assert rec["f3"] == 24
        assert rec["triangle_lower_bound"] == pytest.approx(6 * SQRT3, abs=1e-9)
        assert rec["hexagonal"]["b_star"] == 0.0

    def test_unit_triangle_equality(self):
        from matchstick.graph import lattice_graph
        from matchstick.lattice import EisensteinPoint as E
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        rec = graph_isoperimetric_audit(g, decompose(g))
        assert rec["A"] == pytest.approx(SQRT3 / 4)
        assert rec["triangle_lower_bound"] == pytest.approx(SQRT3 / 4)

    def test_flap_strictly_larger(self):
        g = make_flap_graph()
        rep = decompose(g)
        rec = graph_isoperimetric_audit(g, rep)
        assert rec["A"] > rec["triangle_lower_bound"] + 1e-6
        assert rec["hexagonal"]["holds"] and rec["classic"]["holds"]

    def test_large_patch_equality(self):
        # b = 600: 8*sqrt(3)*A rounds 1.3e-9 above b**2
        g = validated(build_hexagon_patch(100))
        rec = graph_isoperimetric_audit(g, decompose(g))
        assert rec["b"] == 600 and rec["hexagonal"]["rhs"] == 360000.0
        assert rec["hexagonal"]["lhs"] == pytest.approx(360000.0, rel=1e-12)

    def test_report_without_components_uses_angle_0_and_all_of_b(self):
        g = validated(build_hexagon_patch(2))
        rec = graph_isoperimetric_audit(g, SimpleNamespace(components=[]))
        assert rec["hexagonal"]["theta0"] == 0.0
        assert rec["hexagonal"]["b_star"] == float(rec["b"]) == 12.0


class TestRandomPolygonGenerator:
    def test_deterministic(self):
        a = random_simple_polygon(random.Random(99))
        b = random_simple_polygon(random.Random(99))
        assert a.vertices == b.vertices

    def test_all_simple_and_ccw(self):
        rng = random.Random(3)
        for _ in range(200):
            p = random_simple_polygon(rng)
            assert p.area > 0
            assert 3 <= len(p.vertices) <= 12


class TestAuditFuzz:
    def test_random_two_connected_graphs(self):
        import random as _random
        from matchstick.builders import random_lattice_subgraph
        rng = _random.Random(31337)
        done = 0
        while done < 25:
            g = random_lattice_subgraph(rng.randint(4, 40),
                                        seed=rng.randrange(10 ** 6),
                                        require_2connected=True)
            rec = graph_isoperimetric_audit(g, decompose(g))
            assert rec["A"] >= rec["triangle_lower_bound"] - 1e-9
            assert rec["classic"]["holds"] and rec["hexagonal"]["holds"]
            done += 1
