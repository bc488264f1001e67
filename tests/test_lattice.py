import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstick.lattice import (EisensteinPoint, ceil_isqrt, complete_unit_pair,
                                concavity_gap, eisenstein_norm, harborth_bound,
                                LatticeFrame, phi, unit_neighbors)

E = EisensteinPoint

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(E, coords, coords)


def brute_unit_ball(center, radius_sq):
    """All lattice points within squared distance radius_sq of center, by scan."""
    r = int(math.isqrt(radius_sq)) + 2
    out = []
    for m in range(center.m - r, center.m + r + 1):
        for n in range(center.n - r, center.n + r + 1):
            p = E(m, n)
            if eisenstein_norm(p - center) <= radius_sq:
                out.append(p)
    return out


class TestNorm:
    def test_origin(self):
        assert eisenstein_norm(E(0, 0)) == 0

    def test_unit_basis(self):
        assert eisenstein_norm(E(1, 0)) == 1

    def test_mixed_signs(self):
        # 4 - 2 + 1, cross-checked against the floating cartesian length
        p = E(2, -1)
        assert eisenstein_norm(p) == 3
        x, y = p.cartesian()
        assert math.isclose(x * x + y * y, 3.0, rel_tol=1e-12)

    @given(points, points)
    def test_matches_cartesian_distance(self, p, q):
        d = q - p
        norm = eisenstein_norm(d)
        px, py = p.cartesian()
        qx, qy = q.cartesian()
        assert math.isclose((qx - px) ** 2 + (qy - py) ** 2, norm,
                            rel_tol=1e-12, abs_tol=1e-12)

    @given(points)
    def test_zero_iff_origin(self, p):
        assert (eisenstein_norm(p) == 0) == (p == E(0, 0))


class TestUnitNeighbors:
    def test_origin_matches_brute_force(self):
        brute = {p for p in brute_unit_ball(E(0, 0), 1) if eisenstein_norm(p) == 1}
        assert set(unit_neighbors(E(0, 0))) == brute
        assert unit_neighbors(E(0, 0)) == [E(1, 0), E(0, 1), E(-1, 1),
                                           E(-1, 0), E(0, -1), E(1, -1)]

    def test_translation_invariance(self):
        base = unit_neighbors(E(0, 0))
        shift = E(5, -2)
        assert unit_neighbors(shift) == [p + shift for p in base]

    @given(points)
    def test_all_at_distance_one(self, p):
        nbrs = unit_neighbors(p)
        assert len(nbrs) == 6
        assert all(eisenstein_norm(q - p) == 1 for q in nbrs)

    @given(points)
    def test_closed_under_rotation(self, p):
        nbrs = set(unit_neighbors(p))
        rotated = {p + (q - p).rot60() for q in nbrs}
        assert rotated == nbrs

    def test_ccw_order(self):
        angles = [math.atan2(*reversed(q.cartesian())) for q in unit_neighbors(E(0, 0))]
        assert angles[0] == 0.0
        expected = [k * math.pi / 3 for k in range(4)] + [-2 * math.pi / 3, -math.pi / 3]
        assert angles == pytest.approx(expected)


class TestCompleteUnitPair:
    def brute(self, a, b):
        return {p for p in brute_unit_ball(a, 4)
                if eisenstein_norm(p - a) == 1 and eisenstein_norm(p - b) == 1}

    def test_adjacent_pair(self):
        a, b = E(0, 0), E(1, 0)
        assert complete_unit_pair(a, b) == {E(0, 1), E(1, -1)} == self.brute(a, b)

    def test_distance_two_tangent(self):
        a, b = E(0, 0), E(2, 0)
        assert complete_unit_pair(a, b) == {E(1, 0)} == self.brute(a, b)

    def test_distance_three_disjoint(self):
        assert complete_unit_pair(E(0, 0), E(3, 0)) == set()

    def test_sqrt3_pair(self):
        a, b = E(0, 0), E(1, 1)
        assert complete_unit_pair(a, b) == {E(1, 0), E(0, 1)} == self.brute(a, b)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            complete_unit_pair(E(2, 3), E(2, 3))

    @given(points, points)
    def test_matches_brute_force(self, a, b):
        if a == b:
            return
        assert complete_unit_pair(a, b) == self.brute(a, b)

    @pytest.mark.parametrize("a", [E(0, 0), E(-3, 2), E(10**6, -7 * 10**5)])
    def test_difference_table_matches_neighbour_intersection(self, a):
        # every b - a with |m|, |n| <= 4, around the origin and far from it
        nonempty = 0
        for dm in range(-4, 5):
            for dn in range(-4, 5):
                b = a + E(dm, dn)
                if b == a:
                    with pytest.raises(ValueError):
                        complete_unit_pair(a, b)
                    continue
                got = complete_unit_pair(a, b)
                assert type(got) is set
                assert got == set(unit_neighbors(a)) & set(unit_neighbors(b)), (a, b)
                nonempty += bool(got)
        assert nonempty == 18


class TestPhi:
    def test_at_one(self):
        assert phi(1) == 0.0

    def test_at_seven(self):
        assert phi(7) == pytest.approx(6.0, abs=1e-12)

    def test_threshold_147(self):
        assert phi(147) == pytest.approx(math.sqrt(1761) - 3, abs=1e-12)
        assert phi(147) > 38.849

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi(0.2)

    def test_accepts_fractions(self):
        assert phi(Fraction(1, 4)) == pytest.approx(0.0 - 3.0 + 0.0)  # sqrt(0) - 3
        assert phi(Fraction(7, 1)) == pytest.approx(6.0)

    def test_domain_edge_is_exact(self):
        # just below 1/4, though its float is 0.25
        x = Fraction(1, 4) - Fraction(1, 10 ** 30)
        assert float(x) == 0.25
        with pytest.raises(ValueError):
            phi(x)

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_square_identity(self, x):
        # expanding the square: phi(x)^2 / 6 == 2x + 1 - sqrt(12x - 3)
        lhs = phi(x) ** 2 / 6.0
        rhs = 2 * x + 1.0 - math.sqrt(12 * x - 3)
        assert abs(lhs - rhs) < 1e-9


class TestCeilIsqrt:
    @given(st.integers(min_value=0, max_value=10 ** 18))
    def test_definition(self, x):
        r = ceil_isqrt(x)
        assert r * r >= x
        assert r == 0 or (r - 1) * (r - 1) < x

    def test_perfect_squares(self):
        for v in (0, 1, 4, 9, 81, 225, 12 * 7 - 3):
            assert ceil_isqrt(v) ** 2 == v


class TestHarborthBound:
    def test_single_vertex(self):
        assert harborth_bound(1) == 0

    def test_hexagon_patch_size(self):
        assert harborth_bound(7) == 12

    def test_double_triangle_size(self):
        assert harborth_bound(4) == 5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            harborth_bound(0)

    def test_exact_at_perfect_squares(self):
        # 12n - 3 is a perfect square at n = 3j^2 + 3j + 1
        for j in range(0, 50):
            n = 3 * j * j + 3 * j + 1
            assert harborth_bound(n) == 3 * n - (6 * j + 3)

    def test_increments_up_to_million(self):
        # the step n=1 -> 2 adds a single edge; from there on every increment is 2 or 3
        assert harborth_bound(2) - harborth_bound(1) == 1
        prev = harborth_bound(2)
        for n in range(3, 10 ** 6 + 1):
            cur = 3 * n - ceil_isqrt(12 * n - 3)
            assert cur - prev in (2, 3)
            prev = cur


class TestConcavityGap:
    def test_worked_example(self):
        expected = (math.sqrt(69) - 3) + (math.sqrt(21) - 3) - 6.0 - 0.0
        assert concavity_gap(7, 1, 1) == pytest.approx(expected)
        assert expected > 0.88

    def test_large_a(self):
        assert concavity_gap(100, 1, 0.5) > 0

    def test_tight_precondition(self):
        assert concavity_gap(3, 1, 1) > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            concavity_gap(2, 1, 1)  # a == b + c
        with pytest.raises(ValueError):
            concavity_gap(7, 0.5, 1)  # b < 1
        with pytest.raises(ValueError):
            concavity_gap(7, 1, 0)  # c == 0

    @settings(max_examples=300)
    @given(st.floats(min_value=1, max_value=1e4),
           st.floats(min_value=0.01, max_value=1e3),
           st.floats(min_value=0.01, max_value=1e3))
    def test_always_positive(self, b, c, slack):
        # c and the slack a - (b+c) are bounded away from zero so the true gap
        # stays orders of magnitude above float cancellation noise
        a = b + c + slack
        assert concavity_gap(a, b, c) > 0


class TestLatticeFrame:
    @given(points, st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_isometry(self, p, ox, oy, ang):
        frame = LatticeFrame(origin=(ox, oy), angle=ang)
        q = p + E(1, 0)
        d = math.dist(frame.to_cartesian(p), frame.to_cartesian(q))
        assert abs(d - 1.0) < 1e-12 * max(1.0, abs(ox) + abs(oy) + abs(p.m) + abs(p.n))

    @given(points, st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_round_trip(self, p, ox, oy, ang):
        frame = LatticeFrame(origin=(ox, oy), angle=ang)
        assert frame.nearest_point(frame.to_cartesian(p)) == p

    @given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-math.pi, max_value=math.pi), st.floats(min_value=0, max_value=0.6))
    def test_snap_is_nearest_point_within_slack(self, x, y, ox, oy, ang, slack):
        # snap writes out the arithmetic of nearest_point and to_cartesian
        frame = LatticeFrame(origin=(ox, oy), angle=ang)
        p = frame.nearest_point((x, y))
        assert frame.snap((x, y), slack) == (p if math.dist(frame.to_cartesian(p), (x, y)) <= slack
                                             else None)

    def test_snap_slack_is_inclusive(self):
        # (2.25, 0) and (1, 0.25) are exactly 0.25 from the images (2, 0) and (1, 0)
        # of E(1, 0) and E(0, 0), also in floats
        frame = LatticeFrame(origin=(1.0, 0.0))
        assert frame.snap((2.25, 0.0), 0.25) == E(1, 0)
        assert frame.snap((2.25, 0.0), math.nextafter(0.25, 0.0)) is None
        assert frame.snap((math.nextafter(2.25, 3.0), 0.0), 0.25) is None
        assert frame.snap((1.0, 0.25), 0.25) == E(0, 0)

    def test_equal_and_hashed_on_origin_and_angle(self):
        frame = LatticeFrame(origin=(1.0, -2.0), angle=0.3)
        same = LatticeFrame((1.0, -2.0), 0.3)
        assert frame == same and hash(frame) == hash(same) and frame is not same
        assert frame != LatticeFrame(origin=(1.0, -2.5), angle=0.3)
        assert frame != LatticeFrame(origin=(1.0, -2.0), angle=0.31)
        assert frame != ((1.0, -2.0), 0.3)

    def test_default_is_the_identity(self):
        frame = LatticeFrame()
        assert frame.origin == (0.0, 0.0) and frame.angle == 0.0
        assert frame.to_cartesian(E(2, 1)) == E(2, 1).cartesian()

    def test_attributes_cannot_be_assigned(self):
        frame = LatticeFrame()
        for name in ("origin", "angle", "_rotation", "extra"):
            with pytest.raises(AttributeError):
                setattr(frame, name, 1.0)
        with pytest.raises(AttributeError):
            del frame.angle
        assert frame == LatticeFrame() and frame._rotation == (1.0, 0.0)

    def test_repr(self):
        assert repr(LatticeFrame()) == "LatticeFrame(origin=(0.0, 0.0), angle=0.0)"
        assert repr(LatticeFrame([1, -2.5], 0.25)) == "LatticeFrame(origin=[1, -2.5], angle=0.25)"


class TestScaledCoordinates:
    @given(points, points)
    def test_parity_invariant(self, p, q):
        # doubled coordinates (u, v) = (2m+n, n) of lattice differences
        # always satisfy u == v (mod 2)
        u, v = (q - p).scaled()
        assert (u - v) % 2 == 0
        assert (u * u + 3 * v * v) % 4 == 0
        assert (u * u + 3 * v * v) // 4 == eisenstein_norm(q - p)

    @given(points, points)
    def test_cross_sign_matches_float(self, p, q):
        u1, v1 = p.scaled()
        u2, v2 = q.scaled()
        exact = u1 * v2 - u2 * v1
        (x1, y1), (x2, y2) = p.cartesian(), q.cartesian()
        approx = x1 * y2 - x2 * y1
        # cross product of cartesian images is (sqrt(3)/4) * exact
        assert math.isclose(approx, math.sqrt(3) / 4 * exact,
                            rel_tol=1e-9, abs_tol=1e-9)
        if abs(approx) > 1e-6:
            assert (approx > 0) == (exact > 0)
