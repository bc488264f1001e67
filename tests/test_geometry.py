"""The exact orientation sign and the segment predicates built on it, against
a pure ``fractions.Fraction`` reference.

The inputs are the hard cases for a float sign: collinear and nearly
collinear triples and quadruples, whose float cross products are rounding
noise, at coordinates within 6, scaled down to 1e-155 (the products are
subnormal) and 1e-300 (they underflow to zero) and up to 1e100 (the
coordinate bound), and ints up to 3 * 2**53.
"""

import math
import random
from fractions import Fraction

import pytest

from matchstick.geometry import orient, segments_intersect, segments_properly_cross

FOUND = ((1.2544885755603807, -5.431807993889613), (0.25885091715245045, -0.5810939643381292),
         (-0.4432577753748589, 2.8395565668583127), (0.09074853142839179, 0.23789534763371245))


def sign(x) -> int:
    return (x > 0) - (x < 0)


def ref_cross(o, a, b):
    (ox, oy), (ax, ay), (bx, by) = [(Fraction(x), Fraction(y)) for x, y in (o, a, b)]
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def ref_segments(p1, p2, q1, q2):
    """(closed segments meet, open segments cross in one point), by solving
    p1 + t (p2 - p1) = q1 + s (q2 - q1) in rationals."""
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = [
        (Fraction(x), Fraction(y)) for x, y in (p1, p2, q1, q2)]
    rx, ry, sx, sy = p2x - p1x, p2y - p1y, q2x - q1x, q2y - q1y
    wx, wy = q1x - p1x, q1y - p1y
    den = rx * sy - ry * sx
    if den != 0:
        t = (wx * sy - wy * sx) / den
        s = (wx * ry - wy * rx) / den
        return 0 <= t <= 1 and 0 <= s <= 1, 0 < t < 1 and 0 < s < 1
    if any(ref_cross(*tri) != 0 for tri in ((q1, q2, p1), (q1, q2, p2), (p1, p2, q1), (p1, p2, q2))):
        return False, False  # parallel, on two lines
    # one line: the segments meet exactly when their boxes do
    meet = (max(p1x, p2x) >= min(q1x, q2x) and max(q1x, q2x) >= min(p1x, p2x)
            and max(p1y, p2y) >= min(q1y, q2y) and max(q1y, q2y) >= min(p1y, p2y))
    return meet, False


def near(rng, x):
    """x, or x moved by a few ulps."""
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
    return x


def line_points(rng, k):
    """k points on one line through a random point, the four shapes mixed:
    rounded points of a line, exact dyadic steps, and ulp moves of either."""
    ax, ay = rng.uniform(-3, 3), rng.uniform(-3, 3)
    if rng.random() < 0.5:
        dx, dy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        ts = [rng.uniform(-1, 1) for _ in range(k)]
    else:
        dx, dy = rng.randint(-24, 24) / 8, rng.randint(-24, 24) / 8
        ts = [rng.randint(-4, 4) / 4 for _ in range(k)]
        ax, ay = round(ax * 64) / 64, round(ay * 64) / 64
    pts = [(ax + t * dx, ay + t * dy) for t in ts]
    if rng.random() < 0.5:
        pts = [(near(rng, x), near(rng, y)) for x, y in pts]
    return pts


def float_cases(n, scale):
    rng = random.Random(f"geometry/{scale}")
    for i in range(n):
        pts = line_points(rng, 3 + i % 2)
        yield [(x * scale, y * scale) for x, y in pts]


def int_cases(n):
    rng = random.Random("geometry/int")
    big = 3 * 2 ** 53
    for i in range(n):
        ax, ay = rng.randint(-big, big), rng.randint(-big, big)
        dx, dy = rng.randint(-big // 8, big // 8), rng.randint(-big // 8, big // 8)
        pts = [(ax + t * dx + rng.choice((0, 0, 1, -1)), ay + t * dy + rng.choice((0, 0, 1, -1)))
               for t in (rng.randint(-3, 3) for _ in range(3 + i % 2))]
        yield [(max(-big, min(big, x)), max(-big, min(big, y))) for x, y in pts]


def check(cases):
    """Every case against the reference; counts of (collinear triples,
    quadruples that meet, quadruples that properly cross)."""
    seen = [0, 0, 0]
    for pts in cases:
        if len(pts) == 3:
            want = sign(ref_cross(*pts))
            assert orient(*pts) == want, pts
            seen[0] += want == 0
        else:
            meet, crossing = ref_segments(*pts)
            assert segments_intersect(*pts) is meet, pts
            assert segments_properly_cross(*pts) is crossing, pts
            seen[1] += meet
            seen[2] += crossing
    return seen


class TestAgainstFractions:
    def test_floats_within_6(self):
        collinear, meet, crossing = check(float_cases(100_000, 1.0))
        assert collinear > 5000 and meet > 5000 and crossing > 1000

    @pytest.mark.parametrize("scale", [1e-300, 1e-155, 1e100])
    def test_floats_at_the_extremes(self, scale):
        collinear, meet, crossing = check(float_cases(20_000, scale))
        assert collinear > 500 and meet > 500 and crossing > 100

    def test_ints_up_to_three_times_2_to_53(self):
        collinear, meet, crossing = check(int_cases(20_000))
        assert collinear > 500 and meet > 500 and crossing > 100

    def test_found_quadruple(self):
        p1, p2, q1, q2 = FOUND
        # the float cross products alternate in sign; the exact ones put q1
        # and q2 on one side of p1p2
        assert orient(p1, p2, q1) == orient(p1, p2, q2) == 1
        for o, a, b in ((q1, q2, p1), (q1, q2, p2), (p1, p2, q1), (p1, p2, q2)):
            assert orient(o, a, b) == sign(ref_cross(o, a, b))
        check([list(FOUND)])
        assert segments_properly_cross(*FOUND) is False
        assert segments_intersect(*FOUND) is False


class TestOrient:
    def test_turns(self):
        assert orient((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1
        assert orient((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) == -1
        assert orient((0, 0), (2, 2), (5, 5)) == 0

    def test_past_the_float_range(self):
        # the float products overflow; the integer fallback still decides
        big = 1e300
        assert orient((-big, -big), (big, big), (0.0, 0.0)) == 0
        assert orient((-big, -big), (big, big), (0.0, 1e-300)) == 1

    def test_subnormal_products(self):
        tiny = 5e-324
        assert orient((0.0, 0.0), (tiny, 0.0), (tiny, tiny)) == 1
        assert orient((0.0, 0.0), (tiny, tiny), (2 * tiny, 2 * tiny)) == 0
