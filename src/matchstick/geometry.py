"""Segment and polygon predicates on one exact orientation sign, plus float
distances.

:func:`orient` is exact for Python ints and finite floats, so the predicates
built on it are exact on doubled lattice coordinates (u, v) = (2m+n, n) and on
float pairs alike.  Callers compare the float distances with a tolerance.
"""

from __future__ import annotations

import math

# orient2d's static filter (Shewchuk, "Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates", 1997): with u = 2**-53 a
# float cross product l - r is off by at most (3 + 16u) u (|l| + |r|), plus at
# most 2**-1073 from underflowed products, which _ORIENT_TINY covers
_ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_TINY = 2.0 ** -1022  # the smallest normal float


# ---------------------------------------------------------------------------
# signs and exact predicates (int or float pairs)


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(o, a, b):
    return (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])


def orient(o, a, b) -> int:
    """The exact sign of cross(o, a, b): 1 counterclockwise, -1 clockwise, 0
    collinear, for Python ints and finite floats (ints mixed with floats at most
    2**53 in magnitude).  A float cross product decides when it exceeds its
    rounding error; otherwise the six coordinates, all dyadic rationals, are
    scaled to integers over one power-of-two denominator."""
    ox, oy = o
    left = (a[0] - ox) * (b[1] - oy)
    right = (a[1] - oy) * (b[0] - ox)
    det = left - right
    if type(det) is int:
        return (det > 0) - (det < 0)
    bound = _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_TINY
    if det > bound:  # never for nan; bound is inf when a product is
        return 1
    if -det > bound:
        return -1
    ratios = [c.as_integer_ratio() for c in (ox, oy, *a, *b)]
    den = max(d for _, d in ratios)
    ox, oy, ax, ay, bx, by = (n * (den // d) for n, d in ratios)
    det = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    return (det > 0) - (det < 0)


def box(a, b):
    """(min x, max x, min y, max y) of segment ab."""
    (ax, ay), (bx, by) = a, b
    return (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))


def _in_box(a, b, p) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def on_segment(a, b, p) -> bool:
    """p lies on the closed segment ab."""
    return _in_box(a, b, p) and orient(a, b, p) == 0


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed segments p1p2 and q1q2 share at least one point."""
    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 * d2 < 0 and d3 * d4 < 0)
            or (d1 == 0 and _in_box(q1, q2, p1)) or (d2 == 0 and _in_box(q1, q2, p2))
            or (d3 == 0 and _in_box(p1, p2, q1)) or (d4 == 0 and _in_box(p1, p2, q2)))


def segments_properly_cross(p1, p2, q1, q2) -> bool:
    """The open segments cross in a single interior point."""
    return orient(q1, q2, p1) * orient(q1, q2, p2) < 0 and orient(p1, p2, q1) * orient(p1, p2, q2) < 0


def point_in_polygon(pt, poly) -> bool:
    """pt inside or on the boundary of the simple polygon poly.

    Crossing-number test on exact signs; boundary points count as inside.
    """
    edges = [(poly[i - 1], poly[i]) for i in range(len(poly))]
    if any(on_segment(a, b, pt) for a, b in edges):
        return True
    inside = False
    for a, b in edges:
        # pt strictly left of the edge's crossing with the horizontal through pt
        if (a[1] > pt[1]) != (b[1] > pt[1]) and orient(a, b, pt) == (1 if b[1] > a[1] else -1):
            inside = not inside
    return inside


# ---------------------------------------------------------------------------
# float distances


def point_segment_distance(p, a, b) -> float:
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))


def segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two closed segments (0 if they cross)."""
    if segments_properly_cross(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


# ---------------------------------------------------------------------------
# polygon helpers (float pairs; also correct on int pairs)


def shoelace2(points) -> float:
    """Twice the signed area of the closed walk through points."""
    s = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def signed_area(points) -> float:
    return shoelace2(points) / 2.0


def perimeter(points) -> float:
    n = len(points)
    return sum(math.hypot(points[(i + 1) % n][0] - points[i][0],
                          points[(i + 1) % n][1] - points[i][1]) for i in range(n))


def polygon_is_simple(points) -> bool:
    """No repeated vertices (so no zero edges) and no two edges meeting off-endpoint.

    Adjacent edges may only share their common endpoint (anti-parallel overlap
    is rejected); non-adjacent edges must not touch at all, which needs their
    boxes to meet.
    """
    n = len(points)
    if n < 3 or len({(float(x), float(y)) for x, y in points}) != n:
        return False
    for i in range(n):  # edges i and i + 1 share points[i]
        s, pa, qa = points[i], points[i - 1], points[(i + 1) % n]
        if orient(s, pa, qa) == 0 and (_in_box(s, pa, qa) or _in_box(s, qa, pa)):
            return False
    boxes = [box(points[i - 1], points[i]) for i in range(n)]  # edge i ends at points[i]
    for i in range(n):
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 2, n - (i == 0)):
            u0, u1, v0, v1 = boxes[j]
            if (u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1
                    and segments_intersect(points[i - 1], points[i], points[j - 1], points[j])):
                return False
    return True


def is_convex(points, eps: float = 0.0) -> bool:
    """All turns counterclockwise (cross >= -eps), traversal assumed CCW."""
    n = len(points)
    for i in range(n):
        if cross(points[i], points[(i + 1) % n], points[(i + 2) % n]) < -eps:
            return False
    return True
