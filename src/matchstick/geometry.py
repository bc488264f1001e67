"""Segment and polygon predicates, in two regimes.

Integer predicates operate on doubled lattice coordinates (u, v) = (2m+n, n)
and are exact: every orientation or incidence test is the sign of an integer.
Float predicates operate on cartesian pairs and take an explicit tolerance.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# shared (works for int or float pairs)


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(o, a, b):
    return (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])


# ---------------------------------------------------------------------------
# exact integer predicates


def on_segment_int(a, b, p) -> bool:
    """p lies on the closed segment ab (a, b, p integer pairs)."""
    if cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def strictly_inside_segment_int(a, b, p) -> bool:
    """p lies in the relative interior of segment ab."""
    return on_segment_int(a, b, p) and p != a and p != b


def segments_intersect_int(p1, p2, q1, q2) -> bool:
    """Closed segments p1p2 and q1q2 share at least one point."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and on_segment_int(q1, q2, p1):
        return True
    if d2 == 0 and on_segment_int(q1, q2, p2):
        return True
    if d3 == 0 and on_segment_int(p1, p2, q1):
        return True
    if d4 == 0 and on_segment_int(p1, p2, q2):
        return True
    return False


def point_in_polygon_int(pt, poly) -> bool:
    """pt inside or on the boundary of the simple polygon poly (integer pairs).

    Crossing-number test with exact arithmetic; boundary points count as inside.
    """
    n = len(poly)
    for i in range(n):
        if on_segment_int(poly[i], poly[(i + 1) % n], pt):
            return True
    px, py = pt
    inside = False
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if (ay > py) != (by > py):
            # px strictly left of the edge's crossing with the horizontal through pt
            t = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
            if (t > 0) if by > ay else (t < 0):
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# float predicates


def point_segment_distance(p, a, b) -> float:
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))


def segments_properly_cross(p1, p2, q1, q2) -> bool:
    """Strict sign test: the open segments cross in a single interior point."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    if not ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0):
        return False
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0


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
    is rejected); non-adjacent edges must not touch at all.
    """
    n = len(points)
    if n < 3:
        return False
    if len({(float(x), float(y)) for x, y in points}) != n:
        return False
    for i in range(n):
        p1, p2 = points[i], points[(i + 1) % n]
        for j in range(i + 1, n):
            q1, q2 = points[j], points[(j + 1) % n]
            if j == i + 1 or (i == 0 and j == n - 1):
                # adjacent: shared endpoint allowed, overlap not
                shared, pa, qa = ((p2, p1, q2) if j == i + 1 else (p1, p2, q1))
                if cross(shared, pa, qa) == 0 and dot(shared, pa, qa) > 0:
                    return False
                continue
            if segment_distance(p1, p2, q1, q2) <= 0.0:
                return False
    return True


def is_convex(points, eps: float = 0.0) -> bool:
    """All turns counterclockwise (cross >= -eps), traversal assumed CCW."""
    n = len(points)
    for i in range(n):
        if cross(points[i], points[(i + 1) % n], points[(i + 2) % n]) < -eps:
            return False
    return True
