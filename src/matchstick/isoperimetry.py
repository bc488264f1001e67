"""Polygon measures and two isoperimetric inequality engines.

The classic engine checks 4*pi*A < b**2 for simple polygons.  The
hexagon-direction-constrained engine checks

    8*sqrt(3)*A <= (b + (2/sqrt(3) - 1) * b_star)**2

where b_star is the total length of the polygon sides *not* parallel to any
side of a fixed regular hexagon.  The proof machinery is implemented too:
the maximum-area rearrangement of a polygon (angular sort of its directed
edge vectors, which is the convex rearrangement), the hexagon circumscribed
about a convex polygon with sides 60 degrees apart, the 120-degree-triangle
chord bound, and the isoperimetric inequality for hexagons
A(H) <= (sqrt(3)/24) * b(H)**2.

Collinear consecutive edges are never merged: b and b_star are length sums,
invariant under subdivision, and merging would silently change the edge
counts used in reports.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import geometry as geo
from .graph import ConsistencyError, MatchstickGraph, _lattice, _point, boundary
from .census import face_census
from .lattice import SQRT3

HEX_COEFF = 2.0 / SQRT3 - 1.0
DEFAULT_ANGLE_TOL = 1e-9
CHECK_MARGIN = 1e-9  # relative: see _at_most


class Polygon(namedtuple("Polygon", "vertices")):
    """Simple polygon, counterclockwise, positive area.  Build via polygon()."""

    __slots__ = ()

    @property
    def area(self) -> float:
        return geo.signed_area(self.vertices)

    @property
    def perimeter(self) -> float:
        return geo.perimeter(self.vertices)

    def edge_vectors(self):
        vs = self.vertices
        n = len(vs)
        return [(vs[(i + 1) % n][0] - vs[i][0], vs[(i + 1) % n][1] - vs[i][1])
                for i in range(n)]


def polygon(points) -> Polygon:
    """Validate and orient a vertex list: simple, no zero edges, area > 0.

    Clockwise input is reversed to counterclockwise; degenerate or
    self-intersecting input, or a vertex that is not a pair of finite numbers
    at most 1e100 in magnitude, raises ValueError.
    """
    pts = [_point(xy, f"polygon vertex {i}") for i, xy in enumerate(points)]
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if not geo.polygon_is_simple(pts):
        raise ValueError("polygon is not simple")
    a2 = geo.shoelace2(pts)
    if a2 == 0.0:
        raise ValueError("polygon has zero area")
    if a2 < 0:
        pts.reverse()
    return Polygon(vertices=tuple(pts))


class DirectionSet(namedtuple("DirectionSet", "theta0", defaults=(0.0,))):
    """The six directions of a regular hexagon with base angle theta0:
    three undirected slope classes theta0 + k*pi/3 (mod pi)."""

    __slots__ = ()

    def is_parallel(self, angle: float) -> bool:
        rem = (angle - self.theta0) % (math.pi / 3)
        return min(rem, math.pi / 3 - rem) <= DEFAULT_ANGLE_TOL

    def normals(self):
        """Outward normals of the six hexagon sides, counterclockwise."""
        return [self.theta0 + math.pi / 6 + k * math.pi / 3 for k in range(6)]


class SplitLengths(namedtuple("SplitLengths", "b_parallel b_star")):
    __slots__ = ()

    @property
    def total(self) -> float:
        return self.b_parallel + self.b_star


def check_classic(p: Polygon) -> dict:
    """4*pi*A < b**2, strict for every simple polygon."""
    lhs = 4.0 * math.pi * p.area
    rhs = p.perimeter ** 2
    holds = lhs < rhs
    if not holds:
        raise ConsistencyError(f"classic isoperimetric inequality failed: {lhs} >= {rhs}")
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "margin": rhs - lhs}


def hex_parallel_split(p: Polygon, d: DirectionSet) -> SplitLengths:
    """Split the perimeter into hexagon-parallel and unconstrained length."""
    par = 0.0
    star = 0.0
    for vx, vy in p.edge_vectors():
        length = math.hypot(vx, vy)
        if d.is_parallel(math.atan2(vy, vx)):
            par += length
        else:
            star += length
    return SplitLengths(b_parallel=par, b_star=star)


def convexify_rearrangement(p: Polygon) -> Polygon:
    """The convex polygon with the same directed edge multiset as p.

    Sorting the counterclockwise edge vectors by angle produces the unique
    convex rearrangement (up to translation), which attains the maximum area
    over all rearrangements; perimeter and every direction split are
    preserved exactly since the edge multiset is.
    """
    vecs = p.edge_vectors()

    def key(v):
        a = math.atan2(v[1], v[0])
        return (a if a >= 0 else a + 2 * math.pi, math.hypot(*v))

    vecs.sort(key=key)
    pts = []
    x, y = 0.0, 0.0
    for vx, vy in vecs:
        pts.append((x, y))
        x, y = x + vx, y + vy
    return Polygon(vertices=tuple(pts))


class Hexagon(namedtuple("Hexagon", "directions offsets vertices")):
    """Intersection of six supporting half-planes with outward normals 60
    degrees apart; sides may be degenerate (length 0).  ``offsets`` is the
    support value per normal, ``vertices`` the 6 corners, counterclockwise."""

    __slots__ = ()

    @property
    def side_lengths(self):
        vs = self.vertices
        return [math.dist(vs[(k + 1) % 6], vs[k]) for k in range(6)]

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    @property
    def area(self) -> float:
        return geo.signed_area(self.vertices)


def circumscribed_hexagon(p: Polygon, d: DirectionSet) -> Hexagon:
    """Smallest hexagon with sides parallel to the direction set containing p;
    every side is a supporting line of p.  Requires a convex polygon."""
    scale = max(max(abs(x), abs(y)) for x, y in p.vertices) + 1.0
    if not geo.is_convex(p.vertices, eps=1e-9 * scale * scale):
        raise ValueError("circumscribed_hexagon requires a convex polygon")
    normals = [(math.cos(a), math.sin(a)) for a in d.normals()]
    offsets = tuple(max(nx * x + ny * y for x, y in p.vertices) for nx, ny in normals)
    verts = []
    for k in range(6):
        nx1, ny1 = normals[k]
        nx2, ny2 = normals[(k + 1) % 6]
        h1, h2 = offsets[k], offsets[(k + 1) % 6]
        det = nx1 * ny2 - nx2 * ny1  # sin(60 degrees), never near zero
        verts.append(((h1 * ny2 - h2 * ny1) / det, (nx1 * h2 - nx2 * h1) / det))
    hexagon = Hexagon(directions=d, offsets=offsets, vertices=tuple(verts))
    slack = 1e-9 * scale
    for x, y in p.vertices:
        for (nx, ny), h in zip(normals, offsets):
            if nx * x + ny * y > h + slack:
                raise ConsistencyError("circumscribed hexagon does not contain polygon")
    return hexagon


def _at_most(lhs: float, rhs: float) -> bool:
    """lhs <= rhs within CHECK_MARGIN * max(1, |rhs|): rounding grows with the sides."""
    return lhs <= rhs + CHECK_MARGIN * max(1.0, abs(rhs))


def _hexagonal(area: float, b: float, b_star: float, what: str) -> dict:
    """8*sqrt(3)*area <= (b + (2/sqrt(3)-1)*b_star)**2 by _at_most, or ConsistencyError."""
    lhs = 8.0 * SQRT3 * area
    rhs = (b + HEX_COEFF * b_star) ** 2
    if not _at_most(lhs, rhs):
        raise ConsistencyError(f"{what} failed: lhs={lhs} rhs={rhs}")
    return {"lhs": lhs, "rhs": rhs, "holds": True, "margin": rhs - lhs}


def check_hexagonal(p: Polygon, d: DirectionSet) -> dict:
    """8*sqrt(3)*A <= (b + (2/sqrt(3)-1)*b_star)**2 for every simple polygon
    and every direction set; equality for the aligned regular hexagon.  Holds
    within CHECK_MARGIN * max(1, rhs)."""
    split = hex_parallel_split(p, d)
    return {**_hexagonal(p.area, p.perimeter, split.b_star,
                         "hexagonal isoperimetric inequality"),
            "b": p.perimeter, "b_star": split.b_star, "theta0": d.theta0}


def obtuse_chord_bound(pq_len: float, pr_len: float, qr_len: float) -> bool:
    """In a triangle pqr with a 120-degree angle at r, |pr| + |qr| <= (2/sqrt(3))|pq|.

    The cosine rule gives |pq|^2 = |pr|^2 + |qr|^2 + |pr||qr|, which is checked
    as a precondition within CHECK_MARGIN * max(1, |pq|^2); the bound holds
    within CHECK_MARGIN * max(1, rhs)."""
    if pq_len < 0 or pr_len < 0 or qr_len < 0:
        raise ValueError("lengths must be nonnegative")
    cosine = pr_len ** 2 + qr_len ** 2 + pr_len * qr_len
    if abs(cosine - pq_len ** 2) > CHECK_MARGIN * max(1.0, pq_len ** 2):
        raise ValueError(
            f"not a 120-degree triangle: |pq|^2={pq_len ** 2} vs cosine-rule value {cosine}")
    return _at_most(pr_len + qr_len, (2.0 / SQRT3) * pq_len)


def hexagon_isoperimetric_check(h: Hexagon) -> bool:
    """A(H) <= (sqrt(3)/24) * b(H)**2 within CHECK_MARGIN * max(1, rhs); the
    regular hexagon is the equality case."""
    lhs = h.area
    rhs = (SQRT3 / 24.0) * h.perimeter ** 2
    if not _at_most(lhs, rhs):
        raise ConsistencyError(f"hexagon isoperimetric inequality failed: {lhs} > {rhs}")
    return True


def graph_isoperimetric_audit(g: MatchstickGraph, report) -> dict:
    """Instantiate both inequalities on a graph's boundary polygon.

    The area is bounded below by (sqrt(3)/4) * f_3 since every triangular inner
    face is a unit equilateral triangle; that bound is asserted.  The hexagonal
    inequality uses the largest lattice component's frame angle as the
    direction base and the count of boundary edges of g off that component's
    boundary as b_star (all unit edges, so count = length).  Both bounds hold
    within CHECK_MARGIN * max(1, |larger side|).  The polygon's corners are
    positions less the first boundary vertex's, as in the free face walk; a
    lattice-mode graph's are its frame-free points, taken in integers, so
    neither a far frame origin nor far lattice coordinates cost any area.
    """
    cycle, b = boundary(g)
    if g.lattice_mode:
        points = g._once(_lattice)[1]
        p0 = points[cycle[0]]
        corners = [(points[v] - p0).cartesian() for v in cycle]
    else:
        pos = g.positions()
        x0, y0 = pos[cycle[0]]
        corners = [(pos[v][0] - x0, pos[v][1] - y0) for v in cycle]
    census = face_census(g)
    boundary_poly = polygon(corners)
    A = boundary_poly.area
    triangle_area = (SQRT3 / 4.0) * census.f3
    if not _at_most(triangle_area, A):
        raise ConsistencyError(
            f"boundary area {A} below triangle lower bound {triangle_area}")
    classic = check_classic(boundary_poly)
    if report.components:
        theta0 = report.components[0].frame.angle
        bstar = float(report.b_star)
    else:
        theta0 = 0.0
        bstar = float(b)
    hexagonal = _hexagonal(A, b, bstar, "hexagonal inequality on graph boundary")
    return {
        "A": A, "b": b, "f3": census.f3, "triangle_lower_bound": triangle_area,
        "classic": classic,
        "hexagonal": {**hexagonal, "theta0": theta0, "b_star": bstar},
    }


def random_simple_polygon(rng: random.Random, min_vertices: int = 3,
                          max_vertices: int = 12) -> Polygon:
    """Reproducible random simple polygon: uniform points in the unit square,
    swept into a cycle by angle around their centroid (a space partition that
    cannot self-cross for points in general position); resamples on the rare
    degenerate draw.  ValueError when ``max_vertices`` < 3: no draw is one."""
    if max_vertices < 3:
        raise ValueError(f"max_vertices must be at least 3, not {max_vertices!r}")
    while True:
        m = rng.randint(min_vertices, max_vertices)
        pts = [(rng.random(), rng.random()) for _ in range(m)]
        cx = sum(x for x, _ in pts) / m
        cy = sum(y for _, y in pts) / m
        pts.sort(key=lambda q: (math.atan2(q[1] - cy, q[0] - cx),
                                math.hypot(q[0] - cx, q[1] - cy)))
        try:
            return polygon(pts)
        except ValueError:
            continue
