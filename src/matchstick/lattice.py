"""Exact arithmetic on the triangular lattice.

A lattice point is addressed by an integer pair (m, n), meaning
m*(1, 0) + n*(1/2, sqrt(3)/2) in the plane.  The squared Euclidean
distance between two such points is the integer

    norm(dm, dn) = dm**2 + dm*dn + dn**2

of their coordinate difference, so every incidence question *within one
lattice* reduces to integer arithmetic.  A ``LatticeFrame`` carries the
isometry (translation + rotation) that places an abstract lattice into
the plane.

For exact orientation and intersection predicates we use the doubled
coordinates u = 2m + n, v = n, whose cartesian image is (u/2, v*sqrt(3)/2).
Cross products of such vectors equal (sqrt(3)/4) * (u1*v2 - u2*v1), so the
sign of any orientation test is the sign of an exact integer.
"""

from __future__ import annotations

import math
from collections import namedtuple

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
_new = tuple.__new__  # _new(EisensteinPoint, (m, n)) skips the namedtuple's Python __new__


class BudgetError(ValueError):
    """Raised when a brute-force operation exceeds its stated size budget."""


class EisensteinPoint(namedtuple("EisensteinPoint", "m n")):
    """Triangular-lattice point m*(1,0) + n*(1/2, sqrt(3)/2), m and n integers;
    a tuple (m, n), so it hashes, compares and orders as that pair."""

    __slots__ = ()

    def __add__(self, other: "EisensteinPoint") -> "EisensteinPoint":
        return _new(EisensteinPoint, (self.m + other.m, self.n + other.n))

    def __sub__(self, other: "EisensteinPoint") -> "EisensteinPoint":
        return _new(EisensteinPoint, (self.m - other.m, self.n - other.n))

    def __neg__(self) -> "EisensteinPoint":
        return _new(EisensteinPoint, (-self.m, -self.n))

    def rot60(self) -> "EisensteinPoint":
        """Rotate 60 degrees counterclockwise about the origin (a lattice automorphism)."""
        return _new(EisensteinPoint, (-self.n, self.m + self.n))

    def reflect(self) -> "EisensteinPoint":
        """Reflect across the axis spanned by (1, 0) (a lattice automorphism)."""
        return _new(EisensteinPoint, (self.m + self.n, -self.n))

    def cartesian(self) -> tuple[float, float]:
        return (self.m + 0.5 * self.n, self.n * HALF_SQRT3)

    def scaled(self) -> tuple[int, int]:
        """Doubled coordinates (u, v) = (2m + n, n); cartesian image (u/2, v*sqrt(3)/2)."""
        return (2 * self.m + self.n, self.n)

    def hexdist(self) -> int:
        """Graph distance from the origin in the unit-edge lattice graph."""
        return (abs(self.m) + abs(self.n) + abs(self.m + self.n)) // 2


ORIGIN = EisensteinPoint(0, 0)

# The six unit vectors, counterclockwise starting from (+1, 0).
UNIT_RING = (
    EisensteinPoint(1, 0),
    EisensteinPoint(0, 1),
    EisensteinPoint(-1, 1),
    EisensteinPoint(-1, 0),
    EisensteinPoint(0, -1),
    EisensteinPoint(1, -1),
)
# the index of each unit step in UNIT_RING
UNIT_STEP_INDEX = {d: k for k, d in enumerate(UNIT_RING)}


def eisenstein_norm(p: EisensteinPoint) -> int:
    """Squared Euclidean distance of p from the origin, an exact integer."""
    return p.m * p.m + p.m * p.n + p.n * p.n


def unit_neighbors(p: EisensteinPoint) -> list[EisensteinPoint]:
    """The 6 lattice points at distance exactly 1 from p, counterclockwise from p+(1,0)."""
    return [p + d for d in UNIT_RING]


# b - a -> the unit steps u with a + u at distance 1 from both a and b; the
# 18 differences of two distinct unit steps, of norm 1, 3 or 4
_COMMON_STEPS = {d: tuple(u for u in UNIT_RING if u - d in UNIT_STEP_INDEX)
                 for d in {u - w for u in UNIT_RING for w in UNIT_RING if u != w}}


def complete_unit_pair(a: EisensteinPoint, b: EisensteinPoint) -> set[EisensteinPoint]:
    """All lattice points at distance 1 from both a and b.

    Any *plane* point at distance 1 from two distinct points of a triangular
    lattice lies on that lattice, so this set is exhaustive: a caller holding
    a non-lattice candidate at unit distance from both may match it exactly
    against the result.  The set has 0, 1 or 2 elements.

    The answer is a + u over the unit steps u with u - (b - a) a unit step
    too, so it depends on b - a alone; it is looked up in a table of the 18
    differences of two distinct unit steps, and is empty for any other b - a.
    """
    if a == b:
        raise ValueError("degenerate pair: a == b")
    return {a + u for u in _COMMON_STEPS.get(b - a, ())}


def ceil_isqrt(x: int) -> int:
    """Exact integer ceiling square root; never goes through floating point."""
    if x < 0:
        raise ValueError("ceil_isqrt of negative value")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def phi(x) -> float:
    """The slack function sqrt(12x - 3) - 3, nonnegative for x >= 1.

    Accepts ints, floats and Fractions.
    """
    if x < 0.25:  # exact for ints, floats and Fractions
        raise ValueError(f"phi undefined for x < 1/4 (got {x})")
    return math.sqrt(float(12 * x - 3)) - 3.0


def harborth_bound(n: int) -> int:
    """Maximum edge count of an n-vertex matchstick graph, floor(3n - sqrt(12n - 3)).

    Computed exactly as 3n - ceil_isqrt(12n - 3); 12n - 3 is a perfect square
    exactly when n = 3j^2 + 3j + 1 (n = 1, 7, 19, ...), where floating-point
    floor would be off-by-one prone.
    """
    if n < 1:
        raise ValueError(f"harborth_bound requires n >= 1 (got {n})")
    return 3 * n - ceil_isqrt(12 * n - 3)


def concavity_gap(a, b, c) -> float:
    """(phi(a-c) + phi(b+c)) - (phi(a) + phi(b)); strictly positive when a > b+c, b >= 1, c > 0.

    The strict concavity of phi makes spreading mass from a large argument to a
    small one increase the sum; this is the workhorse inequality behind all the
    induction bookkeeping.
    """
    if not a > b + c:
        raise ValueError(f"requires a > b + c (got a={a}, b={b}, c={c})")
    if not b >= 1:
        raise ValueError(f"requires b >= 1 (got b={b})")
    if not c > 0:
        raise ValueError(f"requires c > 0 (got c={c})")
    return (phi(a - c) + phi(b + c)) - (phi(a) + phi(b))


class LatticeFrame:
    """Isometry placing the abstract lattice in the plane: rotate by angle, then translate.

    Immutable; equal and hashed on (origin, angle)."""

    __slots__ = ("origin", "angle", "_rotation")  # _rotation: cos, sin

    def __init__(self, origin: tuple[float, float] = (0.0, 0.0), angle: float = 0.0):
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "_rotation", (math.cos(angle), math.sin(angle)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"LatticeFrame(origin={self.origin!r}, angle={self.angle!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.origin, self.angle) == (other.origin, other.angle)

    def __hash__(self):
        return hash((self.origin, self.angle))

    def to_cartesian(self, p: EisensteinPoint) -> tuple[float, float]:
        x, y = p.cartesian()
        ca, sa = self._rotation
        return (self.origin[0] + ca * x - sa * y, self.origin[1] + sa * x + ca * y)

    def from_cartesian(self, xy: tuple[float, float]) -> tuple[float, float]:
        """Inverse map; returns fractional (m, n), exact lattice points land near integers."""
        dx, dy = xy[0] - self.origin[0], xy[1] - self.origin[1]
        ca, sa = self._rotation
        x, y = ca * dx + sa * dy, -sa * dx + ca * dy
        n = y / HALF_SQRT3
        return (x - 0.5 * n, n)

    def nearest_point(self, xy: tuple[float, float]) -> EisensteinPoint:
        m, n = self.from_cartesian(xy)
        return _new(EisensteinPoint, (round(m), round(n)))

    def snap(self, xy: tuple[float, float], slack: float) -> EisensteinPoint | None:
        """The frame point nearest ``xy``, or None when it is farther than ``slack``.

        The arithmetic of :meth:`nearest_point` and :meth:`to_cartesian`, written
        out: validation and ``decompose`` snap once per vertex or wedge."""
        (ox, oy), (ca, sa) = self.origin, self._rotation
        dx, dy = xy[0] - ox, xy[1] - oy
        n = (-sa * dx + ca * dy) / HALF_SQRT3
        m = round(ca * dx + sa * dy - 0.5 * n)
        n = round(n)
        x, y = m + 0.5 * n, n * HALF_SQRT3
        if math.dist((ox + ca * x - sa * y, oy + sa * x + ca * y), xy) <= slack:
            return _new(EisensteinPoint, (m, n))
        return None
