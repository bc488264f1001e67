"""Euler and double-counting bookkeeping for validated plane graphs.

For a 2-connected plane graph with n vertices, e edges, boundary length b,
and f_i inner faces of length i, three exact integer identities hold:

    n - e + sum_i f_i = 1                 (Euler, counting inner faces only)
    2e  = b + sum_i i * f_i               (incident edge-face pairs)
    e   = 3n - 3 - b - F                  (combining the two)

where F = sum_{i>=4} (i-3) * f_i weighs the non-triangular inner faces.
These are theorems for valid inputs, so the census verifies them and raises
a ConsistencyError on failure (which would indicate a face-traversal bug).
"""

from __future__ import annotations

import json
from collections import namedtuple

from .graph import DEFAULT_TOL, ConsistencyError, MatchstickGraph, connectivity, faces
from .lattice import harborth_bound


class FaceCensus(namedtuple("FaceCensus", "n e b f F")):  # f: inner-face length -> count
    __slots__ = ()

    @property
    def f3(self) -> int:
        return self.f.get(3, 0)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "e": self.e, "b": self.b,
            "f": {str(k): v for k, v in sorted(self.f.items())},
            "F": self.F, "f3": self.f3,
        }, allow_nan=False)


def face_census(g: MatchstickGraph) -> FaceCensus:
    """Inner-face size histogram plus the boundary length b and weight F.
    Computed once per graph."""
    return g._once(_face_census)


def _face_census(g: MatchstickGraph) -> FaceCensus:
    if not connectivity(g).two_connected:
        raise ValueError("face_census requires a 2-connected graph")
    fs = faces(g)
    b = len(fs.outer_face)
    hist: dict[int, int] = {}
    for size in map(len, fs.inner_faces):
        hist[size] = hist.get(size, 0) + 1
    F = sum((i - 3) * c for i, c in hist.items() if i >= 4)
    census = FaceCensus(n=g.n, e=g.e, b=b, f=hist, F=F)
    _check_identities(census)
    return census


def _check_identities(c: FaceCensus):
    inner = sum(c.f.values())
    if c.n - c.e + inner != 1:
        raise ConsistencyError(
            f"Euler identity failed: n-e+sum(f_i) = {c.n - c.e + inner} != 1")
    weighted = sum(i * cnt for i, cnt in c.f.items())
    if 2 * c.e != c.b + weighted:
        raise ConsistencyError(
            f"edge-face double count failed: 2e={2 * c.e} != b+sum(i*f_i)={c.b + weighted}")
    if c.e != 3 * c.n - 3 - c.b - c.F:
        raise ConsistencyError(
            f"basic identity failed: e={c.e} != 3n-3-b-F={3 * c.n - 3 - c.b - c.F}")


class BoundCheck(namedtuple("BoundCheck", "bound e tight")):
    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps({"bound": self.bound, "e": self.e, "tight": self.tight},
                          allow_nan=False)


def check_harborth(g: MatchstickGraph) -> BoundCheck:
    """e <= floor(3n - sqrt(12n-3)) is a theorem for every matchstick graph.  In
    lattice mode a violation means a bug (ConsistencyError).  A large tol lets
    free drawings that no matchstick graph matches pass validation (K4 within
    0.3 of unit edges), so in free mode it means invalid input (ValueError)."""
    tol = g.require_validated()
    bound = harborth_bound(g.n)
    if g.e > bound:
        message = f"edge bound violated: e={g.e} > {bound} for n={g.n}"
        if not g.lattice_mode:
            raise ValueError(f"{message}, so no matchstick graph: the drawing passed "
                             f"validation only within tol={tol!r}")
        raise ConsistencyError(f"{message} (validator inconsistency)")
    return BoundCheck(bound=bound, e=g.e, tight=g.e == bound)


def check_penny_harborth(g: MatchstickGraph, tol: float = DEFAULT_TOL) -> BoundCheck:
    """Same bound under the penny hypothesis (pairwise vertex distances >= 1),
    which is verified first."""
    report = g.validate(tol=tol, penny_mode=True)
    if not report.ok:
        penny = [v for v in report.violations if v.kind == "PennyDistance"]
        if penny:
            v = penny[0]
            raise ValueError(
                f"penny hypothesis fails: vertices {v.ids} at distance {v.value}")
        raise ValueError(f"graph invalid: {report.violations[0]}")
    return check_harborth(g)
