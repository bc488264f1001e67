"""Numeric diagnostic trace of the contradiction-chain claims.

All claims below are proved under the counterexample hypothesis
e > 3n - sqrt(12n - 3), which no real graph satisfies, so the trace only
*records* both sides of each inequality and a status; nothing is asserted.
Statuses within 1e-9 of equality are reported as Borderline so diagnostics
do not flap on exact-equality inputs (filled hexagon patches hit several
bounds exactly).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .census import face_census
from .components import decompose
from .graph import MatchstickGraph, connectivity
from .isoperimetry import HEX_COEFF
from .lattice import phi

BORDER = 1e-9

HOLDS = "Holds"
FAILS = "Fails"
BORDERLINE = "Borderline"
NOT_APPLICABLE = "NotApplicable"
# the claims that read the largest lattice component
_COMPONENT_CLAIMS = ("largest_component_share", "remainder_growth", "off_component_boundary",
                     "face_weight_refined", "gap_exceeds_nine")


ClaimRecord = namedtuple("ClaimRecord", "claim lhs rhs status")  # lhs, rhs: float or None


class TraceReport(namedtuple("TraceReport", "records derived assumption_holds")):
    """``assumption_holds``: e > 3n - sqrt(12n-3); False for every real graph."""

    __slots__ = ()

    def record(self, claim: str) -> ClaimRecord:
        for r in self.records:
            if r.claim == claim:
                return r
        raise KeyError(claim)

    def to_json(self) -> str:
        return json.dumps({
            "assumption_e_exceeds_bound": self.assumption_holds,
            "derived": self.derived,
            "claims": [
                {"claim": r.claim, "lhs": r.lhs, "rhs": r.rhs, "status": r.status}
                for r in self.records
            ],
        }, allow_nan=False)


def _rec(claim, lhs, rhs, relation, exact=False) -> ClaimRecord:
    # Borderline only applies to floating comparisons (anything through sqrt);
    # integer-vs-integer claims are decided exactly.
    if not exact and abs(lhs - rhs) <= BORDER:
        return ClaimRecord(claim, lhs, rhs, BORDERLINE)
    satisfied = {
        "<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs,
    }[relation]
    return ClaimRecord(claim, lhs, rhs, HOLDS if satisfied else FAILS)


def _na(claim) -> ClaimRecord:
    return ClaimRecord(claim, None, None, NOT_APPLICABLE)


def claim_trace(g: MatchstickGraph) -> TraceReport:
    """Evaluate every traced inequality on a validated graph, decomposing it
    at the largest tol its validate() passed at.

    Census- and component-dependent records degrade to NotApplicable when the
    graph is not 2-connected (single vertices and paths are legitimate inputs)."""
    g.require_validated()
    n, e = g.n, g.e
    sq = math.sqrt(12 * n - 3)
    assumption = e > 3 * n - sq
    info = connectivity(g)
    records = [
        _rec("min_degree", float(info.min_degree), 3.0, ">=", exact=True),
        ClaimRecord("two_connected", float(info.two_connected), 1.0,
                    HOLDS if info.two_connected else FAILS),
    ]
    derived = {"n": n, "e": e, "c": HEX_COEFF,
               "n_1": None, "D": None, "K_size": None, "b_star": None}

    if not info.two_connected:
        for name in ("boundary_upper", "triangle_count_lower", "size_cutoff", "face_weight_upper",
                     "coverage_lower", "coverage_upper") + _COMPONENT_CLAIMS:
            records.append(_na(name))
        return TraceReport(tuple(records), derived, assumption)

    census = face_census(g)
    F, b, f3 = census.F, census.b, census.f3
    records.append(_rec("boundary_upper", float(b), phi(n) - F, "<"))
    records.append(_rec("triangle_count_lower", float(f3), phi(n) ** 2 / 6.0 - F, ">"))
    records.append(_rec("size_cutoff", float(n), 147.0, ">=", exact=True))
    records.append(_rec("face_weight_upper", float(F), sq / 11.0 - 1.0, "<"))

    report = decompose(g)
    sum_ni = report.sum_n_i
    records.append(_rec("coverage_lower", float(report.lower), float(sum_ni), "<=", exact=True))
    records.append(_rec("coverage_upper", float(sum_ni), float(report.upper), "<=", exact=True))

    if report.components:
        g1 = report.components[0]
        n1 = g1.n_i
        D = sq - math.sqrt(12 * n1 - 3)
        bstar = report.b_star
        outside = set(g.ids()) - g1.vertices
        adj = g.adjacency()
        k_size = sum(1 for v in g1.vertices if any(u in outside for u in adj[v])) if outside else 0
        derived.update({"n_1": n1, "D": D, "K_size": k_size, "b_star": bstar})
        records.append(_rec("largest_component_share", float(n1), 3.0 * n / 4.0, ">"))
        records.append(_rec("remainder_growth", math.sqrt(12.0 * (n - n1)),
                            6.0 * F + D, "<"))
        records.append(_rec("off_component_boundary", float(bstar), D, "<"))
        records.append(_rec("face_weight_refined", float(F), D / 6.0 + 0.5, "<"))
        records.append(_rec("gap_exceeds_nine", D, 9.0, ">"))
    else:
        for name in _COMPONENT_CLAIMS:
            records.append(_na(name))

    return TraceReport(tuple(records), derived, assumption)


# ---------------------------------------------------------------------------
# quadratic thresholds behind the n >= 147 cutoff


def isoperimetric_phi_quadratic(f_weight: float, x: float) -> float:
    """The quadratic in phi obtained by feeding the Euler bounds through the
    classic isoperimetric inequality:

        F^2 - (2*phi - pi*sqrt(3))*F + (1 - pi*sqrt(3)/6)*phi^2

    Positive values are consistent with the inequalities; between the two
    roots the combination is impossible."""
    F = f_weight
    return F * F - (2.0 * x - math.pi * math.sqrt(3.0)) * F \
        + (1.0 - math.pi * math.sqrt(3.0) / 6.0) * x * x


def isoperimetric_phi_thresholds(f_weight: float = 2.0) -> tuple[float, float]:
    """Both roots in phi of the quadratic above, (F -+ sqrt(D)) / a with
    a = 1 - pi*sqrt(3)/6 and D = F^2 - a*(F^2 + pi*sqrt(3)*F); ValueError when
    D <= 0 (F = 0 among others), where the quadratic is never negative."""
    F = f_weight
    a = 1.0 - math.pi * math.sqrt(3.0) / 6.0
    disc = F * F - a * (F * F + math.pi * math.sqrt(3.0) * F)
    if disc <= 0.0:
        raise ValueError(f"quadratic has no real roots for F={f_weight}")
    root = math.sqrt(disc)
    return (F - root) / a, (F + root) / a
