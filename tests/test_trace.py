import json
import math

import pytest

from matchstick.builders import build_extremal, build_hexagon_patch
from matchstick.census import face_census
from matchstick.components import decompose
from matchstick.graph import MatchstickGraph, connectivity, faces, free_graph, lattice_graph
from matchstick.lattice import EisensteinPoint, phi
from matchstick.trace import (claim_trace, isoperimetric_phi_quadratic,
                              isoperimetric_phi_thresholds)

E = EisensteinPoint


def validated(g):
    assert g.validate().ok
    return g


class TestClaimTrace:
    def test_patch3_boundary_is_borderline(self):
        # b = 18 and phi(37) = sqrt(441) - 3 = 18 exactly: recorded, never asserted
        g = validated(build_hexagon_patch(3))
        t = claim_trace(g)
        rec = t.record("boundary_upper")
        assert rec.lhs == 18.0 and rec.rhs == pytest.approx(18.0, abs=1e-12)
        assert rec.status == "Borderline"
        assert not t.assumption_holds

    def test_triangle_size_cutoff_fails(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        t = claim_trace(g)
        assert t.record("size_cutoff").status == "Fails"

    def test_extremal_graphs_never_satisfy_assumption(self):
        for n in (1, 2, 7, 19, 50):
            t = claim_trace(build_extremal(n))
            assert not t.assumption_holds

    def test_not_two_connected_degrades(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(2, 0)],
                                    edges=[(0, 1), (1, 2)]))
        t = claim_trace(g)
        assert t.record("two_connected").status == "Fails"
        assert t.record("boundary_upper").status == "NotApplicable"
        assert t.record("gap_exceeds_nine").status == "NotApplicable"
        for bad in (math.nan, -1.0, math.inf):  # checked before the early return
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                claim_trace(g, bad)

    def test_two_connected_without_a_lattice_component(self):
        # the unit square is 2-connected, but no wedge of it snaps to the lattice
        g = validated(free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]))
        report = decompose(g)
        assert (report.k, report.b_star) == (0, None)
        t = claim_trace(g)
        for name in ("largest_component_share", "remainder_growth", "off_component_boundary",
                     "face_weight_refined", "gap_exceeds_nine"):
            assert t.record(name).status == "NotApplicable"
        # n - 2F <= sum n_i <= n + 4F with F = 1 (the square) and no component
        assert t.record("coverage_lower")[1:] == (2.0, 0.0, "Fails")
        assert t.record("coverage_upper")[1:] == (0.0, 8.0, "Holds")
        assert t.derived["n_1"] is None

    def test_derived_quantities_on_patch(self):
        g = validated(build_hexagon_patch(2))
        t = claim_trace(g)
        assert t.derived["n_1"] == 19
        assert t.derived["D"] == pytest.approx(0.0)
        assert t.derived["K_size"] == 0
        assert t.derived["b_star"] == 0
        assert t.derived["c"] == pytest.approx(2 / math.sqrt(3) - 1)

    def test_json_record_shape(self):
        g = validated(build_hexagon_patch(1))
        data = json.loads(claim_trace(g).to_json())
        assert data["assumption_e_exceeds_bound"] is False
        for rec in data["claims"]:
            assert set(rec) == {"claim", "lhs", "rhs", "status"}
            assert rec["status"] in {"Holds", "Fails", "Borderline", "NotApplicable"}

    def test_trace_is_pure_diagnostics(self):
        # removing claim_trace must not change anything: run it twice, same output
        g = validated(build_hexagon_patch(2))
        assert claim_trace(g).to_json() == claim_trace(g).to_json()


class TestAnalysesComputedOnce:
    def test_trace_leaves_one_shared_analysis_per_graph(self):
        g = validated(build_extremal(40))
        assert connectivity(g).two_connected
        claim_trace(g)
        fresh = validated(MatchstickGraph.from_json(g.to_json()))
        for analysis in (connectivity, faces, face_census):
            assert analysis(g) is analysis(g)
            assert analysis(g) == analysis(fresh)


class TestQuadraticThresholds:
    def test_roots_are_zeros_of_the_quadratic(self):
        lo, hi = isoperimetric_phi_thresholds(2.0)
        assert isoperimetric_phi_quadratic(2.0, lo) == pytest.approx(0.0, abs=1e-9)
        assert isoperimetric_phi_quadratic(2.0, hi) == pytest.approx(0.0, abs=1e-9)

    def test_reported_thresholds(self):
        lo, hi = isoperimetric_phi_thresholds(2.0)
        assert lo == pytest.approx(4.114, abs=1e-3)
        assert hi == pytest.approx(38.849, abs=1e-3)

    def test_cutoff_at_147(self):
        _, hi = isoperimetric_phi_thresholds(2.0)
        assert phi(147) > hi
        assert phi(146) < hi
        assert phi(146) < 38.964

    def test_quadratic_signs(self):
        lo, hi = isoperimetric_phi_thresholds(2.0)
        assert isoperimetric_phi_quadratic(2.0, (lo + hi) / 2) < 0
        assert isoperimetric_phi_quadratic(2.0, hi + 1) > 0
        assert isoperimetric_phi_quadratic(2.0, max(lo - 1, 0.0)) > 0

    def test_no_roots_for_zero_F(self):
        # at F = 0 the quadratic degenerates to (1 - pi*sqrt(3)/6) * phi^2 >= 0
        with pytest.raises(ValueError):
            isoperimetric_phi_thresholds(0.0)


class TestKSizeOfAWholeComponent:
    def test_no_scan_when_g1_holds_every_vertex(self, monkeypatch):
        # G_1 is the whole patch, so no vertex has a neighbour outside it: K_size
        # is 0 without reading the adjacency, and the JSON is what it was
        g = validated(build_hexagon_patch(2))
        want = claim_trace(validated(build_hexagon_patch(2))).to_json()
        for analysis in (connectivity, faces, face_census):
            analysis(g)
        decompose(g, 1e-9)
        monkeypatch.setattr(g, "adjacency", lambda: {})  # a scan would raise KeyError
        t = claim_trace(g)
        assert t.derived["n_1"] == g.n and t.derived["K_size"] == 0
        assert t.to_json() == want


class TestDerivedOnFlap:
    def test_k_size_counts_attachment_vertices(self):
        from test_components import make_flap_graph
        t = claim_trace(make_flap_graph())
        # the flap hangs off two vertices of the hexagon component
        assert t.derived["n_1"] == 7
        assert t.derived["K_size"] == 2
        assert t.derived["b_star"] == 3
        assert t.record("coverage_lower").status in ("Holds", "Borderline")
