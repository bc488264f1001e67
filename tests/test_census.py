import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstick.builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from matchstick.census import check_harborth, check_penny_harborth, face_census
from matchstick.graph import connectivity, free_graph, lattice_graph
from matchstick.lattice import EisensteinPoint, harborth_bound

E = EisensteinPoint


def validated(g):
    assert g.validate().ok
    return g


class TestFaceCensus:
    def test_triangle(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        c = face_census(g)
        assert (c.n, c.e, c.b, c.f, c.F) == (3, 3, 3, {3: 1}, 0)
        assert c.e == 3 * c.n - 3 - c.b - c.F

    def test_hexagon_patch(self):
        g = validated(build_hexagon_patch(1))
        c = face_census(g)
        assert (c.n, c.e, c.b, c.f, c.F) == (7, 12, 6, {3: 6}, 0)
        assert 12 == 21 - 3 - 6 - 0

    def test_double_triangle(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(1, -1)]))
        c = face_census(g)
        assert (c.n, c.e, c.b, c.f, c.F) == (4, 5, 4, {3: 2}, 0)

    def test_quadrilateral_face_weight(self):
        g = validated(free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]))
        c = face_census(g)
        assert c.f == {4: 1} and c.F == 1 and c.f3 == 0

    def test_requires_two_connected(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0)]))
        with pytest.raises(ValueError):
            face_census(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=3, max_value=50), st.integers(min_value=0, max_value=999))
    def test_identities_fuzz(self, n, seed):
        g = random_lattice_subgraph(n, seed=seed)
        if not connectivity(g).two_connected:
            return
        c = face_census(g)  # internal identity checks raise on any failure
        assert c.F == sum((i - 3) * cnt for i, cnt in c.f.items() if i >= 4)
        assert (c.F == 0) == all(i == 3 for i in c.f)


class TestHarborthCheck:
    def test_hexagon_patch_tight(self):
        g = validated(build_hexagon_patch(1))
        r = check_harborth(g)
        assert (r.bound, r.e, r.tight) == (12, 12, True)

    def test_triangle_tight(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        r = check_harborth(g)
        assert (r.bound, r.e, r.tight) == (3, 3, True)

    def test_path_not_tight(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(2, 0)],
                                    edges=[(0, 1), (1, 2)]))
        r = check_harborth(g)
        assert (r.bound, r.e, r.tight) == (3, 2, False)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
    def test_theorem_fuzz(self, n, seed):
        g = random_lattice_subgraph(n, seed=seed)
        r = check_harborth(g)
        assert r.e <= r.bound


class TestPennyCheck:
    def test_hexagon_patch(self):
        r = check_penny_harborth(build_hexagon_patch(1))
        assert (r.bound, r.e, r.tight) == (12, 12, True)

    def test_close_free_vertices_rejected(self):
        g = free_graph([(0, 0), (0.9, 0)], [])
        with pytest.raises(ValueError, match="penny"):
            check_penny_harborth(g)

    def test_single_vertex(self):
        r = check_penny_harborth(lattice_graph([E(0, 0)]))
        assert (r.bound, r.e, r.tight) == (0, 0, True)

    def test_extremal_graphs_are_penny(self):
        for n in (5, 12, 30):
            r = check_penny_harborth(build_extremal(n))
            assert r.tight and r.bound == harborth_bound(n)


class TestInconsistencyPath:
    def test_bound_violation_raises_loudly(self):
        # force an impossible lattice graph past validation: the bound check
        # must refuse rather than report silently
        from matchstick.graph import ConsistencyError
        g = lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(1, 1)],
                          edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        g._validated_tol = 0.0  # bypass: e = 6 > bound(4) = 5
        with pytest.raises(ConsistencyError):
            check_harborth(g)

    def test_free_bound_violation_is_invalid_input_naming_the_tol(self):
        # K4 within 0.3 of unit edges passes validation at tol 0.3, though no
        # matchstick graph on 4 vertices has 6 edges
        from test_components import stretched_k4
        g = stretched_k4()
        assert g.validate(tol=0.3).ok
        with pytest.raises(ValueError, match=r"e=6 > 5 .*tol=0\.3"):
            check_harborth(g)
