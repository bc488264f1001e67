import contextlib
import math
import random
from pathlib import Path
from unittest import mock

import pytest

from matchstick.builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from matchstick.census import face_census
from matchstick.components import component_boundary_check, decompose, fill_component
from matchstick.graph import (_NONE, DEFAULT_TOL, ConsistencyError, FreeCoord, LatticeCoord,
                              MatchstickGraph, _canonical_rotation, _grow, _lattice,
                              _lattice_at, _norm_edge, _unit_steps, block_decomposition, boundary,
                              connectivity, faces, free_graph, lattice_graph)
from matchstick.lattice import (ORIGIN, UNIT_RING, UNIT_STEP_INDEX, EisensteinPoint,
                                LatticeFrame, phi)
from matchstick.trace import claim_trace
from test_validation_oracle import _with_leaf, moved, rotated_free

E = EisensteinPoint


def validated(g):
    assert g.validate().ok
    return g


def component_graph(comp):
    """The component as a standalone lattice-mode graph on its own frame (original
    vertex ids), checked exactly: the reference its boundary walk is compared with."""
    vertices = [(vid, LatticeCoord(0, comp.coords[vid])) for vid in sorted(comp.vertices)]
    return validated(MatchstickGraph(vertices, comp.edges, frames=(comp.frame,)))


@contextlib.contextmanager
def building_no_graph(monkeypatch):
    """Fails the test when the block constructs any MatchstickGraph."""
    def built(*args, **kwargs):
        raise AssertionError("a graph was built")

    with monkeypatch.context() as m:
        m.setattr(MatchstickGraph, "__init__", built)
        yield m


def make_bowtie(angle_deg=17.0):
    """Two unit triangles sharing one vertex, the second rotated off-lattice."""
    a = math.radians(angle_deg)

    def rot(p):
        return (p[0] * math.cos(a) - p[1] * math.sin(a),
                p[0] * math.sin(a) + p[1] * math.cos(a))

    t1 = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    base = [(1.0, 0.0), (2.0, 0.0), (1.5, math.sqrt(3) / 2)]
    t2 = [(1.0 + rot((px - 1.0, py))[0], rot((px - 1.0, py))[1]) for px, py in base]
    coords = t1 + t2[1:]
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]
    return validated(free_graph(coords, edges))


def make_flap_graph(angle_deg=40.0):
    """Patch k=1 plus a rhombus flap of two free vertices on one boundary edge.

    A single extra vertex at unit distance from two lattice vertices would
    itself be on the lattice, so the smallest off-lattice appendage that keeps
    all edges unit-length is this two-vertex parallelogram flap.
    """
    patch = build_hexagon_patch(1)
    verts = list(patch.vertices)
    edges = set(patch.edges)
    id_a = next(vid for vid, c in verts if c.point == E(1, 0))
    id_b = next(vid for vid, c in verts if c.point == E(0, 1))
    ang = math.radians(angle_deg)
    ux, uy = math.cos(ang), math.sin(ang)
    ax, ay = E(1, 0).cartesian()
    bx, by = E(0, 1).cartesian()
    cid, did = 100, 101
    verts += [(cid, FreeCoord(ax + ux, ay + uy)), (did, FreeCoord(bx + ux, by + uy))]
    edges |= {(id_a, cid), (cid, did), (did, id_b)}
    return validated(MatchstickGraph(verts, edges, frames=patch.frames))


class TestDecompose:
    def test_patch_single_component(self):
        g = validated(build_hexagon_patch(2))
        rep = decompose(g)
        assert rep.k == 1
        comp = rep.components[0]
        assert comp.n_i == 19 and comp.e_i == 42
        assert comp.b_i == 12
        assert phi(19) == pytest.approx(12.0, abs=1e-12)  # equality case
        assert comp.vertices == frozenset(g.ids())

    def test_whole_graph_component_reuses_graph_boundary(self, monkeypatch):
        # a 2-connected lattice graph is one block, so its component is the
        # graph itself and decompose takes the graph's own boundary
        g = validated(random_lattice_subgraph(40, seed=3, require_2connected=True))
        with building_no_graph(monkeypatch):
            comp = decompose(g).components[0]
        assert comp.vertices == frozenset(g.ids()) and comp.edges == frozenset(g.edges)
        assert comp.boundary_cycle == tuple(boundary(component_graph(comp))[0])

    def test_free_graph_on_one_lattice_reuses_graph_blocks_and_boundary(self, monkeypatch):
        # the first region grown on a rotated spiral holds all of it, so the
        # spiral is one lattice graph and decompose reads its cached analysis
        import matchstick.components as components
        g = validated(rotated_free(build_extremal(500), 0.7, (3.0, -2.0)))
        connectivity(g), faces(g)

        def recomputed(*args):
            raise AssertionError("decompose recomputed what g has cached")

        with building_no_graph(monkeypatch) as m:
            m.setattr(components, "block_decomposition", recomputed)
            [comp] = decompose(g).components
        assert comp.vertices == frozenset(g.ids()) and comp.edges == frozenset(g.edges)
        assert comp.boundary_cycle == tuple(boundary(g)[0])

    def test_free_graph_edge_snapped_off_a_lattice_step_is_in_no_component(self, monkeypatch):
        # at tol 0.3 every vertex snaps onto one lattice, but the ends of edge
        # 0-1 (each moved 0.25 along it) snap to points sqrt(3) apart: 0-1 is no
        # lattice step, so the cycle 0-1-2-3-4 is broken and only the unit
        # triangle 2-3-5 is a component
        s = math.sqrt(3) / 2
        o, a = (0.0, 0.0), (1.5, s)
        u = (0.25 * 1.5 / math.sqrt(3), 0.25 * s / math.sqrt(3))
        coords = [(o[0] + u[0], o[1] + u[1]), (a[0] - u[0], a[1] - u[1]),
                  (2.0, 0.0), (1.5, -s), (0.5, -s), (2.5, -s)]
        g = free_graph(coords, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (3, 5)])
        assert g.validate(tol=0.3).ok
        with building_no_graph(monkeypatch):
            [comp] = decompose(g, tol=0.3).components
        assert comp.vertices == {2, 3, 5} and comp.edges == {(2, 3), (2, 5), (3, 5)}

    def test_free_graph_a_quarter_off_its_lattice_takes_the_lattice_boundary(self):
        lat = build_hexagon_patch(1)
        far = max(lat.ids(), key=lambda v: (lat.coord(v).point.hexdist(), v))
        x, y = lat.positions()[far]
        coords = [(1.26 * x, 1.26 * y) if v == far else lat.positions()[v] for v in lat.ids()]
        g = free_graph(coords, sorted(lat.edges))
        assert g.validate(tol=0.3).ok
        [comp] = decompose(g, tol=0.3).components
        assert comp.boundary_cycle == tuple(boundary(component_graph(comp))[0])

    @pytest.mark.parametrize("tol", [0.05, 0.3])
    def test_noisy_free_spiral_is_one_component(self, tol):
        # each coordinate moved by up to 0.01, so every vertex snaps within tol
        g = noisy(rotated_free(build_extremal(45), 4.1, (2.5, 1.0)), 0.01, random.Random(11))
        assert g.validate(tol=tol).ok
        [comp] = decompose(g, tol).components
        assert comp.vertices == frozenset(g.ids())

    def test_computed_once_per_tol(self):
        g = validated(rotated_free(build_hexagon_patch(2), 0.4, (1.0, 2.0)))
        report = decompose(g)
        assert decompose(g) is report and decompose(g, tol=DEFAULT_TOL) is report
        other = decompose(g, tol=1e-6)
        assert other is not report and decompose(g, 1e-6) is other
        assert other.to_json() == report.to_json()
        # a tol validate() rejects is rejected alike, not decomposed to k = 0
        for bad in (math.nan, -1.0, math.inf):
            for analysis in (decompose, claim_trace):
                with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                    analysis(g, bad)

    def test_bowtie_two_components_two_frames(self):
        rep = decompose(make_bowtie())
        assert rep.k == 2
        assert [c.n_i for c in rep.components] == [3, 3]
        a1, a2 = (c.frame.angle for c in rep.components)
        assert abs(a1 - a2) > 0.1  # incompatible lattice frames

    def test_free_square_no_components(self):
        g = validated(free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]))
        rep = decompose(g)
        assert rep.k == 0 and rep.sum_n_i == 0

    def test_rhombus_is_a_component(self):
        # 60/120-degree unit rhombus: no triangle, but wedge-seeded
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(1, 1), E(0, 1)],
                                    edges=[(0, 1), (1, 2), (2, 3), (3, 0)]))
        rep = decompose(g)
        assert rep.k == 1 and rep.components[0].n_i == 4

    def test_requires_validation(self):
        g = build_hexagon_patch(1)
        with pytest.raises(ValueError):
            decompose(g)

    def test_edge_sets_disjoint_and_boundary_bound(self):
        for seed in range(12):
            g = random_lattice_subgraph(25, seed=seed, require_2connected=True)
            rep = decompose(g)
            seen = set()
            for comp in rep.components:
                assert not (comp.edges & seen)
                seen |= comp.edges
                b_i, target, holds = component_boundary_check(comp)
                assert holds and b_i >= target - 1e-9

    def test_every_triangle_edge_covered(self):
        g = validated(build_hexagon_patch(2))
        rep = decompose(g)
        covered = set()
        for comp in rep.components:
            covered |= comp.edges
        assert covered == set(g.edges)

    def test_relabeling_stability(self):
        g = validated(build_hexagon_patch(1))
        rep1 = decompose(g)
        remap = {vid: vid + 100 for vid in g.ids()}
        g2 = validated(MatchstickGraph(
            [(remap[vid], c) for vid, c in g.vertices],
            [(remap[a], remap[b]) for a, b in g.edges], g.frames))
        rep2 = decompose(g2)
        assert [c.n_i for c in rep2.components] == [c.n_i for c in rep1.components]
        assert [{remap[v] for v in c.vertices} for c in rep1.components] == \
               [set(c.vertices) for c in rep2.components]

    def test_mixed_graph_finds_lattice_part(self):
        g = make_flap_graph()
        rep = decompose(g)
        assert rep.k == 1
        assert rep.components[0].n_i == 7  # the patch, not the flap

    def test_free_coords_recover_lattice(self):
        # same patch, entered as raw floats: numeric path must find one component
        patch = build_hexagon_patch(1)
        coords = [patch.position(v) for v in patch.ids()]
        g = validated(free_graph(coords, patch.edges))
        rep = decompose(g)
        assert rep.k == 1 and rep.components[0].n_i == 7


class TestComponentBoundaryCheck:
    def test_triangle(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        comp = decompose(g).components[0]
        b_i, target, holds = component_boundary_check(comp)
        assert b_i == 3 and holds
        assert target == pytest.approx(math.sqrt(33) - 3)

    def test_patch_equality(self):
        comp = decompose(validated(build_hexagon_patch(1))).components[0]
        b_i, target, holds = component_boundary_check(comp)
        assert b_i == 6 and target == pytest.approx(6.0) and holds

    def test_spiral_ten(self):
        g = validated(build_extremal(10))
        comp = decompose(g).components[0]
        b_i, target, holds = component_boundary_check(comp)
        assert target == pytest.approx(math.sqrt(117) - 3)
        assert b_i >= 8 and holds

    def test_hexagon_patches_are_exact_equalities(self):
        # b = 6k and n = 3k^2 + 3k + 1, so (b + 3)^2 == 12n - 3: decided on
        # integers, with no margin, and phi(n) rounds to b
        for k in range(1, 31):
            comp = decompose(validated(build_hexagon_patch(k))).components[0]
            assert (comp.b_i, comp.n_i) == (6 * k, 3 * k * k + 3 * k + 1)
            b_i, target, holds = component_boundary_check(comp)
            assert holds and (b_i + 3) ** 2 == 12 * comp.n_i - 3
            assert target == pytest.approx(b_i)

    def test_random_two_connected_components(self):
        for n in (12, 30, 60):
            for seed in range(6):
                g = random_lattice_subgraph(n, seed=seed, require_2connected=True)
                for comp in decompose(validated(g)).components:
                    b_i, target, holds = component_boundary_check(comp)
                    assert holds and b_i == comp.b_i and target == phi(comp.n_i)

    def test_one_edge_short_raises(self):
        # the 7-point patch has b = 6 = phi(7); a forged boundary of 5 is one short
        comp = decompose(validated(build_hexagon_patch(1))).components[0]
        forged = comp._replace(b_i=comp.b_i - 1)
        with pytest.raises(ConsistencyError, match=r"b_i=5 < phi\(7\)"):
            component_boundary_check(forged)


class TestFillComponent:
    def test_hollow_ring_fills_to_patch(self):
        ring = [E(1, 0), E(0, 1), E(-1, 1), E(-1, 0), E(0, -1), E(1, -1)]
        g = validated(lattice_graph(ring))
        assert g.e == 6
        comp = decompose(g).components[0]
        filled = fill_component(comp)
        assert (filled.n, filled.e) == (7, 12)

    def test_filled_patch_unchanged(self):
        comp = decompose(validated(build_hexagon_patch(2))).components[0]
        filled = fill_component(comp)
        assert (filled.n, filled.e) == (19, 42)

    def test_triangle_unchanged(self):
        g = validated(lattice_graph([E(0, 0), E(1, 0), E(0, 1)]))
        comp = decompose(g).components[0]
        filled = fill_component(comp)
        assert (filled.n, filled.e) == (3, 3)

    def test_preserves_boundary_and_grows(self):
        for seed in range(8):
            g = random_lattice_subgraph(20, seed=seed, require_2connected=True)
            comp = decompose(g).components[0]
            filled = validated(fill_component(comp))
            assert filled.n >= comp.n_i
            sub = component_graph(comp)
            cyc_before, b_before = boundary(sub)
            cyc_after, b_after = boundary(filled)
            # identical frame and exact lattice coords: positions match bitwise
            before = {sub.position(v) for v in cyc_before}
            after = {filled.position(v) for v in cyc_after}
            assert b_after == b_before
            assert before == after


class TestBStar:
    def test_patch_zero(self):
        g = validated(build_hexagon_patch(1))
        rep = decompose(g)
        assert rep.b_star == 0

    def test_flap_counts_new_boundary_edges(self):
        g = make_flap_graph()
        rep = decompose(g)
        # three flap edges are on the outer boundary of g but not of G_1, and
        # one boundary edge of G_1 is now interior to g
        assert rep.b_star == 3
        cycle, b = boundary(g)
        assert b == 8
        g1_edges = rep.components[0].boundary_edges
        outer = {frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
                 for i in range(len(cycle))}
        inner_g1 = [e for e in g1_edges if frozenset(e) not in outer]
        assert len(inner_g1) == 1

    def test_no_components_error(self):
        g = validated(free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]))
        rep = decompose(g)
        # b* is undefined without a largest component: the report holds None
        assert rep.components == () and rep.b_star is None


class TestCoverageBounds:
    def test_patch(self):
        g = validated(build_hexagon_patch(2))
        rep = decompose(g)
        assert (rep.sum_n_i, rep.lower, rep.upper) == (19, 19, 19)

    def test_flap(self):
        g = make_flap_graph()
        rep = decompose(g)
        assert rep.sum_n_i == 7
        assert rep.lower == 9 - 2 and rep.upper == 9 + 4

    def test_no_components(self):
        g = validated(free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]))
        rep = decompose(g)
        assert rep.sum_n_i == 0
        assert (rep.lower, rep.upper) == (4 - 2, 4 + 4)  # one square face


class TestReportJson:
    def test_shapes(self):
        import json
        g = validated(build_hexagon_patch(1))
        data = json.loads(decompose(g).to_json())
        assert data["k"] == 1 and data["b_star"] == 0
        comp = data["components"][0]
        assert set(comp) == {"vertices", "frame", "n_i", "e_i", "b_i"}


class TestPendantEdge:
    def test_triangle_edges_still_covered(self):
        # a pendant edge is not in any component, but every triangle edge is
        g = validated(lattice_graph(
            [E(0, 0), E(1, 0), E(0, 1), E(2, 0)],
            edges=[(0, 1), (1, 2), (2, 0), (1, 3)]))
        rep = decompose(g)
        assert rep.k == 1
        comp = rep.components[0]
        assert comp.vertices == frozenset({0, 1, 2})
        assert comp.edges == {(0, 1), (1, 2), (0, 2)}


class TestLatticeBowtie:
    def test_components_may_share_a_cut_vertex(self):
        # both triangles on one lattice sharing a vertex: two components with
        # disjoint edge sets but a common vertex
        pts = [E(0, 0), E(1, 0), E(0, 1), E(2, 0), E(1, 1)]
        g = validated(lattice_graph(
            pts, edges=[(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]))
        rep = decompose(g)
        assert rep.k == 2
        assert [c.n_i for c in rep.components] == [3, 3]
        assert not (rep.components[0].edges & rep.components[1].edges)
        assert rep.components[0].vertices & rep.components[1].vertices == {1}

    def test_free_coordinate_variant_matches(self):
        pts = [E(0, 0), E(1, 0), E(0, 1), E(2, 0), E(1, 1)]
        lattice = validated(lattice_graph(
            pts, edges=[(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]))
        coords = [lattice.position(v) for v in lattice.ids()]
        g = validated(free_graph(coords, lattice.edges))
        rep = decompose(g)
        assert rep.k == 2 and [c.n_i for c in rep.components] == [3, 3]


def make_bridged_patches(cells=3, bridge_deg=37.0):
    """Two aligned hexagon patches joined by a parallelogram ladder whose rail
    direction is off-lattice: two lattice components plus quadrilateral faces.

    The ladder leaves the upper-right boundary edge of patch A and must land
    on the parallel lower-left boundary edge of patch B, so B is translated by
    (departure vertex + cells * w) - (landing vertex).
    """
    patch = build_hexagon_patch(1)
    wx, wy = math.cos(math.radians(bridge_deg)), math.sin(math.radians(bridge_deg))
    a_xy, b_xy = E(1, 0).cartesian(), E(0, 1).cartesian()
    land_a, land_b = E(0, -1), E(-1, 0)
    lx, ly = land_a.cartesian()
    ox, oy = a_xy[0] + cells * wx - lx, a_xy[1] + cells * wy - ly
    ids, coords, edges = {}, [], set()

    def vertex(key, xy):
        if key not in ids:
            ids[key] = len(coords)
            coords.append(xy)
        return ids[key]

    pts = {vid: c.point for vid, c in patch.vertices}
    for side, (dx, dy) in (("A", (0.0, 0.0)), ("B", (ox, oy))):
        for vid in patch.ids():
            x, y = patch.position(vid)
            vertex((side, pts[vid]), (x + dx, y + dy))
        for a, b in patch.edges:
            edges.add((ids[(side, pts[a])], ids[(side, pts[b])]))
    rail_u = [ids[("A", E(1, 0))]] + [
        vertex(("U", i), (a_xy[0] + i * wx, a_xy[1] + i * wy))
        for i in range(1, cells)] + [ids[("B", land_a)]]
    rail_v = [ids[("A", E(0, 1))]] + [
        vertex(("V", i), (b_xy[0] + i * wx, b_xy[1] + i * wy))
        for i in range(1, cells)] + [ids[("B", land_b)]]
    for i in range(cells):
        edges.add((rail_u[i], rail_u[i + 1]))
        edges.add((rail_v[i], rail_v[i + 1]))
    for i in range(1, cells):
        edges.add((rail_u[i], rail_v[i]))
    return validated(free_graph(coords, edges))


class TestBridgedPatches:
    def test_two_components_and_coverage(self):
        g = make_bridged_patches()
        assert connectivity(g).two_connected
        census = face_census(g)
        assert census.F == 3  # the three parallelogram cells
        rep = decompose(g)
        assert rep.k == 2
        assert [c.n_i for c in rep.components] == [7, 7]
        a1, a2 = (c.frame.angle for c in rep.components)
        assert rep.sum_n_i == 14
        assert rep.lower == g.n - 2 * census.F
        assert rep.upper == g.n + 4 * census.F
        assert rep.lower <= rep.sum_n_i <= rep.upper

    def test_b_star_and_trace(self):
        from matchstick.trace import claim_trace
        g = make_bridged_patches()
        rep = decompose(g)
        # outer boundary: 5 edges of each patch plus both 3-edge rails
        _, b = boundary(g)
        assert b == 16
        assert rep.b_star == 16 - 5
        t = claim_trace(g)
        assert not t.assumption_holds
        assert t.derived["n_1"] == 7 and t.derived["K_size"] == 2


class TestNumericPathMatchesLatticePath:
    def test_same_components_for_float_reentry(self):
        # the single-frame fast path is trivially correct (blocks of the whole
        # graph); the numeric seed-and-grow path must reproduce it exactly
        # when the same graph is re-entered as raw floats
        import random as _random
        rng = _random.Random(2718)
        for _ in range(30):
            g = random_lattice_subgraph(rng.randint(4, 30),
                                        seed=rng.randrange(10 ** 6))
            coords = [g.position(v) for v in g.ids()]
            gf = validated(free_graph(coords, g.edges))
            validated(g)
            rep_lattice = decompose(g)
            rep_float = decompose(gf)
            assert [sorted(c.vertices) for c in rep_lattice.components] == \
                   [sorted(c.vertices) for c in rep_float.components]
            assert [c.edges for c in rep_lattice.components] == \
                   [c.edges for c in rep_float.components]
            assert [c.b_i for c in rep_lattice.components] == \
                   [c.b_i for c in rep_float.components]


def disconnected_lattice_graph(seed):
    """A random lattice subgraph and a 2-connected one, far apart on one lattice."""
    a = random_lattice_subgraph(12, seed=seed)
    b = random_lattice_subgraph(9, seed=seed + 1, require_2connected=True)
    return lattice_graph([a.coord(v).point for v in a.ids()]
                         + [b.coord(v).point + E(40, 0) for v in b.ids()])


class TestFreeCopiesOfLatticeGraphs:
    """A rotated and shifted free copy of a lattice graph has the components of
    the lattice original, whether one grown region holds all of it or not."""

    CONNECTED = [random_lattice_subgraph(25, seed=s) for s in range(4)]
    TWO_CONNECTED = [random_lattice_subgraph(20, seed=s, require_2connected=True)
                     for s in range(4)]
    DISCONNECTED = [disconnected_lattice_graph(s) for s in range(3)]

    def test_corpus_covers_each_kind(self):
        kinds = [(connectivity(g).connected, connectivity(g).two_connected)
                 for g in self.CONNECTED + self.TWO_CONNECTED + self.DISCONNECTED]
        assert {(True, False), (True, True), (False, False)} <= set(kinds)

    @pytest.mark.parametrize("angle", [0.3, 1.1, 2.6, 4.0])
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (1000.5, -999.25)])
    def test_same_components_as_lattice_original(self, angle, shift):
        def key(c):
            return c.vertices, c.edges, c.n_i, c.e_i, c.b_i, c.boundary_cycle

        for g in self.CONNECTED + self.TWO_CONNECTED + self.DISCONNECTED:
            want = decompose(validated(g))
            gf = validated(rotated_free(g, angle, shift))
            got = decompose(gf)
            assert [key(c) for c in got.components] == [key(c) for c in want.components]
            assert (got.sum_n_i, got.lower, got.upper, got.b_star) == \
                   (want.sum_n_i, want.lower, want.upper, want.b_star)
            pos = gf.positions()
            for c in got.components:
                assert all(math.dist(c.frame.to_cartesian(p), pos[v]) <= DEFAULT_TOL
                           for v, p in c.coords.items())


def patch_chain(k, r, rng):
    """k hexagon patches of radius r as free floats, each on its own lattice
    tilted from the last by 5 to 40 degrees; patch i + 1's west corner is patch
    i's east corner, and a rhombus on that corner closes each joint, so the
    chain is 2-connected."""
    hexagon = [E(m, n) for m in range(-r, r + 1) for n in range(-r, r + 1)
               if E(m, n).hexdist() <= r]
    coords, edges, prev, tilt = [], [], None, rng.uniform(-20.0, 20.0)
    for _ in range(k):
        corner = (rng.uniform(-5, 5), rng.uniform(-5, 5)) if prev is None else coords[prev[E(r, 0)]]
        a = math.radians(tilt)
        frame = LatticeFrame(origin=(corner[0] + r * math.cos(a), corner[1] + r * math.sin(a)),
                             angle=a)
        ids = {}
        for p in hexagon:
            if prev is not None and p == E(-r, 0):
                ids[p] = prev[E(r, 0)]
            else:
                ids[p] = len(coords)
                coords.append(frame.to_cartesian(p))
        edges += [(i, ids[p + d]) for p, i in ids.items() for d in (E(1, 0), E(0, 1), E(-1, 1))
                  if p + d in ids]
        if prev is not None:
            qa, qb = coords[prev[E(r - 1, 1)]], coords[ids[E(-r, 1)]]
            coords.append((qa[0] + qb[0] - corner[0], qa[1] + qb[1] - corner[1]))
            edges += [(prev[E(r - 1, 1)], len(coords) - 1), (ids[E(-r, 1)], len(coords) - 1)]
        prev = ids
        while True:
            step = rng.uniform(-20.0, 20.0)
            if 5.0 <= abs(step - tilt) <= 40.0:
                tilt = step
                break
    return free_graph(coords, edges)


def spiral_pair(n1, n2, angle=None):
    """Two spirals far apart: on one lattice, or with the second turned by ``angle``."""
    a, b = build_extremal(n1), build_extremal(n2)
    pts = [a.coord(v).point for v in a.ids()] + [b.coord(v).point + E(60, 0) for v in b.ids()]
    g = lattice_graph(pts)
    if angle is None:
        return g
    pos = g.positions()
    ca, sa = math.cos(angle), math.sin(angle)
    x0, y0 = E(60, 0).cartesian()
    coords = [pos[v] if v < a.n else
              (x0 + ca * (pos[v][0] - x0) - sa * (pos[v][1] - y0),
               y0 + sa * (pos[v][0] - x0) + ca * (pos[v][1] - y0)) for v in g.ids()]
    return free_graph(coords, g.edges)


def noisy(g, noise, rng):
    pos = g.positions()
    return free_graph([(pos[v][0] + rng.uniform(-noise, noise), pos[v][1] + rng.uniform(-noise, noise))
                       for v in g.ids()], g.edges)


def stretched_k4():
    """K4 as a triangle of side 1.29 and its centre: every edge is within 0.3
    of unit length, and the centre's wedges snap all four onto one lattice,
    where the triangle's sides are sqrt(3) long."""
    h = 1.29 * math.sqrt(3) / 2
    return free_graph([(0.0, 0.0), (1.29, 0.0), (0.645, h), (0.645, h / 3)],
                      [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])


class TestBoundaryWalk:
    """Each component's boundary is walked on its lattice points; it is the
    outer face of the component rebuilt as a lattice-mode graph."""

    @staticmethod
    def corpus():
        rng = random.Random(31)
        graphs = [patch_chain(k, r, rng) for k, r in ((2, 1), (3, 2), (5, 1), (8, 2), (16, 1))]
        graphs += [spiral_pair(40, 25), spiral_pair(30, 19, angle=0.4),
                   rotated_free(spiral_pair(33, 12), 1.3, (4.0, -7.5))]
        graphs += [noisy(rotated_free(build_extremal(n), angle, (2.5, 1.0)), noise, rng)
                   for n, angle, noise in ((60, 0.3, 1e-12), (90, 2.2, 1e-7), (45, 4.1, 0.01))]
        graphs += [make_bowtie(), make_flap_graph(), make_bridged_patches(), stretched_k4(),
                   patch_chain(6, 2, random.Random(37))]
        for seed in range(4):
            lat = random_lattice_subgraph(30, seed=seed, require_2connected=True)
            graphs += [lat, rotated_free(lat, 0.5 + seed, (seed, -seed))]
        return graphs

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.05, 0.1, 0.3, 0.45])
    def test_boundary_is_the_rebuilt_components_outer_face(self, tol, monkeypatch):
        # decompose builds no graph, so the exact check of each component
        # (component_graph asserts that it validates) is made here
        checked = 0
        for g in self.corpus():
            if not g.validate(tol=tol).ok:
                continue
            with building_no_graph(monkeypatch):
                report = decompose(g, tol)
            claim_trace(g, tol)
            for comp in report.components:
                cycle, b = boundary(component_graph(comp))
                assert (comp.boundary_cycle, comp.b_i) == (tuple(cycle), b)
                checked += 1
        assert checked >= 40

    def test_chain_decomposes_without_rebuilding_a_component(self, monkeypatch):
        g = validated(patch_chain(8, 1, random.Random(5)))
        with building_no_graph(monkeypatch):
            report = decompose(g)
        assert [c.n_i for c in report.components] == [7] * 8


def _reference_components(g, tol):
    """decompose's components with the filter it had before :func:`_maximal`:
    every region block on at least 3 vertices built, deduplicated by edge set,
    then each compared with every other for strict containment."""
    import matchstick.components as components
    comps = []
    seen_edge_sets = set()
    for blk, adj, frame, coords in components._grow_all_seeds(g, tol):
        if len(blk) < 3:
            continue
        comp = components._make_component(blk, adj, frame, coords)
        if comp.edges in seen_edge_sets:
            continue
        seen_edge_sets.add(comp.edges)
        comps.append(comp)
    kept = [c for c in comps if not any(c is not d and c.edges < d.edges for d in comps)]
    kept.sort(key=lambda c: (-c.n_i, min(c.vertices)))
    return kept, len(comps) - len(kept)


class TestContainmentFilter:
    """decompose keeps a block only when no block holding its smallest edge
    contains it: the components of the all-pairs filter, in the same order."""

    @staticmethod
    def corpus():
        rng = random.Random(41)
        graphs = [patch_chain(k, r, rng) for k, r in ((2, 1), (3, 2), (8, 1), (16, 2), (64, 1))]
        graphs += [noisy(rotated_free(build_extremal(n), angle, (2.5, 1.0)), noise, rng)
                   for n, angle, noise in ((60, 0.3, 0.01), (90, 2.2, 0.05), (45, 4.1, 0.1))]
        graphs += [noisy(patch_chain(6, 2, rng), noise, rng) for noise in (0.01, 0.05)]
        graphs += [make_bowtie(), make_flap_graph(), make_bridged_patches(), stretched_k4(),
                   spiral_pair(30, 19, angle=0.4)]
        return graphs

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.45])
    def test_same_components_as_the_all_pairs_filter(self, tol):
        dropped = 0
        for g in self.corpus():
            if not g.validate(tol=tol).ok:
                continue
            want, contained = _reference_components(g, tol)
            assert list(decompose(g, tol).components) == want
            dropped += contained
        if tol >= 0.2:
            assert dropped > 0  # the corpus has contained blocks to drop there


# decompose's boundary walk and region-edge rule as they were before they ran
# on (m, n) int pairs: _make_component verbatim but for its edge set, taken as
# the block's edges in ``adj`` (so it ignores ``edges``, the whole graph's), and
# _grow_all_seeds verbatim but for the names of what it calls, the candidates'
# shape and a switch that drops its full-cover exit
def _reference_make_component(vset, adj, frame, coords, edges=None):
    import matchstick.components as components
    eset = {_norm_edge(u, w) for u in vset for w in adj[u] if w in vset}
    points = coords if len(vset) == len(coords) else {v: coords[v] for v in vset}
    at = {p: v for v, p in points.items()}

    def neighbour(v, k):  # v's neighbour in direction k (mod 6), or None
        u = at.get(points[v] + UNIT_RING[k % 6])
        return u if u is not None and _norm_edge(u, v) in eset else None

    s = min(points, key=lambda v: points[v][::-1])
    k0 = next(k for k in range(6) if neighbour(s, k) is not None)
    cycle, v, k = [], s, k0  # the walk is at v, come from its neighbour in direction k
    while not cycle or (v, k) != (s, k0):
        cycle.append(v)
        j = next(j for j in range(k + 5, k - 1, -1) if neighbour(v, j) is not None)
        v, k = neighbour(v, j), (j + 3) % 6
    return components.LatticeComponent(
        vertices=frozenset(vset), edges=frozenset(eset), frame=frame, coords=points,
        boundary_cycle=_canonical_rotation(cycle), n_i=len(vset), e_i=len(eset), b_i=len(cycle))


def _reference_grow_all_seeds(g, tol, full_cover_exit=True):
    pos = g.positions()
    adj = g.adjacency()
    candidates = []
    regions_of = {}  # vertex -> indices of the grown regions holding it
    n_regions = 0
    for x in sorted(adj):
        nbrs = adj[x]
        for i, y in enumerate(nbrs):
            frame = y_on = None
            for w in nbrs[i + 1:]:
                if regions_of.get(x, _NONE) & regions_of.get(y, _NONE) & regions_of.get(w, _NONE):
                    continue
                if frame is None:
                    (x0, y0), (x1, y1) = pos[x], pos[y]
                    frame = LatticeFrame(pos[x], math.atan2(y1 - y0, x1 - x0))
                p = frame.snap(pos[w], tol)
                if p not in UNIT_RING[1:]:
                    continue
                if y_on is None:
                    y_on = frame.snap(pos[y], tol) == UNIT_RING[0]
                if not y_on:
                    break
                coords = _grow(pos, adj, frame, {x: ORIGIN, y: UNIT_RING[0], w: p}, tol)
                if (full_cover_exit and len(coords) == g.n
                        and _unit_steps(g.edges, coords) is not None):
                    return candidates + [(blk, adj, frame, coords)
                                         for blk in connectivity(g).blocks]
                region_adj = {v: [u for u in adj[v] if u in coords
                                  and coords[u] - coords[v] in UNIT_STEP_INDEX]
                              for v in coords}
                for v in coords:
                    regions_of.setdefault(v, set()).add(n_regions)
                n_regions += 1
                blocks, _ = block_decomposition(sorted(coords), region_adj)
                candidates.extend((blk, region_adj, frame, coords) for blk in blocks)
    return candidates


def _reference_decompose(g, tol, grow_all_seeds=_reference_grow_all_seeds):
    """decompose's report from the reference wedge scan and boundary walk
    above, which it runs on a free graph whatever its lift."""
    import matchstick.components as components
    with mock.patch.multiple(components, _make_component=_reference_make_component,
                             _grow_all_seeds=grow_all_seeds,
                             _lattice_at=lambda g, tol: g._once(_lattice)):
        return components._decompose(g, tol)


def assert_blocks_on_lattice(g, tol):
    """decompose(g, tol)'s components are g's blocks on at least 3 vertices,
    with the frame and points of ``_lattice_at(g, tol)``, and share no edge."""
    got = decompose(g, tol)
    frame, points = _lattice_at(g, tol)
    blocks = {blk for blk in connectivity(g).blocks if len(blk) >= 3}
    assert {c.vertices for c in got.components} == blocks and got.k == len(blocks)
    for c in got.components:
        assert c.frame == frame and c.coords == {v: points[v] for v in c.vertices}
    assert len(set().union(*(c.edges for c in got.components))) == sum(c.e_i for c in got.components)
    return got


class TestSameDecompositionAsTheReference:
    """The int-pair boundary walk and region-edge rule, and the blocks of a
    whole lift, give every graph the decompose document, boundary cycles and
    coordinates of the reference: on a whole lift whose smallest vertex has a
    second neighbour, the reference's first wedge starts on the lift's seed
    edge and grows the lift's points."""

    @staticmethod
    def corpus(monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs
        rng = random.Random(43)
        graphs = [inputs.patch_chain(k, 1, rng)[0] for k in (1, 2, 8, 64)]
        for n in range(6, 41):
            g = random_lattice_subgraph(n, seed=n, require_2connected=True)
            graphs += [g, rotated_free(g, rng.uniform(0.0, 2 * math.pi),
                                       (rng.uniform(-9, 9), rng.uniform(-9, 9)))]
        return graphs + [build_extremal(n) for n in (50, 200, 700)]

    def test_same_documents(self, monkeypatch):
        graphs = self.corpus(monkeypatch)
        compared = 0
        for tol in (1e-9, 1e-6, 0.05):
            for g in graphs:
                if not g.validate(tol=tol).ok:
                    continue
                got = decompose(g, tol)
                want = _reference_decompose(g, tol)
                assert got.to_json() == want.to_json()
                assert [(c.boundary_cycle, c.coords) for c in got.components] == \
                       [(c.boundary_cycle, c.coords) for c in want.components]
                compared += 1
        assert compared == 3 * len(graphs)

    @staticmethod
    def same_as_reference(g, tol):
        got = decompose(g, tol)
        want = _reference_decompose(g, tol)
        assert got.to_json() == want.to_json()
        assert [(c.boundary_cycle, c.coords) for c in got.components] == \
               [(c.boundary_cycle, c.coords) for c in want.components]
        return got

    def test_wedge_whose_edge_is_off_the_lattice_at_a_smaller_tol(self):
        # the edge 0 -> 1 is 1.02 long: at tol 0.05 the wedge (0, 1, 2) grows the
        # triangle, at 0.01 vertex 2 snaps but 1 does not, and the scan moves on
        g = free_graph([(0.0, 0.0), (1.02, 0.0), (0.5, math.sqrt(3) / 2)],
                       [(0, 1), (1, 2), (0, 2)])
        assert g.validate(tol=0.05).ok
        assert self.same_as_reference(g, 0.05).k == 1
        assert self.same_as_reference(g, 0.01).k == 0

    def test_lift_at_a_tol_validate_never_saw(self):
        # validated only above the lift's window, the spiral lifts whole inside
        # decompose at 1e-9, so its components are its blocks on the lift, and
        # nothing is grown
        g = rotated_free(build_extremal(136), 0.7, (3.0, -2.0))
        assert g.validate(tol=0.2).path == "float"
        import matchstick.components as components
        with mock.patch.object(components, "_grow", side_effect=AssertionError("grown")):
            got = self.same_as_reference(g, 1e-9)
        assert (got.k, got.sum_n_i) == (1, 136)


def leaf_spiral(n, noise):
    """The spiral on n vertices with a pendant leaf at the smallest id, rotated
    by 0.7 as free floats, every vertex but the leaf and its neighbour moved by
    ``noise``."""
    g = _with_leaf(build_extremal(n), random.Random(1))
    return moved(random.Random(1), rotated_free(g, 0.7, (0.0, 0.0)), noise)


class TestWholeLiftGivesTheBlocks:
    """A graph that validation lifts whole decomposes into its blocks on the
    lift, as a lattice-mode graph does on its lattice, whatever vertex is
    smallest."""

    @pytest.mark.parametrize("n, noise", [(30, 0.9), (100, 0.5), (400, 0.5)])
    def test_noisy_spiral_with_a_leaf_at_the_smallest_id(self, n, noise):
        # no wedge seed starts at the leaf, so a wedge scan would grow regions
        # on other frames, which the noise makes overlap
        tol = 1e-6
        g = leaf_spiral(n, noise * tol / 4)
        assert g.validate(tol=tol).path == "free-lift"
        got = assert_blocks_on_lattice(g, tol)
        assert (got.k, got.sum_n_i) == (1, n)


class TestFullCoverExit:
    """The wedge scan stops at a region that covers g with unit steps, and
    takes g's blocks: on graphs that do not lift whole, that gives the
    decompose document and coordinates of a scan that goes on to every seed."""

    @staticmethod
    def corpus():
        for n in (19, 50, 136):
            for angle in (0.7, 2.1):
                spiral = build_extremal(n)
                for tol in (0.2, 0.45):
                    yield rotated_free(spiral, angle, (3.0, -2.0)), tol
                yield rotated_free(spiral, angle, (1e5, 1e5)), 1e-9
        rng = random.Random(5)
        for n in range(6, 26):
            g = rotated_free(random_lattice_subgraph(n, seed=n, require_2connected=True),
                             rng.uniform(0.0, 2 * math.pi), (0.0, 0.0))
            for tol in (1e-6, 0.05):
                yield moved(rng, g, 0.45 * tol), tol

    def test_same_as_growing_every_seed(self):
        import matchstick.components as components
        exits = []

        def unit_steps(edges, coords):
            steps = _unit_steps(edges, coords)
            exits.append(steps is not None)
            return steps

        def grow_every_seed(g, tol):
            return _reference_grow_all_seeds(g, tol, full_cover_exit=False)

        compared = 0
        for g, tol in self.corpus():
            report = g.validate(tol=tol)
            assert report.ok and report.path != "free-lift"
            with mock.patch.object(components, "_unit_steps", unit_steps):
                got = decompose(g, tol)
            want = _reference_decompose(g, tol, grow_every_seed)
            assert got.to_json() == want.to_json()
            assert [c.coords for c in got.components] == [c.coords for c in want.components]
            compared += 1
        assert compared == exits.count(True) == 58  # the exit ends every scan
