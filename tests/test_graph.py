import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstick import geometry as geo
from matchstick import graph
from matchstick.builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from matchstick.graph import (DEFAULT_TOL, ConsistencyError, FreeCoord, MatchstickGraph,
                              ValidationReport, Violation, _candidates, boundary, connectivity,
                              faces, free_graph, lattice_graph, rotation_system)
from matchstick.lattice import (UNIT_RING, UNIT_STEP_INDEX, EisensteinPoint, eisenstein_norm,
                               harborth_bound)
from test_validation_oracle import rotated_free

E = EisensteinPoint


def triangle():
    return lattice_graph([E(0, 0), E(1, 0), E(0, 1)])


def double_triangle():
    # two unit triangles sharing the edge (0,0)-(1,0); realizes the n=4 bound
    return lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(1, -1)])


class TestValidate:
    def test_triangle_ok(self):
        rep = triangle().validate()
        assert rep.ok and rep.mode == "lattice" and not rep.violations

    def test_double_triangle_realizes_bound(self):
        g = double_triangle()
        assert g.validate().ok
        assert g.e == 5 == harborth_bound(4)

    def test_k4_crossing_and_nonunit(self):
        g = free_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        rep = g.validate()
        kinds = sorted(v.kind for v in rep.violations)
        assert not rep.ok
        assert kinds == ["Crossing", "NonUnitEdge", "NonUnitEdge"]
        crossing = next(v for v in rep.violations if v.kind == "Crossing")
        assert set(crossing.ids) == {0, 1, 2, 3}

    def test_duplicate_vertex_position(self):
        g = free_graph([(0, 0), (1, 0), (0, 0)], [(0, 1)])
        rep = g.validate()
        assert any(v.kind == "DuplicateVertexPosition" and set(v.ids) == {0, 2}
                   for v in rep.violations)

    def test_vertex_on_edge(self):
        g = free_graph([(0, 0), (1, 0), (0.5, 0.0), (0.5, 1.0)], [(0, 1), (2, 3)])
        rep = g.validate()
        assert any(v.kind == "VertexOnEdge" and v.ids[0] == 2 for v in rep.violations)

    def test_vertex_on_edge_exact_lattice(self):
        # (1,0) sits in the interior of the length-2 segment (0,0)-(2,0)
        g = lattice_graph([E(0, 0), E(2, 0), E(1, 0)], edges=[(0, 1)])
        rep = g.validate()
        kinds = {v.kind for v in rep.violations}
        assert "VertexOnEdge" in kinds and "NonUnitEdge" in kinds

    def test_overlapping_edges_at_shared_endpoint(self):
        g = free_graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (0, 2)])
        rep = g.validate()
        assert any(v.kind == "Crossing" for v in rep.violations)

    def test_penny_mode_free(self):
        g = free_graph([(0, 0), (0.9, 0)], [])
        rep = g.validate(penny_mode=True)
        assert any(v.kind == "PennyDistance" for v in rep.violations)
        assert g.validate(penny_mode=False).ok

    def test_penny_mode_lattice_ok(self):
        rep = build_hexagon_patch(1).validate(penny_mode=True)
        assert rep.ok

    def test_unit_edges_never_flagged_in_lattice_mode(self):
        g = build_hexagon_patch(2)
        rep = g.validate()
        assert rep.ok
        for a, b in g.edges:
            assert eisenstein_norm(g.coord(b).point - g.coord(a).point) == 1

    def test_free_tolerance(self):
        g = free_graph([(0, 0), (1 + 5e-10, 0)], [(0, 1)])
        assert g.validate(tol=1e-9).ok
        g2 = free_graph([(0, 0), (1 + 5e-8, 0)], [(0, 1)])
        assert not g2.validate(tol=1e-9).ok

    def test_long_edge_brute_force_path(self):
        # a long edge and a distant crossing pair must still be caught
        g = free_graph([(0, 0), (10, 0), (5, -1), (5, 1)], [(0, 1), (2, 3)])
        rep = g.validate()
        assert any(v.kind == "Crossing" for v in rep.violations)

    def test_long_edge_candidates_grow_linearly(self):
        # m disjoint length-2 segments, 20 to a row 0.04 apart, so that
        # neighbouring boxes are within the 0.05 box pad: each meets only its
        # neighbours' grid cells, so the candidate pairs grow like m, not m^2
        def candidates(m):
            coords = []
            for i in range(m):
                x, y = 2.04 * (i % 20), 1.5 * (i // 20)
                coords += [(x, y), (x + 2.0, y)]
            g = free_graph(coords, [(2 * i, 2 * i + 1) for i in range(m)])
            _, _, epairs, vhits = _candidates(g, g.positions(), DEFAULT_TOL)
            return len(epairs), len(vhits)

        (pairs200, hits200), (pairs400, hits400) = candidates(200), candidates(400)
        assert pairs200 >= 19 * 10 and hits200 >= 2 * 19 * 10  # each row's neighbours
        assert pairs400 <= 2.2 * pairs200 and hits400 <= 2.2 * hits200
        assert pairs400 < 10 * 400  # all pairs would be 400 * 399 / 2


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            free_graph([(0, 0), (1, 0)], [(0, 0)])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            free_graph([(0, 0), (1, 0)], [(0, 7)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            MatchstickGraph([(0, None), (0, None)], [])

    def test_deduplicates_edges(self):
        g = free_graph([(0, 0), (1, 0)], [(0, 1), (1, 0)])
        assert g.e == 1

    def test_lattice_graph_rejects_a_repeated_point(self):
        with pytest.raises(ValueError, match="^duplicate lattice points$"):
            lattice_graph([E(0, 0), E(1, 0), E(0, 0)])


class TestRotationSystem:
    def test_patch_center(self):
        g = build_hexagon_patch(1)
        g.validate()
        rot = rotation_system(g)
        center = next(vid for vid, c in g.vertices if c.point == E(0, 0))
        nbrs = rot[center]
        assert len(nbrs) == 6
        angles = [math.atan2(g.position(u)[1], g.position(u)[0]) % (2 * math.pi)
                  for u in nbrs]
        assert angles == sorted(angles)

    def test_triangle_corner(self):
        g = triangle()
        g.validate()
        rot = rotation_system(g)
        # neighbors of (0,0): (1,0) at 0 degrees, then (0,1) at 60 degrees
        assert rot[0] == (1, 2)

    def test_degree_one(self):
        g = lattice_graph([E(0, 0), E(1, 0)])
        g.validate()
        assert rotation_system(g)[0] == (1,)

    def test_requires_validated(self):
        g = triangle()
        with pytest.raises(ValueError):
            rotation_system(g)

    def test_isolated_vertex_has_an_empty_rotation(self):
        # on the lattice slots, and on a free copy, which no piece lifts whole
        g = lattice_graph([E(0, 0), E(1, 0), E(5, 0)], edges=[(0, 1)])
        assert g.validate().path == "lattice-fast"
        h = rotated_free(g, 0.3, (0.0, 0.0))
        assert h.validate().path == "free-pieces"
        for x in (g, h):
            assert rotation_system(x) == {0: (1,), 1: (0,), 2: ()}


class TestFaces:
    def test_triangle(self):
        g = triangle()
        g.validate()
        fs = faces(g)
        assert len(fs.faces) == 2
        assert len(fs.outer_face) == 3
        assert len(fs.inner_faces[0]) == 3

    def test_hexagon_patch(self):
        g = build_hexagon_patch(1)
        g.validate()
        fs = faces(g)
        assert len(fs.faces) == 7  # 6 triangles + outer hexagon
        assert g.n - g.e + len(fs.faces) == 2
        sizes = sorted(len(f) for f in fs.inner_faces)
        assert sizes == [3] * 6
        assert len(fs.outer_face) == 6

    def test_double_triangle(self):
        g = double_triangle()
        g.validate()
        fs = faces(g)
        inner = sorted(len(f) for f in fs.inner_faces)
        assert inner == [3, 3]
        assert len(fs.outer_face) == 4

    def test_darts_partition(self):
        g = build_hexagon_patch(2)
        g.validate()
        fs = faces(g)
        assert sum(len(f) for f in fs.faces) == 2 * g.e
        darts = {(f[i], f[(i + 1) % len(f)]) for f in fs.faces for i in range(len(f))}
        assert len(darts) == 2 * g.e
        assert darts == {d for a, b in g.edges for d in ((a, b), (b, a))}

    def test_single_vertex(self):
        g = lattice_graph([E(0, 0)])
        g.validate()
        fs = faces(g)
        assert fs.faces == ((),) and fs.outer_face_index == 0

    def test_tree_single_face(self):
        g = lattice_graph([E(0, 0), E(1, 0), E(2, 0)], edges=[(0, 1), (1, 2)])
        g.validate()
        fs = faces(g)
        assert len(fs.faces) == 1
        assert len(fs.faces[0]) == 4  # both darts of each bridge

    def test_disconnected_rejected(self):
        g = lattice_graph([E(0, 0), E(1, 0), E(5, 0), E(6, 0)],
                          edges=[(0, 1), (2, 3)])
        g.validate()
        with pytest.raises(ValueError):
            faces(g)

    def test_insertion_order_independence(self):
        g = build_hexagon_patch(1)
        g.validate()
        fs1 = faces(g)
        shuffled = list(g.vertices)[::-1]
        g2 = MatchstickGraph(shuffled, g.edges, g.frames)
        g2.validate()
        fs2 = faces(g2)
        assert fs1.faces == fs2.faces
        assert fs1.outer_face_index == fs2.outer_face_index

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=999))
    def test_euler_formula_fuzz(self, n, seed):
        g = random_lattice_subgraph(n, seed=seed)
        fs = faces(g)
        assert g.n - g.e + len(fs.faces) == 2
        assert sum(len(f) for f in fs.faces) == 2 * g.e


def _reference_rotation_system(g: MatchstickGraph) -> dict:
    g.require_validated()
    pos = g.positions()
    rot = {}
    for vid, nbrs in g.adjacency().items():
        x, y = pos[vid]

        def angle(u):
            a = math.atan2(pos[u][1] - y, pos[u][0] - x)
            return a if a >= 0 else a + 2 * math.pi

        ccw = sorted(nbrs, key=angle)
        i = ccw.index(min(ccw)) if ccw else 0
        rot[vid] = tuple(ccw[i:] + ccw[:i])
    return rot


def _reference_faces(g: MatchstickGraph) -> graph.FaceStructure:
    """The face walk with a seen-dart set, the rotation index of every dart,
    each cycle rotated afterwards and one shoelace sum per rotated cycle: the
    reference the one-pass walk of graph._faces is checked against."""
    g.require_validated()
    if not connectivity(g).connected:
        raise ValueError("faces() requires a connected graph")
    if g.e == 0:
        return graph.FaceStructure(faces=((),), outer_face_index=0)
    rot = _reference_rotation_system(g)
    idx_of = {v: {u: i for i, u in enumerate(nbrs)} for v, nbrs in rot.items()}
    pos = g.positions()
    seen = set()  # the darts already on a face
    cycles = []
    for u0 in sorted(rot):
        for v0 in rot[u0]:
            if (u0, v0) in seen:
                continue
            cycle = []
            u, v = u0, v0
            while (u, v) not in seen:
                seen.add((u, v))
                cycle.append(u)
                nbrs = rot[v]
                w = nbrs[(idx_of[v][u] - 1) % len(nbrs)]
                u, v = v, w
            cycles.append(_reference_canonical_rotation(cycle))
    outer = [i for i, c in enumerate(cycles) if geo.shoelace2([pos[v] for v in c]) < 0]
    if len(cycles) == 1:
        outer_idx = 0
    elif len(outer) == 1:
        outer_idx = outer[0]
    else:
        raise ConsistencyError(f"expected exactly one clockwise face, found {len(outer)}")
    total = sum(len(c) for c in cycles)
    if total != 2 * g.e:
        raise ConsistencyError(f"dart count {total} != 2e = {2 * g.e}")
    return graph.FaceStructure(faces=tuple(cycles), outer_face_index=outer_idx)


def _reference_canonical_rotation(cycle):
    low = min(cycle)
    return min(tuple(cycle[i:] + cycle[:i]) for i, v in enumerate(cycle) if v == low)


# In the star, the dumbbell and the bowties the outer face passes vertex 0
# more than once.  In the turned bowtie the walk's first dart on it, 0 -> 4,
# is not where its lexicographically least rotation, 0 -> 3, starts.

def _star():
    return lattice_graph([E(0, 0), E(0, 1), E(1, 0), E(-1, 0)], edges=[(0, 1), (0, 2), (0, 3)])


def _dumbbell():
    # two triangles joined by a two-edge path from the cut vertex 0
    pts = [E(0, 0), E(-1, 1), E(-1, 0), E(1, 0), E(2, 0), E(3, 0), E(2, 1)]
    return lattice_graph(pts, edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4),
                                     (4, 5), (5, 6), (6, 4)])


def _bowtie():
    # two unit triangles sharing the cut vertex 0
    return lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(-1, 0), E(0, -1)])


def _turned_bowtie():
    # two unit triangles, (0, 1, 4) and (0, 2, 3), sharing the cut vertex 0
    return lattice_graph([E(1, 0), E(0, 1), E(1, -1), E(2, -1), E(0, 0)],
                         edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)])


def _patch_chain(k):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs.patch_chain(k, 1, random.Random(5))[0]


def _free_steps(p, points):
    """The unit steps from p to lattice points not in ``points``."""
    return [d for d in UNIT_RING if p + d not in points]


def _lattice_path(n, seed):
    """A self-avoiding lattice walk of up to n vertices, with only its own edges."""
    rng = random.Random(seed)
    pts = [E(0, 0)]
    while len(pts) < n and (steps := _free_steps(pts[-1], set(pts))):
        pts.append(pts[-1] + rng.choice(steps))
    return lattice_graph(pts, edges=[(i, i + 1) for i in range(len(pts) - 1)])


def _lattice_tree(n, seed):
    """A random lattice tree: each new vertex hangs on a random earlier one."""
    rng = random.Random(seed)
    pts, edges = [E(0, 0)], []
    while len(pts) < n:
        i = rng.randrange(len(pts))
        if steps := _free_steps(pts[i], set(pts)):
            edges.append((i, len(pts)))
            pts.append(pts[i] + rng.choice(steps))
    return lattice_graph(pts, edges=edges)


def _cactus(n, seed):
    """Unit triangles and pendant edges hung on random earlier vertices until
    there are at least n vertices, so most vertices they hang on are cut vertices."""
    rng = random.Random(seed)
    pts, edges = [E(0, 0)], []
    while len(pts) < n:
        i = rng.randrange(len(pts))
        steps = _free_steps(pts[i], set(pts))
        wedges = [(d, d.rot60()) for d in steps if d.rot60() in steps]
        a = len(pts)
        if wedges and rng.random() < 0.6:
            d, d2 = rng.choice(wedges)
            pts += [pts[i] + d, pts[i] + d2]
            edges += [(i, a), (a, a + 1), (a + 1, i)]
        elif steps:
            pts.append(pts[i] + rng.choice(steps))
            edges.append((i, a))
    return lattice_graph(pts, edges=edges)


def _thinned(n, seed):
    """random_lattice_subgraph(n, seed) less about a third of its edges, drawn
    at random, each kept when deleting it would disconnect the graph."""
    rng = random.Random(seed)
    g = random_lattice_subgraph(n, seed)
    pts = [g.coord(v).point for v in g.ids()]
    edges = sorted(g.edges)
    rng.shuffle(edges)
    kept = set(edges)
    for e in edges[:len(edges) // 3]:
        kept.discard(e)
        if not connectivity(lattice_graph(pts, edges=kept)).connected:
            kept.add(e)
    return lattice_graph(pts, edges=kept)


def _face_graphs():
    out = [(f"spiral-{n}", lambda n=n: build_extremal(n)) for n in (3, 7, 19, 100, 500)]
    out += [(f"random-{n}-{seed}", lambda n=n, seed=seed: random_lattice_subgraph(n, seed))
            for n in (4, 9, 25, 60) for seed in range(6)]
    out += [("star", _star), ("dumbbell", _dumbbell), ("bowtie", _bowtie),
            ("turned-bowtie", _turned_bowtie),
            ("path", lambda: lattice_graph([E(0, 0), E(1, 0), E(2, 0)], edges=[(0, 1), (1, 2)])),
            ("edge", lambda: lattice_graph([E(0, 0), E(1, 0)]))]
    for make in (_lattice_path, _lattice_tree, _cactus):
        out += [(f"{make.__name__[1:]}-{n}-{seed}", lambda make=make, n=n, seed=seed: make(n, seed))
                for n in (5, 30) for seed in range(4)]
    out += [(f"thinned-{n}-{seed}", lambda n=n, seed=seed: _thinned(n, seed))
            for n in (12, 40) for seed in range(4)]
    for k in range(7):  # frame angles on and 1e-12 off the lattice directions k * pi/3
        for off in (0.0, 1e-12, -1e-12, 3e-13):
            out.append((f"rotated-{k}pi/3{off:+g}", lambda a=k * math.pi / 3 + off:
                        rotated_free(build_extremal(136), a, (3.0, -2.0))))
    out += [("rotated-0.7", lambda: rotated_free(random_lattice_subgraph(40, 3), 0.7, (-5.0, 1e3)))]
    out += [(f"patch-chain-{k}", lambda k=k: _patch_chain(k)) for k in (8, 64)]
    return out


def _turned_cases():
    """(name, lattice graph maker, angle, shift): the rotated cases of
    _face_graphs, and the spirals n = 7, 19 and 50 at four more angles."""
    out = [(f"spiral-136-{k}pi/3{off:+g}", lambda: build_extremal(136), k * math.pi / 3 + off,
            (3.0, -2.0)) for k in range(7) for off in (0.0, 1e-12, -1e-12, 3e-13)]
    out += [("random-40-3-0.7", lambda: random_lattice_subgraph(40, 3), 0.7, (-5.0, 1e3))]
    out += [(f"spiral-{n}-{a:.4f}", lambda n=n: build_extremal(n), a, (0.0, 0.0))
            for n in (7, 19, 50) for a in (0.7, math.pi / 3 - 1e-12, 2.1, 4.0)]
    return out


class TestFaceWalkDifferential:
    """graph._faces against the reference walk kept above: the same cycles in
    the same order, the same outer face and the same rotation."""

    @pytest.mark.parametrize("make", [m for _, m in _face_graphs()],
                             ids=[name for name, _ in _face_graphs()])
    def test_same_faces_as_the_reference_walk(self, make):
        g = make()
        assert g.validate().ok
        assert rotation_system(g) == _reference_rotation_system(g)
        ref = _reference_faces(g)
        fs = faces(g)
        assert fs.faces == ref.faces
        assert fs.outer_face_index == ref.outer_face_index

    @pytest.mark.parametrize("make,angle,shift", [c[1:] for c in _turned_cases()],
                             ids=[c[0] for c in _turned_cases()])
    def test_rotated_copies_have_the_lattice_graphs_faces(self, make, angle, shift):
        # a rotation starts at the smallest neighbour, so the lattice walk, the
        # walk on a whole lift and the float walk agree at any frame angle
        g = make()
        assert g.validate().path == "lattice-fast"
        for tol, path in ((1e-9, "free-lift"), (0.2, "float")):
            h = rotated_free(g, angle, shift)
            assert h.validate(tol=tol).path == path
            assert rotation_system(h) == rotation_system(g)
            assert faces(h) == faces(g)


class TestFaceChecks:
    """The two ConsistencyError checks of the face walk fire on broken
    direction data: a broken rotation system on free copies validated only
    above the lift's tol window, whose walk reads it, and broken direction
    slots on the lattice-mode graphs themselves and on lifted free copies."""

    def test_reversed_rotation_at_one_vertex_gives_two_clockwise_faces(self, monkeypatch):
        g = rotated_free(_bowtie(), 0.3, (0.0, 0.0))
        assert g.validate(tol=0.2).path == "float"
        rot = rotation_system(g)
        assert len(rot[0]) == 4
        monkeypatch.setattr(graph, "rotation_system", lambda h: {**rot, 0: rot[0][::-1]})
        with pytest.raises(ConsistencyError, match="exactly one clockwise face, found 2"):
            faces(g)

    def test_walk_that_misses_darts_fails_the_dart_count(self, monkeypatch):
        # the star's centre loses leaf 3 from its rotation, so no walk uses the
        # darts between them: one face of 4 darts, not 6
        g = rotated_free(_star(), 0.3, (0.0, 0.0))
        assert g.validate(tol=0.2).path == "float"
        rot = rotation_system(g)
        monkeypatch.setattr(graph, "rotation_system",
                            lambda h: {**rot, 0: tuple(u for u in rot[0] if u != 3)})
        with pytest.raises(ConsistencyError, match=r"dart count 4 != 2e = 6"):
            faces(g)

    def test_reversed_slots_at_one_vertex_give_two_clockwise_faces(self, monkeypatch):
        g = _bowtie()
        assert g.validate().ok
        slots, order = graph._lattice_darts(g)
        assert sum(u is not None for u in slots[0]) == 4
        monkeypatch.setattr(graph, "_lattice_darts",
                            lambda h: ({**slots, 0: slots[0][::-1]}, order))
        with pytest.raises(ConsistencyError, match="exactly one clockwise face, found 2"):
            faces(g)

    def test_lattice_walk_that_misses_darts_fails_the_dart_count(self, monkeypatch):
        # the star's centre and leaf 3 lose their slots to each other, so no
        # walk uses the darts between them: one face of 4 darts, not 6
        g = _star()
        assert g.validate().ok
        slots, order = graph._lattice_darts(g)
        cut = {0: [None if u == 3 else u for u in slots[0]], 3: [None] * 6}
        monkeypatch.setattr(graph, "_lattice_darts", lambda h: ({**slots, **cut}, order))
        with pytest.raises(ConsistencyError, match=r"dart count 4 != 2e = 6"):
            faces(g)

    def test_reversed_lift_slots_at_one_vertex_give_two_clockwise_faces(self, monkeypatch):
        g = rotated_free(_bowtie(), 0.3, (0.0, 0.0))
        assert g.validate().path == "free-lift"
        slots, order = graph._lattice_darts(g)
        assert sum(u is not None for u in slots[0]) == 4
        monkeypatch.setattr(graph, "_lattice_darts",
                            lambda h: ({**slots, 0: slots[0][::-1]}, order))
        with pytest.raises(ConsistencyError, match="exactly one clockwise face, found 2"):
            faces(g)

    def test_lift_walk_that_misses_darts_fails_the_dart_count(self, monkeypatch):
        g = rotated_free(_star(), 0.3, (0.0, 0.0))
        assert g.validate().path == "free-lift"
        slots, order = graph._lattice_darts(g)
        cut = {0: [None if u == 3 else u for u in slots[0]], 3: [None] * 6}
        monkeypatch.setattr(graph, "_lattice_darts", lambda h: ({**slots, **cut}, order))
        with pytest.raises(ConsistencyError, match=r"dart count 4 != 2e = 6"):
            faces(g)


class TestBoundary:
    def test_triangle(self):
        g = triangle()
        g.validate()
        cycle, b = boundary(g)
        assert b == 3 and set(cycle) == {0, 1, 2}

    def test_patches(self):
        for k, expect in ((1, 6), (2, 12)):
            g = build_hexagon_patch(k)
            g.validate()
            _, b = boundary(g)
            assert b == 6 * k == expect

    def test_not_two_connected_rejected(self):
        g = lattice_graph([E(0, 0), E(1, 0)])
        g.validate()
        with pytest.raises(ValueError):
            boundary(g)


class TestConnectivity:
    def test_triangle(self):
        g = triangle()
        info = connectivity(g)
        assert (info.connected, info.two_connected, info.min_degree) == (True, True, 2)
        assert len(info.blocks) == 1
        assert info.blocks[0] == frozenset({0, 1, 2})

    def test_two_triangles_sharing_vertex(self):
        pts = [E(0, 0), E(1, 0), E(0, 1), E(2, 0), E(1, 1)]
        g = lattice_graph(pts, edges=[(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
        info = connectivity(g)
        assert info.connected and not info.two_connected
        assert info.min_degree == 2
        assert len(info.blocks) == 2
        assert info.cut_vertices == frozenset({1})

    def test_two_disjoint_edges(self):
        g = lattice_graph([E(0, 0), E(1, 0), E(5, 0), E(6, 0)],
                          edges=[(0, 1), (2, 3)])
        info = connectivity(g)
        assert (info.connected, info.two_connected, info.min_degree) == (False, False, 1)
        assert len(info.blocks) == 2

    def test_isolated_vertex_block(self):
        g = lattice_graph([E(0, 0), E(5, 5)], edges=[])
        info = connectivity(g)
        assert not info.connected
        assert info.min_degree == 0
        assert len(info.blocks) == 2

    def test_block_ordering_deterministic(self):
        pts = [E(0, 0), E(1, 0), E(0, 1), E(2, 0), E(1, 1)]
        g = lattice_graph(pts, edges=[(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
        blocks = connectivity(g).blocks
        assert min(blocks[0]) <= min(blocks[1])


def _reference_block_decomposition(ids, adj):
    """The edge-stack form of Hopcroft and Tarjan's DFS, as graph.block_decomposition
    had it before the vertex-stack form: the reference the latter is checked against.
    Returns each block as (vertices, edges), two frozensets, with the cut vertices."""
    disc = {}
    low = {}
    edge_stack = []
    raw_blocks = []
    cut = set()
    timer = 0
    for root in sorted(ids):
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        comp = []
                        while edge_stack[-1] != (p, v):
                            comp.append(edge_stack.pop())
                        comp.append(edge_stack.pop())
                        raw_blocks.append(comp)
                        if p == root:
                            root_children += 1
                        else:
                            cut.add(p)
        if root_children > 1:
            cut.add(root)
        if not adj[root]:
            raw_blocks.append([(root, root)])  # isolated-vertex marker, unpacked below
    blocks = []
    for comp in raw_blocks:
        if len(comp) == 1 and comp[0][0] == comp[0][1]:
            blocks.append((frozenset({comp[0][0]}), frozenset()))
        else:
            vs = frozenset(v for e in comp for v in e)
            es = frozenset(graph._norm_edge(*e) for e in comp)
            blocks.append((vs, es))
    blocks.sort(key=lambda b: min(b[0]))
    return tuple(blocks), frozenset(cut)


def _adjacency_of(n, edges):
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {v: sorted(nbrs) for v, nbrs in adj.items()}


def _random_graphs(rng):
    """1000 each of G(n, p) graphs, trees, stars with extra edges, and
    disconnected graphs of several G(n, p) parts with isolated vertices; ids
    are listed in shuffled order."""
    for kind in ("gnp", "tree", "star", "disconnected"):
        for _ in range(1000):
            n = rng.randint(1, 40)
            if kind == "gnp":
                p = rng.choice((0.03, 0.08, 0.15, 0.3, 0.6))
                edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            elif kind == "tree":
                edges = [(rng.randrange(v), v) for v in range(1, n)]
            elif kind == "star":
                edges = [(0, v) for v in range(1, n)]
                edges += [(v, v + 1) for v in range(1, n - 1) if rng.random() < 0.2]
            else:
                edges, start = [], 0
                while start < n:
                    size = rng.randint(1, 8)
                    part = range(start, min(n, start + size))
                    edges += [(a, b) for a in part for b in part if a < b and rng.random() < 0.4]
                    start += size
            labels = rng.sample(range(3 * n), n)  # ids need not be 0..n-1
            adj = _adjacency_of(n, edges)
            adj = {labels[v]: sorted(labels[u] for u in nbrs) for v, nbrs in adj.items()}
            ids = list(adj)
            rng.shuffle(ids)
            yield ids, adj


def _assert_same_as_reference(ids, adj):
    """The same block vertex sets in the same order and the same cut vertices
    as the reference, and each reference block's edges are those of ``adj``
    between two of its vertices."""
    blocks, cut = graph.block_decomposition(ids, adj)
    ref_blocks, ref_cut = _reference_block_decomposition(ids, adj)
    assert blocks == tuple(vs for vs, _ in ref_blocks)
    assert cut == ref_cut
    for vs, es in ref_blocks:
        assert es == frozenset((a, b) for a in vs for b in adj[a] if a < b and b in vs)


class TestBlockDecompositionDifferential:
    """graph.block_decomposition against the edge-stack reference kept above:
    the same blocks in the same order, and the same cut vertices; each block
    holds every edge between two of its vertices."""

    def test_random_graphs(self):
        count = 0
        for ids, adj in _random_graphs(random.Random(447)):
            _assert_same_as_reference(ids, adj)
            count += 1
        assert count == 4000

    @pytest.mark.parametrize("make", [m for _, m in _face_graphs()],
                             ids=[name for name, _ in _face_graphs()])
    def test_lattice_and_chain_graphs(self, make):
        g = make()
        _assert_same_as_reference(g.ids(), g.adjacency())

    def test_regions_grown_on_the_64_patch_chain(self, monkeypatch):
        from matchstick import components
        calls = []

        def recorded(ids, adj):
            calls.append((ids, adj))
            return graph.block_decomposition(ids, adj)

        monkeypatch.setattr(components, "block_decomposition", recorded)
        components._grow_all_seeds(_patch_chain(64), DEFAULT_TOL)
        assert len(calls) >= 64  # one region per patch at least
        for ids, adj in calls:
            _assert_same_as_reference(ids, adj)


# -- connectivity read off the face walk ------------------------------------------

_block_decomposition = graph.block_decomposition


def dfs_connectivity(g: MatchstickGraph) -> graph.ConnectivityInfo:
    """The ConnectivityInfo of g built from block_decomposition alone: the
    answer connectivity() gives when no face walk is read."""
    adj, ids = g.adjacency(), g.ids()
    blocks, cut = _block_decomposition(ids, adj)
    connected = g.n - sum(len(b) - 1 for b in blocks) == 1
    return graph.ConnectivityInfo(connected=connected,
                                  two_connected=connected and g.n >= 3 and not cut,
                                  min_degree=min(len(adj[v]) for v in ids),
                                  blocks=blocks, cut_vertices=cut)


def _reference_lattice_walk(slots, order, add):
    """graph._lattice_walk as it was before unit triangles closed in one step:
    every face is walked dart by dart."""
    left = {v: row[:] for v, row in slots.items()}
    for u0, row0 in left.items():
        for k0 in order[u0]:
            if row0[k0] is None:
                continue
            cycle = []
            turn = 0
            u, k, row = u0, k0, row0
            while (v := row[k]) is not None:
                row[k] = None
                cycle.append(u)
                s = slots[v]
                for d in (2, 1, 0, -1, -2, -3):
                    j = (k + d) % 6
                    if s[j] is not None:
                        break
                turn += d
                u, k, row = v, j, left[v]
            add(cycle, turn)


def _triangle_and_point():
    return lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(5, 5)], edges=[(0, 1), (1, 2), (2, 0)])


def _two_triangles():
    return lattice_graph([E(0, 0), E(1, 0), E(0, 1), E(5, 0), E(6, 0), E(5, 1)],
                         edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def _disconnected_graphs():
    """(name, maker, tol) of valid graphs that are not connected."""
    return [("triangle-and-point", _triangle_and_point, DEFAULT_TOL),
            ("two-triangles", _two_triangles, DEFAULT_TOL),
            ("two-free-triangles", lambda: rotated_free(_two_triangles(), 0.3, (1.0, 2.0)),
             DEFAULT_TOL),
            ("two-points", lambda: lattice_graph([E(0, 0), E(1, 0)], edges=[]), DEFAULT_TOL),
            ("three-free-points", lambda: free_graph([(0, 0), (2, 0), (0, 2)], []), DEFAULT_TOL)]


def _connectivity_graphs():
    """(name, maker, tol): random lattice subgraphs, 2-connected and plain, the
    bowtie (min degree 2 and a cut vertex), the disconnected graphs above,
    rotated spirals at the lift's tol and on the float walk, and a chain of
    8 patches; the spirals n = 3..400 have a test of their own."""
    out = [(f"random-{n}-{seed}-{two}", lambda n=n, seed=seed, two=two:
            random_lattice_subgraph(n, seed, require_2connected=two), DEFAULT_TOL)
           for n in (5, 12, 30, 80) for seed in range(5) for two in (False, True)]
    out += [("bowtie", _bowtie, DEFAULT_TOL), ("turned-bowtie", _turned_bowtie, DEFAULT_TOL),
            ("dumbbell", _dumbbell, DEFAULT_TOL)]
    out += _disconnected_graphs()
    out += [(f"rotated-spiral-{n}-{tol:g}",
             lambda n=n: rotated_free(build_extremal(n), 0.7, (3.0, -2.0)), tol)
            for n in (7, 50, 136) for tol in (1e-9, 0.45)]
    out += [("patch-chain-8", lambda: _patch_chain(8), DEFAULT_TOL)]
    return out


def _validated(g: MatchstickGraph, tol: float) -> MatchstickGraph:
    """A fresh copy of g (a builder may have cached the connectivity of the
    unvalidated graph) that passed validate() at tol."""
    g = MatchstickGraph(g.vertices, g.edges, g.frames)
    assert g.validate(tol=tol).ok
    return g


def _assert_walked_connectivity(g: MatchstickGraph, monkeypatch):
    """connectivity(g) of a just validated g is what the DFS alone gives, and
    the DFS runs only when g is not 2-connected."""
    calls = []

    def recorded(ids, adj):
        calls.append(len(ids))
        return _block_decomposition(ids, adj)

    monkeypatch.setattr(graph, "block_decomposition", recorded)
    info = connectivity(g)
    monkeypatch.undo()
    assert info == dfs_connectivity(g)
    assert (not calls) == info.two_connected


class TestWalkedConnectivity:
    """connectivity() read off the face walk against block_decomposition."""

    @pytest.mark.parametrize("make,tol", [c[1:] for c in _connectivity_graphs()],
                             ids=[c[0] for c in _connectivity_graphs()])
    def test_graphs(self, make, tol, monkeypatch):
        _assert_walked_connectivity(_validated(make(), tol), monkeypatch)

    def test_unvalidated_graphs_run_the_dfs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graph, "block_decomposition",
                            lambda ids, adj: calls.append(1) or _block_decomposition(ids, adj))
        assert connectivity(build_hexagon_patch(2)).two_connected
        assert calls == [1]


class _Walked(list):
    """The faces a lattice walk finds, as (cycle, turn sum) in the order found.
    As graph._lattice_walk's ``cycles``, it records a unit triangle closed in
    one step with the turn sum 6 that the dart-by-dart walk passes for it."""

    def append(self, cycle):
        super().append((cycle, 6))

    def add(self, cycle, s):
        super().append((tuple(cycle), s))


def _walked(darts) -> list:
    out = _Walked()
    graph._lattice_walk(*darts, out, out.add)
    return out


def _reference_walked(darts) -> list:
    out = _Walked()
    _reference_lattice_walk(*darts, out.add)
    return out


def _walk_by_darts(slots, order, cycles, add):
    """The reference walk in graph._lattice_walk's place: every face goes to ``add``."""
    _reference_lattice_walk(slots, order, add)


def _walk_graphs():
    """(name, maker, tol) of graphs on a lattice: the corpus above less its
    rotated spirals and the free graphs no one lattice holds, hexagon
    patches, and spirals lifted whole at several angles."""
    off_lattice = ("two-free-triangles", "three-free-points", "patch-chain-8")
    out = [c for c in _connectivity_graphs()
           if not c[0].startswith("rotated-") and c[0] not in off_lattice]
    out += [(f"hexagon-{k}", lambda k=k: build_hexagon_patch(k), DEFAULT_TOL) for k in (1, 2, 3, 5)]
    out += [(f"lifted-spiral-{n}-{a:.4f}",
             lambda n=n, a=a: rotated_free(build_extremal(n), a, (5.0, 1e3)), DEFAULT_TOL)
            for n in (19, 136, 400) for a in (0.7, math.pi / 3 - 1e-12, 2.1, 4.0)]
    return out


def _assert_same_walk(g: MatchstickGraph, tol: float, monkeypatch):
    """The walks of g, validated at tol, pass the same faces and sums to
    ``add``, and a connected g has the FaceStructure of the reference walk."""
    darts = graph._lattice_darts(g)
    assert darts is not None
    assert _walked(darts) == _reference_walked(darts)
    if not connectivity(g).connected:
        return
    got = repr(faces(g))
    ref = _validated(g, tol)
    monkeypatch.setattr(graph, "_lattice_walk", _walk_by_darts)
    assert got == repr(faces(ref))
    monkeypatch.undo()


class TestTriangleStep:
    """graph._lattice_walk, which closes a unit triangle in one step, against
    the dart-by-dart walk kept above: the same faces and turn sums passed to
    ``add`` in the same order, and the same FaceStructure."""

    @pytest.mark.parametrize("make,tol", [c[1:] for c in _walk_graphs()],
                             ids=[c[0] for c in _walk_graphs()])
    def test_graphs(self, make, tol, monkeypatch):
        _assert_same_walk(_validated(make(), tol), tol, monkeypatch)


def test_spirals_walk_and_connectivity(monkeypatch):
    # the spirals n = 3..400 through the checks above and the darts check
    # below, each built and validated once
    for n in range(3, 401):
        g = _validated(build_extremal(n), DEFAULT_TOL)
        _assert_walked_connectivity(g, monkeypatch)
        _assert_same_walk(g, DEFAULT_TOL, monkeypatch)
        _assert_same_darts(g, DEFAULT_TOL, monkeypatch)


# -- lattice darts from the edge steps validation records ----------------------------


def _reference_lattice_darts(g: MatchstickGraph):
    """graph._lattice_darts as it was before it read the edge steps that
    validation records: each dart's slot is looked up from its two ends'
    lattice points, vertex by vertex along the adjacency."""
    lattice = graph._lattice_at(g)
    if lattice is None:
        return None
    points = lattice[1]
    slots = {}
    order = {}
    for v, nbrs in g.adjacency().items():
        m, n = points[v]
        row = slots[v] = [None] * 6
        k = 0
        for u in reversed(nbrs):  # ascending, so k ends at the smallest neighbour's slot
            mu, nu = points[u]
            k = UNIT_STEP_INDEX[(mu - m, nu - n)]
            row[k] = u
        order[v] = graph._SLOTS_FROM[k]
    return slots, order


def _faces_or_error(g: MatchstickGraph) -> str:
    try:
        return repr(faces(g))
    except ValueError as exc:
        return repr(exc)


def _assert_same_darts(g: MatchstickGraph, tol: float, monkeypatch):
    """The steps-built (slots, order) of g, validated at tol, are the
    point-based reference's, slots in vertex order, and g's rotation system
    and faces are those of a fresh copy walked on the reference darts."""
    got, want = graph._lattice_darts(g), _reference_lattice_darts(g)
    assert got is not None
    assert got == want and list(got[0]) == list(want[0])
    rot, walked = rotation_system(g), _faces_or_error(g)
    ref = _validated(g, tol)
    monkeypatch.setattr(graph, "_lattice_darts", _reference_lattice_darts)
    assert repr(rot) == repr(rotation_system(ref))
    assert walked == _faces_or_error(ref)
    monkeypatch.undo()


def _darts_graphs():
    """(name, maker, tol) of graphs on one lattice: random lattice subgraphs,
    plain and 2-connected, hexagon patches, isolated vertices, one vertex with
    no edge, two disjoint triangles, the spiral on 1024 vertices, and spirals
    lifted whole at three angles, near the origin and shifted by 1e5 (where the
    lift's window starts above the default tol)."""
    out = [(f"random-{n}-{seed}-{two}", lambda n=n, seed=seed, two=two:
            random_lattice_subgraph(n, seed, require_2connected=two), DEFAULT_TOL)
           for n in (4, 9, 25, 60, 150) for seed in range(4) for two in (False, True)]
    out += [(f"hexagon-{k}", lambda k=k: build_hexagon_patch(k), DEFAULT_TOL) for k in (1, 2, 4)]
    out += [("isolated-vertices", lambda: lattice_graph([E(0, 0), E(2, 0), E(0, 3)], edges=[]),
             DEFAULT_TOL),
            ("one-vertex", lambda: lattice_graph([E(4, -1)], edges=[]), DEFAULT_TOL),
            ("triangle-and-point", _triangle_and_point, DEFAULT_TOL),
            ("two-triangles", _two_triangles, DEFAULT_TOL),
            ("spiral-1024", lambda: build_extremal(1024), DEFAULT_TOL)]
    out += [(f"lifted-spiral-{n}-{a:.4f}-{shift:g}",
             lambda n=n, a=a, shift=shift: rotated_free(build_extremal(n), a, (shift, -shift)), tol)
            for n in (19, 136, 400) for a in (0.7, math.pi / 3 - 1e-12, 2.1)
            for shift, tol in ((0.0, DEFAULT_TOL), (1e5, 1e-6))]
    return out


class TestStepsBuiltDarts:
    """graph._lattice_darts, built from the edge steps validation records,
    against the point-based reference above."""

    @pytest.mark.parametrize("make,tol", [c[1:] for c in _darts_graphs()],
                             ids=[c[0] for c in _darts_graphs()])
    def test_graphs(self, make, tol, monkeypatch):
        g = _validated(make(), tol)
        assert g.validate(tol=tol).path in ("lattice-fast", "free-lift")
        _assert_same_darts(g, tol, monkeypatch)

    def test_one_vertex_has_empty_steps_and_one_face(self):
        g = _validated(lattice_graph([E(0, 0)], edges=[]), DEFAULT_TOL)
        assert g._once(graph._lattice)[2] == b""
        assert graph._lattice_darts(g) == ({0: [None] * 6}, {0: (0, 1, 2, 3, 4, 5)})
        assert rotation_system(g) == {0: ()} and faces(g).faces == ((),)


class TestUnitSteps:
    def test_no_edges_give_empty_bytes_not_none(self):
        steps = graph._unit_steps((), {0: E(0, 0)})
        assert steps is not None and steps == b""

    def test_a_non_unit_edge_gives_none(self):
        points = {0: E(0, 0), 1: E(1, 0), 2: E(1, 1), 3: E(0, 0)}
        assert graph._unit_steps(((0, 1),), points) == b"\x00"
        assert graph._unit_steps(((0, 1), (0, 2)), points) is None  # norm 3
        assert graph._unit_steps(((0, 3), (0, 1)), points) is None  # norm 0

    def test_each_step_is_the_edge_direction(self):
        g = build_extremal(300)
        points = g._once(graph._lattice)[1]
        steps = graph._unit_steps(g.edges, points)
        assert len(steps) == g.e
        assert [UNIT_RING[k] for k in steps] == [points[b] - points[a] for a, b in g.edges]

    @pytest.mark.parametrize("make,tol", [
        (lambda: build_extremal(200), DEFAULT_TOL),
        (lambda: rotated_free(build_extremal(200), 0.7, (5.0, 1e3)), DEFAULT_TOL),
        (lambda: rotated_free(build_extremal(200), 2.1, (1e5, 1e5)), 1e-6),
    ], ids=["lattice", "lift", "shifted-lift"])
    def test_found_once_per_graph(self, make, tol, monkeypatch):
        # validation finds the steps, and connectivity, faces, the census,
        # decompose, the trace and the rotation system all reuse them
        from matchstick.census import face_census
        from matchstick.components import decompose
        from matchstick.trace import claim_trace
        h = make()  # a builder may validate the graph it builds
        g = MatchstickGraph(h.vertices, h.edges, h.frames)
        calls = []
        real = graph._unit_steps
        monkeypatch.setattr(graph, "_unit_steps",
                            lambda edges, points: calls.append(len(edges)) or real(edges, points))
        assert g.validate(tol=tol).path in ("lattice-fast", "free-lift")
        connectivity(g), faces(g), face_census(g), decompose(g), claim_trace(g)
        rotation_system(g)
        assert calls == [g.e]


class TestWalkedConnectivityErrors:
    @pytest.mark.parametrize("make,tol", [c[1:] for c in _disconnected_graphs()],
                             ids=[c[0] for c in _disconnected_graphs()])
    def test_faces_of_a_disconnected_graph_raise(self, make, tol):
        g = make()
        assert g.validate(tol=tol).ok
        with pytest.raises(ValueError, match=r"^faces\(\) requires a connected graph$"):
            faces(g)
        assert not connectivity(g).connected

    def test_connectivity_never_recurses_and_faces_never_call_it(self, monkeypatch):
        calls = []
        real = graph.connectivity
        monkeypatch.setattr(graph, "connectivity", lambda g: calls.append(g) or real(g))
        for make in (build_hexagon_patch, _bowtie, _two_triangles,
                     lambda: rotated_free(build_hexagon_patch(2), 0.7, (0.0, 0.0))):
            g = _validated(make(2) if make is build_hexagon_patch else make(), DEFAULT_TOL)
            h = _validated(g, DEFAULT_TOL)
            try:
                faces(h)
            except ValueError:
                pass
            assert calls == []  # faces() of a fresh graph asks no connectivity
            graph.connectivity(g)
            assert calls == [g]  # and connectivity() is not entered again inside itself
            calls.clear()

    @pytest.mark.parametrize("faces_first", [False, True])
    def test_a_disconnected_graph_runs_the_dfs_once(self, faces_first, monkeypatch):
        calls = []
        monkeypatch.setattr(graph, "block_decomposition",
                            lambda ids, adj: calls.append(1) or _block_decomposition(ids, adj))
        g = _validated(_two_triangles(), DEFAULT_TOL)
        for step in range(4):
            if step == (0 if faces_first else 2):
                assert not connectivity(g).connected
            else:
                with pytest.raises(ValueError, match=r"^faces\(\) requires a connected graph$"):
                    faces(g)
        assert calls == [1]

    def test_consistency_error_from_the_lattice_walk_propagates(self, monkeypatch):
        g = _bowtie()  # min degree 2, so connectivity() reads the walk
        assert g.validate().ok
        slots, order = graph._lattice_darts(g)
        monkeypatch.setattr(graph, "_lattice_darts",
                            lambda h: ({**slots, 0: slots[0][::-1]}, order))
        with pytest.raises(ConsistencyError, match="exactly one clockwise face, found 2"):
            connectivity(g)

    def test_consistency_error_from_the_float_walk_propagates(self, monkeypatch):
        g = rotated_free(build_hexagon_patch(1), 0.3, (0.0, 0.0))
        assert g.validate(tol=0.2).path == "float"
        rot = rotation_system(g)
        centre = next(v for v, nbrs in rot.items() if len(nbrs) == 6)
        monkeypatch.setattr(graph, "rotation_system", lambda h: {**rot, centre: rot[centre][1:]})
        with pytest.raises(ConsistencyError, match=r"dart count"):
            connectivity(g)


class TestJson:
    def test_round_trip_lattice(self):
        g = build_hexagon_patch(2)
        j = g.to_json()
        g2 = MatchstickGraph.from_json(j)
        assert g2.to_json() == j
        assert g2.edges == g.edges
        assert all(g2.coord(v) == g.coord(v) for v in g2.ids())

    def test_parsed_coordinates_are_the_named_tuples(self):
        # from_json builds its coordinates without the namedtuple constructors,
        # so check it gives what they give, type and all
        lat = build_hexagon_patch(2)
        free = rotated_free(lat, 0.3, (1.0, -2.0))
        for g in (lat, free):
            parsed = MatchstickGraph.from_json(g.to_json())
            assert repr(parsed.vertices) == repr(g.vertices)
            for (_, c), (_, d) in zip(parsed.vertices, g.vertices):
                assert type(c) is type(d) and c == d
                if type(c) is graph.LatticeCoord:
                    assert type(c.point) is EisensteinPoint and c.point.m == d.point.m

    def test_round_trip_free_bit_exact(self):
        g = free_graph([(0.1 + 0.2, 1.0 / 3.0), (math.pi, -1e-17)], [(0, 1)])
        g2 = MatchstickGraph.from_json(g.to_json())
        for vid in g.ids():
            assert (g.coord(vid).x, g.coord(vid).y) == (g2.coord(vid).x, g2.coord(vid).y)

    def test_canonical_ordering(self):
        # vertices and edges reversed, every third edge written (b, a), one edge twice:
        # the graph stores vertices by id and edges as one sorted tuple, once
        g = build_hexagon_patch(2)
        edges = [(b, a) if i % 3 == 0 else (a, b) for i, (a, b) in enumerate(g.edges[::-1])]
        shuffled = MatchstickGraph(list(g.vertices)[::-1], edges + edges[5:6], g.frames)
        ids = [vid for vid, _ in shuffled.vertices]
        assert ids == sorted(ids)
        assert type(shuffled.edges) is tuple and all(a < b for a, b in shuffled.edges)
        assert all(e < f for e, f in zip(shuffled.edges, shuffled.edges[1:]))
        assert all(nbrs == sorted(nbrs) for nbrs in shuffled.adjacency().values())
        assert g.to_json() == shuffled.to_json()

    def test_format_shape(self):
        import json
        data = json.loads(build_hexagon_patch(1).to_json())
        assert set(data) == {"frames", "vertices", "edges"}
        assert data["frames"][0]["id"] == 0
        assert {"frame", "m", "n"} == set(data["vertices"][0]["lattice"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_not_written(self, bad):
        # JSON has no Infinity or NaN: writing one raises instead of printing
        # a document no strict parser reads
        report = ValidationReport(ok=False, violations=(Violation("NonUnitEdge", (0, 1), bad),),
                                  mode="free")
        with pytest.raises(ValueError):
            report.to_json()
        with pytest.raises(ValueError):
            free_graph([(0.0, 0.0), (bad, 0.0)], [(0, 1)]).to_json()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_free_coordinate_is_not_written(self, bad):
        # built directly, so to_json's own guard sees the value
        g = MatchstickGraph([(0, FreeCoord(0.0, 0.0)), (1, FreeCoord(bad, 0.0))], [(0, 1)])
        with pytest.raises(ValueError, match="cannot write the non-finite number"):
            g.to_json()


class TestFreeGraph:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinate_names_the_vertex(self, bad):
        # the candidate grid raised OverflowError, or a ValueError naming no vertex
        with pytest.raises(ValueError, match="vertex 1 free must be a finite number"):
            free_graph([(0, 0), (0, bad), (0, 1), (1, 1)], [(0, 1), (2, 3)])

    def test_coordinate_past_1e100_is_rejected(self):
        # validating it at tol 1e190 overflowed the vertex-to-edge distance and
        # missed vertex 2 on edge 0-1; from_json rejects the same document
        with pytest.raises(ValueError, match=r"vertex 1 free must be at most 1e100 in magnitude"):
            free_graph([(0, 0), (4e200, 0), (2e200, 0)], [(0, 1)])

    @pytest.mark.parametrize("bad", [(0, "1"), (0, True), (0, 1, 2), 5])
    def test_non_number_coordinate_names_the_vertex(self, bad):
        with pytest.raises(ValueError, match="vertex 1 free must be"):
            free_graph([(0, 0), bad], [(0, 1)])


_FRAME = [{"id": 0, "origin": [0, 0], "angle": 0}]
_SECOND = {"id": 1, "lattice": {"frame": 0, "m": 1, "n": 0}}


def _lattice_doc(vertex, edges=()) -> str:
    return json.dumps({"frames": _FRAME, "vertices": [vertex, _SECOND], "edges": list(edges)})


def _at(m, n, **extra) -> dict:
    return {"id": 0, "lattice": {"frame": 0, "m": m, "n": n, **extra}}


class TestFromJsonFields:
    """from_json checks each lattice vertex and edge inline; every document
    it rejects gets the message naming the first field at fault."""

    @pytest.mark.parametrize("doc, message", [
        (_lattice_doc(_at(True, 0)), "vertex 0 lattice 'm' must be an integer, not True"),
        (_lattice_doc(_at(0, 1.0)), "vertex 0 lattice 'n' must be an integer, not 1.0"),
        (_lattice_doc(_at(2 ** 53 + 1, 0)),
         "vertex 0 lattice 'm' and 'n' must be at most 2**53 in magnitude"),
        (_lattice_doc(_at(0, -2 ** 53 - 1)),
         "vertex 0 lattice 'm' and 'n' must be at most 2**53 in magnitude"),
        (_lattice_doc({"id": 0, "lattice": {"m": 0, "n": 0}}),
         "vertex 0 lattice has no field 'frame'"),
        (_lattice_doc({"id": 0, "lattice": [0, 0, 0]}), "vertex 0 lattice has no field 'frame'"),
        (_lattice_doc({"id": 0, "lattice": None}), "vertex 0 lattice has no field 'frame'"),
        (_lattice_doc({"id": 0, "lattice": {"frame": 0, "m": "a", "n": 0}, "free": [0, 0]}),
         "vertex 0 lattice 'm' must be an integer, not 'a'"),
        (_lattice_doc({"lattice": {"frame": 0, "m": 0, "n": 0}}), "vertex has no field 'id'"),
        (_lattice_doc({"id": 0.0, "lattice": {"frame": 0, "m": 0, "n": 0}}),
         "vertex id must be an integer, not 0.0"),
        (_lattice_doc([0, 0]), "vertex has no field 'id'"),
        (_lattice_doc(_at(0, 0), [[0, 1, 1]]), "edge [0, 1, 1] must be a pair of vertex ids"),
        (_lattice_doc(_at(0, 0), [[0, 1.0]]), "edge endpoint must be an integer, not 1.0"),
        (_lattice_doc(_at(0, 0), [[True, 1]]), "edge endpoint must be an integer, not True"),
    ], ids=["boolean-m", "float-n", "m-past-2**53", "n-past-minus-2**53", "missing-frame",
            "lattice-a-list", "lattice-null", "lattice-before-free", "missing-id", "float-id",
            "vertex-a-list", "edge-of-three", "float-edge-id", "boolean-edge-id"])
    def test_rejected_field_keeps_its_message(self, doc, message):
        with pytest.raises(ValueError) as err:
            MatchstickGraph.from_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("vertex", [_at(2 ** 53, 0), _at(0, -2 ** 53),
                                        _at(0, 0, note="ignored")],
                             ids=["m-at-2**53", "n-at-minus-2**53", "extra-lattice-key"])
    def test_accepted_lattice_vertex_round_trips(self, vertex):
        g = MatchstickGraph.from_json(_lattice_doc(vertex, [[1, 0]]))
        m, n = vertex["lattice"]["m"], vertex["lattice"]["n"]
        assert g.coord(0).point == E(m, n) and frozenset(g.edges) == frozenset({(0, 1)})
        text = g.to_json()
        assert json.loads(text)["vertices"][0] == _at(m, n)
        assert MatchstickGraph.from_json(text).to_json() == text

    def test_free_round_trip_is_bit_exact(self):
        g = rotated_free(random_lattice_subgraph(30, 4), 0.3, (1e6 / 3, -math.pi))
        text = g.to_json()
        g2 = MatchstickGraph.from_json(text)
        assert g2.to_json() == text
        assert all(g2.coord(v) == g.coord(v) for v in g.ids())


def _reference_vertices(vertex_docs) -> list:
    """from_json's vertex loop before free vertices were checked inline: each
    free vertex goes through the field helpers."""
    top = graph._MAX_LATTICE_COORD
    vertices = []
    for v in vertex_docs:
        lat = v.get("lattice") if type(v) is dict else None
        if type(lat) is dict:
            vid, fid, m, n = v.get("id"), lat.get("frame"), lat.get("m"), lat.get("n")
            if (type(vid) is int and type(fid) is int and type(m) is int and type(n) is int
                    and -top <= m <= top and -top <= n <= top):
                vertices.append((vid, graph.LatticeCoord(fid, E(m, n))))
                continue
        vid = graph._int(graph._field(v, "id", "vertex"), "vertex id")
        if "lattice" in v:
            where = f"vertex {vid} lattice"
            for key in ("frame", "m", "n"):
                graph._int(graph._field(v["lattice"], key, where), f"{where} {key!r}")
            raise ValueError(f"{where} 'm' and 'n' must be at most 2**53 in magnitude")
        if "free" not in v:
            raise ValueError(f"vertex {vid} has neither 'free' nor 'lattice'")
        vertices.append((vid, FreeCoord(*graph._point(v["free"], f"vertex {vid} free"))))
    return vertices


_ABOVE_1E100 = math.nextafter(1e100, math.inf)
_LATTICE = {"frame": 0, "m": 0, "n": 0}


class TestFromJsonFreeDifferential:
    """Free vertices with float coordinates are checked inline; every vertex
    document gives the reference loop's coordinate, bit for bit, or its error."""

    @pytest.mark.parametrize("vertex, accepted", [
        ({"id": 0, "free": [0.5, -2.25]}, True),
        ({"id": 0, "free": [3, -4]}, True),
        ({"id": 0, "free": [1, 0.5]}, True),
        ({"id": 0, "free": [-0.0, 0.0]}, True),
        ({"id": 0, "free": [0.0, -0.0]}, True),
        ({"id": 0, "free": [1e100, -1e100]}, True),
        ({"id": 0, "free": [-1e100, 1e100]}, True),
        ({"id": 0, "free": [_ABOVE_1E100, 0.0]}, False),
        ({"id": 0, "free": [0.0, -_ABOVE_1E100]}, False),
        ({"id": 0, "free": [True, 0.0]}, False),
        ({"id": 0, "free": [0.0, "1"]}, False),
        ({"id": 0, "free": [None, 0.0]}, False),
        ({"id": 0, "free": [math.nan, 0.0]}, False),
        ({"id": 0, "free": [0.0, math.inf]}, False),
        ({"id": 0, "free": [-math.inf, 0.0]}, False),
        ({"id": 0, "free": [0.0]}, False),
        ({"id": 0, "free": [0.0, 1.0, 2.0]}, False),
        ({"id": 0, "free": 0.0}, False),
        ({"id": 0, "free": [0.5, 0.5], "lattice": _LATTICE}, True),
        ({"id": 0, "free": [0.5, 0.5], "lattice": None}, False),
        ({"id": 0.0, "free": [0.5, 0.5]}, False),
        ({"id": True, "free": [0.5, 0.5]}, False),
        ({"free": [0.5, 0.5]}, False),
        ({"id": 0}, False),
    ], ids=["floats", "ints", "int-and-float", "negative-zero-x", "negative-zero-y",
            "at-1e100", "at-minus-1e100", "above-1e100", "below-minus-1e100", "true",
            "string", "null", "nan-token", "infinity-token", "minus-infinity-token",
            "one-element", "three-elements", "not-a-list", "with-lattice",
            "with-lattice-null", "float-id", "boolean-id", "missing-id", "no-free"])
    def test_matches_the_reference_loop(self, vertex, accepted):
        text = json.dumps({"frames": _FRAME, "vertices": [vertex], "edges": []})
        docs = json.loads(text)["vertices"]
        try:
            expected = repr(_reference_vertices(docs))
        except ValueError as exc:
            expected = f"ValueError({str(exc)!r})"
        try:
            got = repr(list(MatchstickGraph.from_json(text).vertices))
        except ValueError as exc:
            got = f"ValueError({str(exc)!r})"
        assert got == expected
        assert got.startswith("ValueError") != accepted


class TestFaceCycleShape:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=500))
    def test_two_connected_faces_are_simple_cycles(self, n, seed):
        g = random_lattice_subgraph(n, seed=seed)
        if not connectivity(g).two_connected:
            return
        fs = faces(g)
        for cycle in fs.faces:
            assert len(set(cycle)) == len(cycle)

    def test_exactly_one_outer_face(self):
        g = build_hexagon_patch(3)
        g.validate()
        fs = faces(g)
        outer = [i for i, f in enumerate(fs.faces) if i == fs.outer_face_index]
        assert len(outer) == 1
