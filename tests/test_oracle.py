import math
import random
import sys

import pytest

from matchstick import oracle
from matchstick.builders import build_hexagon_patch
from matchstick.geometry import (cross, dot, segment_distance, segments_properly_cross,
                                 shoelace2)
from matchstick.isoperimetry import polygon, random_simple_polygon
from matchstick.lattice import UNIT_RING, BudgetError, EisensteinPoint, harborth_bound
from matchstick.oracle import (CanonicalPointSet, canonicalize, unit_pair_fuzz,
                               max_area_rearrangement, max_edges_lattice,
                               max_edges_profile)

E = EisensteinPoint


class TestCanonicalize:
    def test_invariant_under_symmetries(self):
        rng = random.Random(0)
        for _ in range(50):
            pts = {E(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(6)}
            base = canonicalize(pts)
            shift = E(3, -7)
            variants = [{p + shift for p in pts},
                        {p.rot60() for p in pts},
                        {p.reflect() for p in pts}]
            rot = pts
            for _ in range(6):
                rot = {p.rot60() for p in rot}
                variants.append(set(rot))
            for v in variants:
                assert canonicalize(v).points == base.points

    def test_distinguishes_incongruent(self):
        a = canonicalize([E(0, 0), E(1, 0), E(2, 0)])
        b = canonicalize([E(0, 0), E(1, 0), E(0, 1)])
        assert a.points != b.points

    def test_len(self):
        assert len(canonicalize([E(0, 0), E(4, 4)])) == 2


class TestMaxEdges:
    def test_triangle(self):
        max_e, w = max_edges_lattice(3)
        assert max_e == 3
        assert w.points == canonicalize([E(0, 0), E(1, 0), E(0, 1)]).points

    def test_four(self):
        max_e, _ = max_edges_lattice(4)
        assert max_e == 5

    def test_seven_hexagon_witness(self):
        max_e, w = max_edges_lattice(7)
        assert max_e == 12
        patch_pts = [c.point for _, c in build_hexagon_patch(1).vertices]
        assert w.points == canonicalize(patch_pts).points

    def test_profile_matches_bound_to_ten(self):
        for n, max_e, w in max_edges_profile(10):
            assert max_e == harborth_bound(n)
            assert isinstance(w, CanonicalPointSet) and len(w) == n

    def test_profile_witnesses_are_pinned(self):
        # the first maximal animal the search meets at each size, in canonical
        # form; any change to the search order shows up here
        want = [
            (1, 0, [(0, 0)]),
            (2, 1, [(0, 0), (0, 1)]),
            (3, 3, [(0, 0), (0, 1), (1, 0)]),
            (4, 5, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            (5, 7, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]),
            (6, 9, [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]),
            (7, 12, [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]),
            (8, 14, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]),
            (9, 16, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0),
                     (2, 1)]),
            (10, 19, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0),
                      (2, 1), (2, 2)]),
        ]
        got = [(n, max_e, w.points) for n, max_e, w in max_edges_profile(10)]
        assert got == [(n, e, tuple(E(m, k) for m, k in pts)) for n, e, pts in want]

    def test_profile_witnesses_at_eleven_and_twelve_are_pinned(self):
        # values of the search without its cut
        eleven = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
                  (2, 2), (3, 0)]
        want = [(11, 21, eleven), (12, 24, eleven + [(3, 1)])]
        got = [(n, max_e, w.points) for n, max_e, w in max_edges_profile(12)[10:]]
        assert got == [(n, e, tuple(E(m, k) for m, k in pts)) for n, e, pts in want]

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            max_edges_lattice(13)
        with pytest.raises(BudgetError):
            max_edges_lattice(0)


def _unpruned_profile(n_max: int):
    """_exhaustive_profile without its cut: every connected lattice set is
    visited."""
    root = oracle._encode(EisensteinPoint(0, 0))
    neighbours = oracle._allowed_neighbours(n_max)
    best = [-1] * (n_max + 1)
    witness = [None] * (n_max + 1)
    best[1] = 0
    witness[1] = (root,)
    animal = [root]
    in_animal = bytearray(oracle._STRIDE * oracle._STRIDE)
    in_animal[root] = 1
    seen = bytearray(in_animal)
    initial = list(neighbours[root])
    for q in initial:
        seen[q] = 1

    def extend(untried, ecount, size):
        s2 = size + 1
        while untried:
            c = untried.pop()
            nb = neighbours[c]
            e2 = ecount
            for q in nb:
                e2 += in_animal[q]
            in_animal[c] = 1
            animal.append(c)
            if e2 > best[s2]:
                best[s2] = e2
                witness[s2] = tuple(animal)
            if s2 < n_max:
                added = [q for q in nb if not seen[q]]
                for q in added:
                    seen[q] = 1
                extend(untried + added, e2, s2)
                for q in added:
                    seen[q] = 0
            in_animal[c] = 0
            animal.pop()

    if n_max >= 2:
        extend(initial, 0, 1)
    return tuple((best[s], witness[s]) for s in range(n_max + 1))


class TestNeighbourCountCut:
    """_exhaustive_profile against the unpruned search it shortcuts."""

    @pytest.mark.parametrize("n_max", range(1, 11))
    def test_same_counts_and_witness_codes(self, n_max):
        assert oracle._exhaustive_profile(n_max) == _unpruned_profile(n_max)

    @pytest.mark.parametrize("n_max, searched", [(9, 216), (12, 3393)])
    def test_extend_calls_are_pinned(self, n_max, searched):
        # the maxima are met before a slightly too strong cut matters, so the
        # counts alone cannot see one; the number of subtrees searched can
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "extend":
                calls[0] += 1

        oracle._exhaustive_profile.cache_clear()
        outer = sys.getprofile()
        sys.setprofile(count)
        try:
            oracle._exhaustive_profile(n_max)
        finally:
            sys.setprofile(outer)
        assert calls[0] == searched

    def test_ceilings_bound_every_subtree(self):
        # the lemma behind the cut, on the search without it: below every
        # animal that may grow, each larger size t reached has at most the
        # ceiling for t, with counts taken from membership, not from `cnt`
        n_max = 8
        neighbours = oracle._allowed_neighbours(n_max)
        root = oracle._encode(E(0, 0))
        in_animal = bytearray(oracle._STRIDE * oracle._STRIDE)
        in_animal[root] = 1
        seen = bytearray(in_animal)
        initial = list(neighbours[root])
        for q in initial:
            seen[q] = 1
        pairs = []  # (ceiling, most edges below) per animal and size t

        def touching(u):
            return sum(in_animal[q] for q in neighbours[u])

        def extend(untried, ecount, size):
            # the most edges per size over every animal grown here
            s2 = size + 1
            most = {}
            while untried:
                c = untried.pop()
                e2 = ecount + touching(c)
                most[s2] = max(most.get(s2, -1), e2)
                in_animal[c] = 1
                if s2 < n_max:
                    added = [q for q in neighbours[c] if not seen[q]]
                    for q in added:
                        seen[q] = 1
                    reach = untried + added
                    ceilings = list(oracle._subtree_ceilings(e2, [touching(u) for u in reach]))
                    for t, m in extend(reach, e2, s2).items():
                        pairs.append((ceilings[t - s2], m))
                        most[t] = max(most.get(t, -1), m)
                    for q in added:
                        seen[q] = 0
                in_animal[c] = 0
            return most

        extend(initial, 0, 1)
        assert [(ceiling, m) for ceiling, m in pairs if m > ceiling] == []
        assert (len(pairs), sum(m == ceiling for ceiling, m in pairs)) == (5793, 5290)


class TestMaxAreaRearrangement:
    def test_l_shape(self):
        p = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert max_area_rearrangement(p) == pytest.approx(4.0)

    def test_unit_square_already_maximal(self):
        p = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert max_area_rearrangement(p) == pytest.approx(1.0)

    def test_convex_input_is_its_own_max(self):
        rng = random.Random(2)
        for _ in range(20):
            from matchstick.isoperimetry import convexify_rearrangement
            p = convexify_rearrangement(random_simple_polygon(rng, 4, 7))
            assert max_area_rearrangement(p) == pytest.approx(p.area, abs=1e-9)

    def test_never_below_input(self):
        rng = random.Random(4)
        for _ in range(30):
            p = random_simple_polygon(rng, 3, 7)
            assert max_area_rearrangement(p) >= p.area - 1e-12

    def test_budget_guard(self):
        pts = [(math.cos(2 * math.pi * k / 9), math.sin(2 * math.pi * k / 9))
               for k in range(9)]
        with pytest.raises(BudgetError):
            max_area_rearrangement(polygon(pts))


def _unpruned_rearrangement(p) -> float:
    """max_area_rearrangement without the area cut: every placed segment
    goes through ``oracle.segment_distance`` and every chain that closes is
    scored.  Both ``oracle`` functions are looked up at call time, so a spy
    on either sees these calls too."""
    vecs = p.edge_vectors()
    rest = sorted(vecs[1:])
    origin = (0.0, 0.0)
    pts = [origin, vecs[0]]
    best = [-math.inf]

    def turn_ok(shared, a, b):
        return not (abs(cross(shared, a, b)) <= 1e-12 and dot(shared, a, b) > 0)

    def clear_of(a, b, indices):
        return all(oracle.segment_distance(pts[i], pts[i + 1], a, b) > 1e-12 for i in indices)

    def rec(remaining):
        k = len(pts) - 1
        if len(remaining) == 1:
            a = pts[-1]
            if (turn_ok(a, pts[-2], origin) and turn_ok(origin, a, pts[1])
                    and clear_of(a, origin, range(1, k - 1))):
                best[0] = max(best[0], abs(oracle.shoelace2(pts)) / 2.0)
            return
        prev = None
        for i, v in enumerate(remaining):
            if v == prev:
                continue
            prev = v
            a = pts[-1]
            b = (a[0] + v[0], a[1] + v[1])
            if not turn_ok(a, pts[-2], b):
                continue
            if not clear_of(a, b, range(k - 1)):
                continue
            pts.append(b)
            rec(remaining[:i] + remaining[i + 1:])
            pts.pop()

    rec(rest)
    if best[0] == -math.inf:
        raise ValueError("no simple rearrangement found (degenerate edge set)")
    return best[0]


def _run(search, p, monkeypatch):
    """(area or error, every closed chain in the order the search scored it)."""
    closed = []

    def spy(points):
        closed.append(tuple(points))
        return shoelace2(points)

    monkeypatch.setattr(oracle, "shoelace2", spy)
    try:
        return search(p), closed
    except ValueError as exc:
        return ("ValueError", str(exc)), closed


def _maximal(chains, area):
    """The scored chains whose computed area is the returned maximum."""
    return [c for c in chains if abs(shoelace2(c)) / 2.0 == area]


def _random_corpus():
    rng = random.Random(10)
    return [random_simple_polygon(rng, m, m) for m in range(3, 9) for _ in range(3)]


def _special_corpus():
    ring = [d.cartesian() for d in UNIT_RING]
    turned = [(math.cos(0.3) * x - math.sin(0.3) * y, math.sin(0.3) * x + math.cos(0.3) * y)
              for x, y in ring]
    h = math.sqrt(3) / 2
    return [
        [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],             # L-shape
        ring,                                                       # hexagon-patch boundary
        turned,
        [(0, 0), (1, 0), (2, 0), (3, 0), (2.5, h), (1.5, h), (0.5, h)],  # lattice trapezoid
        [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (1, 1), (0, 1)],  # split rectangle
        [(0, 0), (4, 0), (4, 2), (2, 2e-12), (0, 2)],               # vertex 2e-12 off an edge
        [(0, 0), (4, 0), (4, 2), (2, 5e-13), (0, 2)],
        [(0, 0), (1, 0), (0.5, 1e-13)],                             # no simple rearrangement
    ]


def _moved(p, scale, shift):
    return polygon([(x * scale + shift[0], y * scale + shift[1]) for x, y in p.vertices])


class TestBoxSkip:
    """max_area_rearrangement against the unpruned search it shortcuts."""

    def corpus(self):
        base = _random_corpus() + [polygon(pts) for pts in _special_corpus()]
        out = list(base)
        for scale, shift in ((1e-6, (0.0, 0.0)), (1e6, (0.0, 0.0)), (1e90, (0.0, 0.0)),
                             (1.0, (123.456, -78.9)), (1e-6, (1.0, 1.0)),
                             (1e90, (-3e90, 7e89))):
            for p in base:
                try:
                    out.append(_moved(p, scale, shift))
                except ValueError:
                    pass  # rounding made the moved copy degenerate or not simple
        assert len(out) > 6 * len(base)
        return out

    def test_same_float_and_maximal_chains_as_the_unpruned_search(self, monkeypatch):
        errors = cut = 0
        for p in self.corpus():
            want, want_chains = _run(_unpruned_rearrangement, p, monkeypatch)
            got, chains = _run(max_area_rearrangement, p, monkeypatch)
            assert got == want, p.vertices
            # the scored chains come in the unpruned search's order, some cut out
            unpruned = iter(want_chains)
            assert all(c in unpruned for c in chains), p.vertices
            assert _maximal(chains, got) == _maximal(want_chains, want), p.vertices
            errors += isinstance(want, tuple)
            cut += len(chains) < len(want_chains)
        assert errors > 0 and cut > 100

    def test_fewer_distance_calls_on_eight_edges(self, monkeypatch):
        calls = [0]

        def spy(*args):
            calls[0] += 1
            return segment_distance(*args)

        monkeypatch.setattr(oracle, "segment_distance", spy)
        eight = [p for p in _random_corpus() if len(p.vertices) == 8]
        assert eight
        for p in eight:
            calls[0] = 0
            want = _unpruned_rearrangement(p)
            unpruned = calls[0]
            calls[0] = 0
            assert max_area_rearrangement(p) == want
            assert calls[0] < unpruned

    def test_a_fixed_pad_is_not_enough(self):
        # boxes 2 ulps apart at coordinates near 2e7, yet the computed foot on
        # ab lands on p1: a box gap alone does not put two segments apart
        p1 = (-14078086.271134809, -22373845.64217437)
        p2 = (-22953543.234651864, -35028974.339194864)
        a = (13519801.139071986, -9308246.969314117)
        b = (-14078086.271134807, -22373845.64217437)
        assert b[0] - p1[0] > 1e-9
        assert segment_distance(p1, p2, a, b) == 0.0

    def test_far_collinear_segments_do_not_cross(self):
        # two segments on one line about 0.8 apart, with boxes far apart in x:
        # their four float orientations are rounding noise that alternates,
        # and the exact sign finds no crossing
        p1 = (1.2544885755603807, -5.431807993889613)
        p2 = (0.25885091715245045, -0.5810939643381292)
        q1 = (-0.4432577753748589, 2.8395565668583127)
        q2 = (0.09074853142839179, 0.23789534763371245)
        assert math.dist(p2, q2) > 0.8
        assert segments_properly_cross(p1, p2, q1, q2) is False
        assert segment_distance(p1, p2, q1, q2) > 0.8


class TestAreaCut:
    """The completion bound behind max_area_rearrangement's area cut."""

    def test_no_completion_beats_the_float_bound(self):
        # the lemma behind the cut: a closing vector set in any order, cut
        # after any prefix, computes an area of at most the float bound plus
        # the slack, at every scale; repeated vectors come from lattice steps
        rng = random.Random(12)
        ring = [d.cartesian() for d in UNIT_RING]
        tight = 0
        for _ in range(3000):
            m = rng.randint(3, 8)
            scale = 10.0 ** rng.uniform(-3, 100)
            if rng.random() < 0.3:
                corners, x, y = [], 0.0, 0.0
                for _ in range(m - 1):
                    dx, dy = rng.choice(ring)
                    x, y = x + dx, y + dy
                    corners.append((x, y))
                corners.append((0.0, 0.0))
            else:
                corners = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
            corners = [(x * scale, y * scale) for x, y in corners]
            vecs = [(corners[i][0] - corners[i - 1][0], corners[i][1] - corners[i - 1][1])
                    for i in range(m)]
            rng.shuffle(vecs)
            slack = oracle._area_slack(2.0 * sum(abs(x) + abs(y) for x, y in vecs))
            pts = [(0.0, 0.0)]
            for v in vecs[:-1]:
                a = pts[-1]
                pts.append((a[0] + v[0], a[1] + v[1]))
            area = abs(shoelace2(pts)) / 2.0
            s = 0.0
            for k in range(1, m):  # pts[k] placed, vecs[k:] still to place
                a, b = pts[k - 1], pts[k]
                s += a[0] * b[1] - b[0] * a[1]
                sx, sy, pairs = oracle._sum_and_pairs(tuple(vecs[k:]))
                bound = (abs(s + (b[0] * sy - b[1] * sx)) + pairs) / 2.0
                assert area <= bound + slack, (vecs, k)
                tight += area >= bound - slack
        assert tight > 3000

    def test_slack_scales_with_the_reach_and_stops_before_overflow(self):
        assert oracle._area_slack(1.0) == 2.0 ** -40 + 2.0 ** -1000
        assert oracle._area_slack(1e100) == pytest.approx(2.0 ** -40 * 1e200)
        assert oracle._area_slack(1e-200) == 2.0 ** -1000
        assert oracle._area_slack(2.0 ** 500) == math.inf
        assert oracle._area_slack(math.inf) == math.inf

    def test_sum_and_pairs(self):
        assert oracle._sum_and_pairs(((1.0, 0.0), (0.0, 2.0), (-1.0, -2.0))) == (0.0, 0.0, 6.0)
        assert oracle._sum_and_pairs(((3.0, 4.0),)) == (3.0, 4.0, 0.0)

    def test_chains_scored_on_the_random_corpus_are_pinned(self, monkeypatch):
        scored = unpruned = 0
        for p in _random_corpus():
            scored += len(_run(max_area_rearrangement, p, monkeypatch)[1])
            unpruned += len(_run(_unpruned_rearrangement, p, monkeypatch)[1])
        assert (scored, unpruned) == (94, 3786)


class TestUnitPairFuzz:
    def test_adjacent_pair_analytic(self):
        # circles around (0,0) and (1,0) meet at (1/2, +-sqrt(3)/2)
        from matchstick.lattice import complete_unit_pair
        got = {p.cartesian() for p in complete_unit_pair(E(0, 0), E(1, 0))}
        want = {(0.5, math.sqrt(3) / 2), (0.5, -math.sqrt(3) / 2)}
        for w in want:
            assert any(math.dist(w, g) < 1e-12 for g in got)

    def test_sqrt3_pair_analytic(self):
        from matchstick.lattice import complete_unit_pair
        got = {p.cartesian() for p in complete_unit_pair(E(0, 0), E(1, 1))}
        assert any(math.dist(g, E(1, 0).cartesian()) < 1e-12 for g in got)
        assert any(math.dist(g, E(0, 1).cartesian()) < 1e-12 for g in got)

    def test_fuzz_run(self):
        rec = unit_pair_fuzz(3000, seed=42)
        assert rec["ok"] and rec["trials"] == 3000 and not rec["failures"]
