"""Brute-force ground-truth engines.

``max_edges_lattice`` maximizes the unit-edge count over connected n-point
subsets of the triangular lattice (n <= 12) by an exact branch-and-bound:
it grows translation classes once each with the untranslated-anchor growth
technique (no set is ever revisited, so no canonical-form deduplication is
needed during the search), and cuts a subtree when, since each added point
gains at most 6 unit edges, none of its animals could strictly beat the best
count already found at any size (proof in ``_exhaustive_profile``); the
counts and witnesses are those of the search without the cut.  The search
reads one flat code-indexed neighbour table and keeps animal and `seen`
membership in byte arrays.

``max_area_rearrangement`` exhausts edge orderings of a small polygon to
certify the convex rearrangement.  It cuts a partial chain when no
completion can reach the best area scored: by bilinearity of the cross
product, twice the area of any completion is at most
|s + P x sum(R)| + sum(|r_i x r_j|) over pairs of the vectors R still to
place, where P is the chain's end and s its open shoelace sum, and a slack
covers the rounding.  The bound never uses the angular sort or any
isoperimetric fact, so it does not assume what the search certifies; the
returned float and every chain scored at the maximum are those of the
search without it (proof in its docstring).
``unit_pair_fuzz`` checks floating circle-circle intersections against the
exact lattice prediction.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache

from .geometry import cross, dot, segment_distance, shoelace2
from .lattice import (UNIT_RING, BudgetError, EisensteinPoint,
                      complete_unit_pair)

MAX_ORACLE_N = 12
MAX_ORACLE_EDGES = 8


class CanonicalPointSet(namedtuple("CanonicalPointSet", "points")):
    """Lattice point set normalized under translation and the 12-element
    lattice symmetry group (6 rotations x reflection): the lexicographically
    smallest translated image over all 12 transforms."""

    __slots__ = ()

    def __len__(self):
        return len(self.points)


def canonicalize(points) -> CanonicalPointSet:
    pts = list(points)
    best = None
    for reflected in (False, True):
        current = [p.reflect() for p in pts] if reflected else list(pts)
        for _ in range(6):
            current = [p.rot60() for p in current]
            mmin = min(p.m for p in current)
            nmin = min(p.n for p in current)
            image = tuple(sorted(EisensteinPoint(p.m - mmin, p.n - nmin)
                                 for p in current))
            if best is None or image < best:
                best = image
    return CanonicalPointSet(points=best)


# ---------------------------------------------------------------------------
# max-edge branch-and-bound


_STRIDE = 64
_OFF = 32
_NEIGH_OFFS = tuple(d.m * _STRIDE + d.n for d in UNIT_RING)


def _encode(p: EisensteinPoint) -> int:
    return (p.m + _OFF) * _STRIDE + (p.n + _OFF)


def _decode(code: int) -> EisensteinPoint:
    m, n = divmod(code, _STRIDE)
    return EisensteinPoint(m - _OFF, n - _OFF)


def _allowed_neighbours(n_max: int) -> list:
    """Code-indexed table: for each allowed cell (>= origin in (n, m) order,
    within reach of an n_max-cell animal) the tuple of its allowed neighbours in
    UNIT_RING order; None for every other code."""
    allowed = set()
    for m in range(-n_max - 1, n_max + 2):
        for n in range(-n_max - 1, n_max + 2):
            p = EisensteinPoint(m, n)
            if p.hexdist() <= n_max and (n > 0 or (n == 0 and m >= 0)):
                allowed.add(_encode(p))
    table = [None] * (_STRIDE * _STRIDE)
    for c in allowed:
        table[c] = tuple(c + d for d in _NEIGH_OFFS if c + d in allowed)
    return table


@lru_cache(maxsize=4)
def _exhaustive_profile(n_max: int):
    """(max_e, witness_codes) per size 1..n_max: the most unit edges of a
    connected lattice set of that size, and the first such set the search meets.

    Every animal cell is allowed, so the neighbours that gain an edge and the
    neighbours that join the untried list both come from one neighbour table;
    membership in the animal and in `seen` is a byte per cell code.

    The search is a branch-and-bound.  An animal of size s with e edges is
    extended only when e + 6 (t - s) > best[t] for some t in s + 1 .. n_max,
    that is when e - 6 s > floor[s] = min(best[t] - 6 t for t > s).  This
    cut leaves every (max_e, witness) as the search without it finds them.

    Proof.  A lattice point has 6 unit neighbours, so each cell added to an
    animal gains at most 6 edges, and every animal of size t grown from the
    cut one has at most e + 6 (t - s) <= best[t] edges.  ``best[t]`` only
    grows, so no such animal strictly beats it, then or later.  ``best`` and
    ``witness`` change only on a strict improvement, so the skipped subtree
    would have changed neither.  It works on its own copy of the untried
    list and restores ``seen``, so the rest of the search runs in the same
    order and meets the same first maximal animal at each size.  The
    cut uses only the degree of the lattice, never the bound the search
    checks."""
    root = _encode(EisensteinPoint(0, 0))
    neighbours = _allowed_neighbours(n_max)
    best = [-1] * (n_max + 1)
    witness = [None] * (n_max + 1)
    best[1] = 0
    witness[1] = (root,)
    animal = [root]
    in_animal = bytearray(_STRIDE * _STRIDE)
    in_animal[root] = 1
    seen = bytearray(in_animal)
    initial = list(neighbours[root])
    for q in initial:
        seen[q] = 1

    # floor[s] as in the docstring, raised whenever best grows
    floor = [0] * n_max

    def raise_floor():
        low = math.inf
        for s in range(n_max - 1, -1, -1):
            low = min(low, best[s + 1] - 6 * (s + 1))
            floor[s] = low

    raise_floor()

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
                raise_floor()
            if s2 < n_max and e2 - 6 * s2 > floor[s2]:
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


def max_edges_lattice(n: int):
    """Exact maximum unit-edge count over connected n-point lattice subsets,
    with a witness set in canonical form: the last entry of the profile."""
    _, max_e, witness = max_edges_profile(n)[-1]
    return max_e, witness


def max_edges_profile(n_max: int):
    """List of (n, max_e, witness) for n = 1..n_max; one search pass."""
    if not 1 <= n_max <= MAX_ORACLE_N:
        raise BudgetError(f"exhaustive search limited to 1 <= n <= {MAX_ORACLE_N} (got {n_max})")
    profile = _exhaustive_profile(n_max)
    return [(s, profile[s][0], canonicalize(_decode(c) for c in profile[s][1]))
            for s in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# exhaustive rearrangement search


def max_area_rearrangement(p) -> float:
    """Maximum area over all orderings of the directed edge vectors that close
    into a strictly simple polygon.  Cyclic rotations give the same polygon,
    so the first edge is fixed; the chain is pruned depth-first as soon as a
    partial self-intersection appears, or as soon as no completion can reach
    the best area already scored.  A new segment is clear of a placed one
    when ``segment_distance(...) > 1e-12``.

    The area cut.  Twice the area of a closed walk whose steps w_0 .. w_last
    start at the origin is sum(w_i x w_j, i < j), by bilinearity of the
    cross product.  So when the chain has reached point P, with open
    shoelace sum s = sum(Q_j x Q_j+1) over its placed points, and R holds
    the vectors still to place, every completion has twice its area equal
    to s + P x sum(R) + sum(r_i x r_j) over R in placement order, and at
    most |s + P x sum(R)| + pairs(R), pairs(R) = sum(|r_i x r_j|) over the
    unordered pairs of R.  A new point is not placed when half that, plus
    ``slack = 2**-40 M**2 + 2**-1000`` with M = 2 * sum(|x| + |y|) over the
    edge vectors, is below the best area scored.  The returned float, every
    chain scored at the maximum and the ValueError when no chain closes are
    those of the search without the cut.

    Proof.  Let u = 2**-53 and L = M / 2.  A point is a sum of at most 8
    edge vectors, each addition off by a factor of at most 1 + u, so every
    point the search computes has |x| + |y| <= (1 + u)**8 L < 1.01 L, and
    |a x b| <= (|ax| + |ay|) (|bx| + |by|), so every cross product of two
    points or vectors is below 1.03 L**2.  The float points Q of a
    completion differ from the exact partial sums X = P + r_k + ... by the
    rounding of at most 7 additions, under 7.1 uL in |x| + |y|; the walk
    closes at the exact origin, while X ends at P + sum(R), which is the
    sum of all edge vectors (rounded differences of the vertices around a
    closed walk, so under 1.01 uL) plus the prefix's rounding: under
    8.2 uL.  Replacing X by Q in the at most 8 cross products of the
    completion moves twice the exact area of the float chain by less than
    8 * 2 * 8.2 * 1.01 uL**2 < 140 uL**2.  The float shoelace
    (``shoelace2``, at most 8 terms of two products) is off from the exact
    one by under 9u * 8 * 1.03 L**2 < 80 uL**2, and so is the incrementally
    summed s.  The float bound's other roundings (sum(R) off by 7uL, the
    cross product with P, three additions, 28 pair products and their sum)
    cost under 50 uL**2.  So a skipped chain's computed area is at most the
    computed bound plus (140 + 80 + 80 + 50) / 2 uL**2 < 200 uL**2
    = 2**-45.4 L**2, and the slack is 2**-38 L**2 = 2**15 uL**2.  The cut
    is on only while M < 2**500, so no product overflows; products that
    underflow add at most 2**-1075 each, and the bound does about 100, well
    below the 2**-1000 term.  So every skipped chain would score strictly
    below the best area then, which never exceeds the returned one: the
    maximum and every chain that attains it are still scored.  The cut
    never fires before a chain is scored (best is -inf), so the ValueError
    is unchanged, and a cut subtree restores ``pts``, so the rest of the
    search runs in the same order.  At M >= 2**500 the slack is inf and
    nothing is cut.  The cut uses only the cross product's bilinearity and
    rounding bounds, never the angular sort, the convex rearrangement or
    any isoperimetric inequality, which are what this search certifies."""
    vecs = p.edge_vectors()
    m = len(vecs)
    if m > MAX_ORACLE_EDGES:
        raise BudgetError(f"rearrangement search limited to {MAX_ORACLE_EDGES} edges (got {m})")
    rest = tuple(sorted(vecs[1:]))
    origin = (0.0, 0.0)
    pts = [origin, vecs[0]]
    reach = 2.0 * sum(abs(x) + abs(y) for x, y in vecs)
    slack = _area_slack(reach)
    best = [-math.inf]
    sums = {}  # _sum_and_pairs per tuple of vectors still to place

    def turn_ok(shared, a, b):
        # adjacent segments meeting at `shared` must not overlap (anti-parallel)
        return not (abs(cross(shared, a, b)) <= 1e-12 and dot(shared, a, b) > 0)

    def clear_of(a, b, indices):
        return all(segment_distance(pts[i], pts[i + 1], a, b) > 1e-12 for i in indices)

    def rec(remaining, s):
        k = len(pts) - 1  # segments placed so far: S_0 .. S_{k-1}
        if len(remaining) == 1:
            # closing edge runs from pts[-1] back to the exact origin
            a = pts[-1]
            if (turn_ok(a, pts[-2], origin) and turn_ok(origin, a, pts[1])
                    and clear_of(a, origin, range(1, k - 1))):
                best[0] = max(best[0], abs(shoelace2(pts)) / 2.0)
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
            left = remaining[:i] + remaining[i + 1:]
            s2 = s + (a[0] * b[1] - b[0] * a[1])
            got = sums.get(left)
            if got is None:
                got = sums[left] = _sum_and_pairs(left)
            sx, sy, pairs = got
            if (abs(s2 + (b[0] * sy - b[1] * sx)) + pairs) / 2.0 + slack < best[0]:
                continue
            if not clear_of(a, b, range(k - 1)):
                continue
            pts.append(b)
            rec(left, s2)
            pts.pop()

    rec(rest, 0.0)
    if best[0] == -math.inf:
        raise ValueError("no simple rearrangement found (degenerate edge set)")
    return best[0]


def _sum_and_pairs(vectors) -> tuple:
    """(sum of x, sum of y, sum of |v_i x v_j| over unordered pairs)."""
    pairs = 0.0
    for i, (x1, y1) in enumerate(vectors):
        for x2, y2 in vectors[i + 1:]:
            pairs += abs(x1 * y2 - y1 * x2)
    return sum(x for x, _ in vectors), sum(y for _, y in vectors), pairs


def _area_slack(reach: float) -> float:
    """Margin past which a float area bound rules out every completion whose
    coordinates are at most `reach` (proof in max_area_rearrangement); inf,
    so nothing is cut, when products of such coordinates could overflow."""
    return 2.0 ** -40 * reach * reach + 2.0 ** -1000 if reach < 2.0 ** 500 else math.inf


# ---------------------------------------------------------------------------
# circle-intersection fuzz


_CLOSE_DIFFS = tuple(d for d in (
    list(UNIT_RING)
    + [EisensteinPoint(1, 1), EisensteinPoint(-1, 2), EisensteinPoint(-2, 1),
       EisensteinPoint(-1, -1), EisensteinPoint(1, -2), EisensteinPoint(2, -1)]
))


def unit_pair_fuzz(trials: int, seed: int = 0) -> dict:
    """Random lattice pairs (a, b) at distance < 2: the two floating-point
    intersections of the unit circles around a and b must match the exact
    lattice points common to both unit neighborhoods, within 1e-9."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        a = EisensteinPoint(rng.randint(-30, 30), rng.randint(-30, 30))
        b = a + _CLOSE_DIFFS[rng.randrange(len(_CLOSE_DIFFS))]
        ax, ay = a.cartesian()
        bx, by = b.cartesian()
        dx, dy = bx - ax, by - ay
        d = math.hypot(dx, dy)
        h = math.sqrt(max(1.0 - d * d / 4.0, 0.0))
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        ux, uy = dx / d, dy / d
        analytic = [(mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)]
        exact = [c.cartesian() for c in complete_unit_pair(a, b)]
        for q in analytic:
            err = min(math.dist(q, e) for e in exact) if exact else math.inf
            if err > 1e-9:
                failures.append({"a": a, "b": b, "point": q, "error": err})
    return {"ok": not failures, "trials": trials, "failures": failures}
