"""Constructors for lattice graphs: filled hexagon patches, spiral prefixes
that meet the edge bound floor(3n - sqrt(12n-3)) with equality for every n,
and seeded random lattice subgraphs for fuzzing.  These grow on (m, n) pairs; a
2-connected request rejects a growth with a leaf (a point with < 2 neighbours in
the set) before building a graph, so each (n, seed, flag) keeps its graph.

The spiral lists the origin, then ring 1 counterclockwise from (1, 0), then
ring k = 2, 3, ... counterclockwise starting at (k-1, 1).  Starting later
rings one step past the corner (k, 0) matters: the corner itself has only
one earlier neighbor, while (k-1, 1) touches two, which is exactly what the
edge-count increments (always 2 or 3 per vertex) require.  Correctness is
not assumed: build_extremal asserts the edge count against the bound for
every n and raises ConsistencyError should the spiral ever miss it.
"""

from __future__ import annotations

import random
from itertools import count, islice

from .graph import ConsistencyError, MatchstickGraph, connectivity, lattice_graph
from .lattice import ORIGIN, UNIT_RING, EisensteinPoint, _new, harborth_bound

_MAX_RETRIES = 200  # random_lattice_subgraph's regrowths for a 2-connected graph


def ring_points(k: int) -> list[EisensteinPoint]:
    """The 6k lattice points at hex distance k, counterclockwise from (k, 0)."""
    if k == 0:
        return [ORIGIN]
    pts = []
    p = EisensteinPoint(k, 0)
    for side in range(6):
        step = UNIT_RING[(side + 2) % 6]  # interior angle turn of the hexagon
        for _ in range(k):
            pts.append(p)
            p = p + step
    return pts


def spiral_order():
    """Infinite generator of lattice points in spiral order (see module docstring)."""
    yield ORIGIN
    yield from ring_points(1)
    for k in count(2):
        ring = ring_points(k)
        yield from ring[1:]
        yield ring[0]


def spiral_points(n: int) -> list[EisensteinPoint]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(islice(spiral_order(), n))


def build_hexagon_patch(k: int) -> MatchstickGraph:
    """All lattice points within hex distance k of the origin, with all unit edges.

    Closed forms: n = 3k^2 + 3k + 1, e = 9k^2 + 3k, boundary length 6k (k >= 1).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    pts = [ORIGIN]
    for r in range(1, k + 1):
        pts.extend(ring_points(r))
    return lattice_graph(pts)


def build_extremal(n: int) -> MatchstickGraph:
    """First n spiral points with all unit edges; meets the edge bound exactly.

    The bound is asserted per n: a spiral prefix that missed it would raise
    ConsistencyError naming n rather than return a non-extremal graph.
    """
    g = lattice_graph(spiral_points(n))
    bound = harborth_bound(n)
    if g.e != bound:
        raise ConsistencyError(f"spiral prefix for n={n} has {g.e} edges, bound is {bound}")
    report = g.validate()
    if not report.ok:
        raise ConsistencyError(f"extremal builder produced invalid graph for n={n}")
    return g


def random_lattice_subgraph(n: int, seed: int, require_2connected: bool = False) -> MatchstickGraph:
    """Connected random lattice point set grown by seeded BFS with random
    frontier selection; includes all unit edges on the set.  With
    require_2connected, regrows until the unit-edge graph is 2-connected, at
    most _MAX_RETRIES times."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if require_2connected and n < 3:
        raise ValueError("2-connected graphs need n >= 3")
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        points = _grow_random(rng, n)
        if require_2connected and _has_leaf(points):
            continue
        g = lattice_graph([_new(EisensteinPoint, p) for p in points])
        if not require_2connected or connectivity(g).two_connected:
            report = g.validate()
            if not report.ok:
                raise ConsistencyError("random lattice subgraph failed validation")
            return g
    raise ValueError(f"could not grow a 2-connected subgraph with n={n} "
                     f"in {_MAX_RETRIES} attempts (seed={seed})")


def _grow_random(rng: random.Random, n: int) -> list[tuple[int, int]]:
    points = [(0, 0)]
    chosen = {(0, 0)}
    frontier = [(dm, dn) for dm, dn in UNIT_RING]
    while len(points) < n:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        q = frontier.pop()
        if q in chosen:
            continue
        chosen.add(q)
        points.append(q)
        qm, qn = q
        for dm, dn in UNIT_RING:
            nb = (qm + dm, qn + dn)
            if nb not in chosen:
                frontier.append(nb)
    return points


def _has_leaf(points: list[tuple[int, int]]) -> bool:
    """Some point has fewer than 2 of its six UNIT_RING neighbours among ``points``."""
    chosen = set(points)
    return any(((m + 1, n) in chosen) + ((m, n + 1) in chosen) + ((m - 1, n + 1) in chosen)
               + ((m - 1, n) in chosen) + ((m, n - 1) in chosen) + ((m + 1, n - 1) in chosen) < 2
               for m, n in points)
