"""Input generators for the benchmark workloads.

Every generator is a pure function of its arguments; randomness comes from a
``random.Random`` the caller seeds, so one seed always gives the same inputs.
Library functions are looked up on their modules at call time, so the traced
run sees them through its wrappers.
"""

from __future__ import annotations

import json
import math
import random

from matchstick import graph
from matchstick.lattice import EisensteinPoint, LatticeFrame

# Chain directions stay within +-MAX_TILT degrees of east and consecutive
# patches differ by MIN_STEP..MAX_STEP degrees: hexagons then touch only at
# their shared corner, the rhombus gap angle 60 + d_i - d_{i+1} lies in
# [20, 100] degrees (never a lattice angle), and consecutive patches never
# share a lattice.
MAX_TILT = 20.0
MIN_STEP = 5.0
MAX_STEP = 40.0


def rotated(g, angle: float, shift: tuple[float, float]):
    """Free-float copy of g rotated by `angle` about the origin, then shifted."""
    ca, sa = math.cos(angle), math.sin(angle)
    pos = g.positions()
    coords = [(shift[0] + ca * x - sa * y, shift[1] + sa * x + ca * y)
              for x, y in (pos[vid] for vid in g.ids())]
    index = {vid: i for i, vid in enumerate(g.ids())}
    edges = [(index[a], index[b]) for a, b in g.edges]
    return graph.free_graph(coords, edges)


def _hexagon_points(r: int) -> list[EisensteinPoint]:
    return [EisensteinPoint(m, n) for m in range(-r, r + 1) for n in range(-r, r + 1)
            if EisensteinPoint(m, n).hexdist() <= r]


def _directions(k: int, rng: random.Random) -> list[float]:
    dirs = [rng.uniform(-MAX_TILT, MAX_TILT)]
    while len(dirs) < k:
        d = rng.uniform(-MAX_TILT, MAX_TILT)
        if MIN_STEP <= abs(d - dirs[-1]) <= MAX_STEP:
            dirs.append(d)
    return dirs


def patch_chain(k: int, r: int, rng: random.Random):
    """A 2-connected chain of k hexagon patches of radius r, each on its own
    rotated lattice, as a free-float graph.

    Patch i+1's west corner is patch i's east corner P.  A rhombus bridge
    P, Q_A, X, Q_B (Q_A, Q_B the upper boundary neighbours of P in the two
    patches, X = Q_A + Q_B - P) adds one vertex, two edges and one 4-face.
    Returns the graph and the vertex-id set of every patch, in chain order.
    """
    if k < 1 or r < 1:
        raise ValueError("patch_chain needs k >= 1 and r >= 1")
    pts = _hexagon_points(r)
    coords: list[tuple[float, float]] = []
    edges: list[tuple[int, int]] = []
    patches: list[frozenset] = []
    east = EisensteinPoint(r, 0)
    west = EisensteinPoint(-r, 0)
    prev = None  # lattice point -> vertex id of the previous patch
    for d in _directions(k, rng):
        angle = math.radians(d)
        if prev is None:
            corner = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        else:
            corner_id = prev[east]
            corner = coords[corner_id]
        center = (corner[0] + r * math.cos(angle), corner[1] + r * math.sin(angle))
        frame = LatticeFrame(origin=center, angle=angle)
        ids = {}
        for p in pts:
            if prev is not None and p == west:
                ids[p] = corner_id  # shared corner keeps one position
                continue
            ids[p] = len(coords)
            coords.append(frame.to_cartesian(p))
        for p, i in ids.items():
            for step in ((1, 0), (0, 1), (-1, 1)):
                j = ids.get(EisensteinPoint(p.m + step[0], p.n + step[1]))
                if j is not None:
                    edges.append((i, j))
        if prev is not None:
            qa = prev[EisensteinPoint(r - 1, 1)]
            qb = ids[EisensteinPoint(-r, 1)]
            x = len(coords)
            coords.append((coords[qa][0] + coords[qb][0] - corner[0],
                           coords[qa][1] + coords[qb][1] - corner[1]))
            edges.extend([(qa, x), (qb, x)])
        patches.append(frozenset(ids.values()))
        prev = ids
    return graph.free_graph(coords, edges), patches


def segments(m: int, rng: random.Random):
    """m disjoint horizontal segments of length exactly 2 (each one NonUnitEdge).

    Offsets are multiples of 1/16, so every length is exactly 2.0 in floats;
    columns are 3 apart and rows 1.5 apart, so no two segments come within
    0.5 of each other.
    """
    cols = max(1, math.isqrt(m))
    coords = []
    edges = []
    for i in range(m):
        x = 3.0 * (i % cols) + rng.randrange(8) / 16.0
        y = 1.5 * (i // cols) + rng.randrange(4) / 16.0
        coords.extend([(x, y), (x + 2.0, y)])
        edges.append((2 * i, 2 * i + 1))
    return graph.free_graph(coords, edges)


# Five graph documents that MatchstickGraph.from_json accepts into an uncaught
# exception today; a parser with a schema check rejects each with exit 2.
MALFORMED = {
    "infinite-coordinate": json.dumps(
        {"frames": [], "vertices": [{"id": 0, "free": [0.0, 0.0]},
                                    {"id": 1, "free": [float("inf"), 0.0]}],
         "edges": [[0, 1]]}),
    "vertex-without-coordinate": json.dumps(
        {"frames": [], "vertices": [{"id": 0, "free": [0.0, 0.0]}, {"id": 1}],
         "edges": [[0, 1]]}),
    "top-level-array": json.dumps([[0.0, 0.0], [1.0, 0.0]]),
    "missing-edges": json.dumps(
        {"frames": [], "vertices": [{"id": 0, "free": [0.0, 0.0]},
                                    {"id": 1, "free": [1.0, 0.0]}]}),
    "frame-id-out-of-range": json.dumps(
        {"frames": [{"id": 3, "origin": [0.0, 0.0], "angle": 0.0}],
         "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0, "n": 0}},
                      {"id": 1, "lattice": {"frame": 0, "m": 1, "n": 0}}],
         "edges": [[0, 1]]}),
}
