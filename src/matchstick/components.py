"""Decomposition of a matchstick graph into lattice components.

A lattice component is a maximal 2-connected subgraph on at least 3 vertices
whose vertices all lie on one triangular lattice.  When g lies on one lattice
(lattice mode, or a free graph lifted whole at tol: graph._lattice_at), its
components are its blocks on at least 3 vertices, on that lattice.  Otherwise
they are found by growing regions with one snap-and-step rule: a neighbour of
a region vertex v joins when LatticeFrame.snap puts it within tol of a free
point one unit step from v's.  A wedge seed is a vertex x with neighbours y, w
that join x by it on the frame with origin x and angle x -> y: y snaps to
(1, 0), w to another unit step.  Only a region's unit-step edges count, so no
component needs validating again.  Growth stops once a region covers g with
unit steps only: every later seed lies in it, so its blocks are g's.

A candidate is a block (its vertex set), the adjacency it was found in (g's,
or a region's unit-step edges), a frame and coordinates.  A block holds every
edge of its adjacency between two of its vertices: _make_component derives a
component's edges by that rule, and _maximal filters the built components.

A component's boundary is walked on its lattice points by the next-direction
rule of the lattice-mode face walk in faces(): a step arriving along
direction k goes on in the first direction of k+2, k+1, ..., k-3 (mod 6)
with an edge, the neighbour just clockwise of the way back.  From the lowest,
then leftmost point that gives the outer face.  The two walks look their
neighbours up differently (a component's by point, among its edges;
a graph's in per-vertex direction slots), so they share no code.

When g lies on one lattice its components are blocks and share no edge;
regions grown from other seeds can drift onto other frames and share edges.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from . import geometry as geo
from .census import face_census
from .graph import (_NONE, DEFAULT_TOL, ConsistencyError, MatchstickGraph, _canonical_rotation,
                    _check_tol, _grow, _lattice_at, _norm_edge, _unit_steps, block_decomposition,
                    connectivity, faces, lattice_graph)
from .lattice import ORIGIN, UNIT_RING, UNIT_STEP_INDEX, EisensteinPoint, LatticeFrame, phi


class LatticeComponent(namedtuple("LatticeComponent",
                                   "vertices edges frame coords boundary_cycle n_i e_i b_i")):
    """``coords`` maps vertex id -> EisensteinPoint in ``frame``."""

    __slots__ = ()

    @property
    def boundary_edges(self) -> frozenset:
        return _cycle_edges(self.boundary_cycle)


def _cycle_edges(c) -> frozenset:
    return frozenset(_norm_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c)))


class DecompositionReport(namedtuple("DecompositionReport",
                                      "components sum_n_i lower upper b_star")):
    """``components`` is sorted so n_1 >= n_2 >= ...  The census-dependent fields
    are None when the input is not 2-connected: ``lower`` = n - 2F, ``upper`` =
    n + 4F, and ``b_star``, the boundary edges of g not on the boundary of G_1
    (also None when k = 0)."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.components)

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k, "sum_n_i": self.sum_n_i,
            "coverage": None if self.lower is None else [self.lower, self.upper],
            "b_star": self.b_star,
            "components": [{"vertices": sorted(c.vertices),
                            "frame": {"origin": list(c.frame.origin), "angle": c.frame.angle},
                            "n_i": c.n_i, "e_i": c.e_i, "b_i": c.b_i}
                           for c in self.components],
        }, allow_nan=False)


def decompose(g: MatchstickGraph, tol: float = DEFAULT_TOL) -> DecompositionReport:
    """Find all lattice components of a validated graph.

    Output order is deterministic: decreasing n_i, ties by smallest vertex id.
    The coverage bounds and b_star require the face census and outer boundary,
    so they are None for graphs that are not 2-connected.  Computed once per
    graph and tol.  ``tol`` must be a finite number >= 0 (ValueError otherwise).
    """
    _check_tol(tol)
    return g._once(_decompose, tol)


def _decompose(g: MatchstickGraph, tol: float) -> DecompositionReport:
    g.require_validated()
    info = connectivity(g)
    census = face_census(g) if info.two_connected else None

    adj = g.adjacency()
    lattice = _lattice_at(g, tol)
    if lattice:
        # every vertex is on one lattice, so the candidates are g's blocks on it
        candidates = [(blk, adj, *lattice) for blk in info.blocks]
    else:
        candidates = _grow_all_seeds(g, tol)

    comps = _maximal([_make_component(*c, g.edges if c[1] is adj else None)
                      for c in candidates if len(c[0]) >= 3])
    comps.sort(key=lambda c: (-c.n_i, min(c.vertices)))

    b_star_val = (len(_cycle_edges(faces(g).outer_face) - comps[0].boundary_edges)
                  if comps and census is not None else None)
    return DecompositionReport(
        components=tuple(comps),
        sum_n_i=sum(c.n_i for c in comps),
        lower=None if census is None else g.n - 2 * census.F,
        upper=None if census is None else g.n + 4 * census.F,
        b_star=b_star_val,
    )


def _grow_all_seeds(g: MatchstickGraph, tol: float):
    """Grow the region of every wedge seed, and return the blocks of the
    regions' unit-step edges as candidates (block, region adjacency, frame,
    coordinates), in the order found.

    Seeds whose three vertices already lie in one grown region would
    reproduce it and are skipped.  A region holding every vertex of g with a
    unit step on every edge holds every seed: the scan stops there, and the
    region's blocks are g's, found in g's adjacency.
    """
    pos = g.positions()
    adj = g.adjacency()
    candidates = []
    regions_of = {}  # vertex -> indices of the grown regions holding it
    n_regions = 0
    for x, nbrs in adj.items():  # in vertex order
        for i, y in enumerate(nbrs):
            # the frame (origin x, angle x -> y) and y's snap are made once, when first needed
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
                if len(coords) == g.n and _unit_steps(g.edges, coords) is not None:
                    return candidates + [(blk, adj, frame, coords)
                                         for blk in connectivity(g).blocks]
                region_adj = {v: [u for u in adj[v] if u in coords
                                  and (coords[u][0] - m, coords[u][1] - n) in UNIT_STEP_INDEX]
                              for v, (m, n) in coords.items()}
                for v in coords:
                    regions_of.setdefault(v, set()).add(n_regions)
                n_regions += 1
                blocks, _ = block_decomposition(coords, region_adj)
                candidates.extend((blk, region_adj, frame, coords) for blk in blocks)
    return candidates


def _maximal(comps):
    """The first of ``comps`` for each edge set, less those whose edges lie
    strictly inside another's.  A component can only lie inside one holding
    its first edge (in its set's iteration order), so only those are compared."""
    first = {}  # edge set -> its first component
    for c in comps:
        first.setdefault(c.edges, c)
    holders = {next(iter(edges)): [] for edges in first}  # first edge -> the sets holding it
    firsts = set(holders)
    for edges in first:
        for e in edges & firsts:
            holders[e].append(edges)
    return [c for edges, c in first.items()
            if not any(edges < d for d in holders[next(iter(edges))])]


def _make_component(vset, adj, frame, coords, edges=None) -> LatticeComponent:
    """The component on the block ``vset`` of ``adj``, whose edges are unit
    steps between distinct points of ``coords``; its edges are those of ``adj``
    between two of its vertices: ``edges``, when given as all of adj's, if it
    holds every vertex of adj.  Its lowest, then leftmost point s has
    neighbours only in directions 0, 1, 2, so the outer face walk starts at s
    as if come from direction 3, and ends when it is back at s: a block's outer
    face is a cycle.  The walk looks neighbours up as (m + dm, n + dn) int
    pairs.  The component shares ``coords`` when it holds every vertex of it."""
    if edges is not None and len(vset) == len(adj):
        eset = frozenset(edges)
    else:
        eset = frozenset([(u, w) for u in vset for w in adj[u] if u < w and w in vset])
    points = coords if len(vset) == len(coords) else {v: coords[v] for v in vset}
    at = {p: v for v, p in points.items()}
    s = min(points, key=lambda v: points[v][::-1])
    cycle, v, k = [], s, 3  # the walk is at v, come from its neighbour in direction k
    while not cycle or v != s:
        cycle.append(v)
        m, n = points[v]
        for j in range(k + 5, k - 1, -1):
            dm, dn = UNIT_RING[j % 6]
            u = at.get((m + dm, n + dn))
            if u is not None and ((u, v) if u < v else (v, u)) in eset:
                break
        v, k = u, (j + 3) % 6
    return LatticeComponent(vertices=frozenset(vset), edges=frozenset(eset), frame=frame,
                            coords=points, boundary_cycle=_canonical_rotation(cycle),
                            n_i=len(vset), e_i=len(eset), b_i=len(cycle))


def component_boundary_check(comp: LatticeComponent):
    """b_i >= phi(n_i) holds unconditionally for 2-connected lattice subgraphs
    (fill the boundary polygon with lattice points and apply the edge bound).
    Decided on integers, as (b_i + 3)**2 >= 12 n_i - 3, since b_i + 3 > 0."""
    target = phi(comp.n_i)
    holds = (comp.b_i + 3) ** 2 >= 12 * comp.n_i - 3
    if not holds:
        raise ConsistencyError(
            f"component boundary bound failed: b_i={comp.b_i} < phi({comp.n_i})={target}")
    return comp.b_i, target, holds


def fill_component(comp: LatticeComponent) -> MatchstickGraph:
    """All lattice points inside or on the component's boundary polygon, with
    all unit edges; keeps the outer boundary and never loses vertices."""
    poly = [comp.coords[v].scaled() for v in comp.boundary_cycle]
    ms = [comp.coords[v].m for v in comp.boundary_cycle]
    ns = [comp.coords[v].n for v in comp.boundary_cycle]
    points = []
    for m in range(min(ms), max(ms) + 1):
        for n in range(min(ns), max(ns) + 1):
            p = EisensteinPoint(m, n)
            if geo.point_in_polygon(p.scaled(), poly):
                points.append(p)
    return lattice_graph(points, frame=comp.frame)

