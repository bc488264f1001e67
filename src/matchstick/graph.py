"""Matchstick-graph representation, geometric validation, and face structure.

A matchstick graph is a plane graph whose edges are straight unit-length
segments meeting only at shared endpoints.  Vertices carry either exact
lattice coordinates (an ``EisensteinPoint`` within a ``LatticeFrame``) or
free cartesian floats.  Graphs whose vertices all live on one frame are
validated with exact integer predicates; everything else falls back to
tolerance-based float predicates.

The unit-distance graph of the triangular lattice is plane: a unit lattice
edge between two distinct lattice points crosses no other such edge, overlaps
none, and passes through no lattice point.  So a lattice graph can only fail
validation through a non-unit edge or two vertices on one point (in penny
mode, only duplicates come closer than 1).  Exact validation checks those two
faults in O(n + e) and runs the generic segment-pair pass only when one of
them fires, so an invalid graph still gets the full report.  A free-mode
graph is lifted in pieces: a piece is a connected part whose vertices lie
within tol/4 of distinct points of one lattice, framed on one of its edges,
with unit steps on its edges, i.e. such a lattice graph written in floats.
When one piece holds the whole graph it is found valid in O(n + e) the same
way, and it is then the graph's lattice for faces and decompose, as in lattice
mode; otherwise the float pass checks only the pairs of elements no single
piece holds, and a graph with no piece takes the full float pass; the
lift's proof is the docstring of ``_validation_report``.  The exact and float
passes share one violation loop, which compares distances with tol: the exact
pass runs it at tol 0 on doubled integer coordinates, with the square root of
the integer norm between points and 0.0 or inf for a point on a segment or two
segments that meet.  A spatial grid prunes the candidate pairs: every edge
sits in each cell of its bounding box widened by tol, so the cost follows the
number of nearby pairs at any tolerance.  One generator serves every pass; it
stores no pair whose boxes are apart or that one piece holds, and finds each
candidate once, an edge pair only in its reference cell (at the larger of the
two edges' lowest cell x, and of their lowest cell y).
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict, namedtuple

from . import geometry as geo
from .lattice import ORIGIN, UNIT_RING, UNIT_STEP_INDEX, EisensteinPoint, LatticeFrame, _new

DEFAULT_TOL = 1e-9
# from_json bound on lattice m and n: past 2**53 floats no longer hold every
# integer, so the vertex positions lose their meaning
_MAX_LATTICE_COORD = 2 ** 53
# _point's bound on free coordinates and frame origins: their differences,
# products of two differences and sums of up to 1e100 such products (squared
# distances, hypot, shoelace sums, the SVG size) stay finite
_MAX_COORD = 1e100

# grid pruning: cells are max(_CELL, tol + _BOX_PAD) wide, and every edge goes
# in each cell of its bounding box widened by tol + _BOX_PAD (_BOX_PAD is slack
# for float rounding of the box), unless that is more than n + e cells, when it
# is checked brute-force against every edge and vertex
_CELL = 1.1
_BOX_PAD = 0.05
_NONE = frozenset()


class ConsistencyError(Exception):
    """A theorem-level invariant failed; indicates a bug or corrupted input."""


LatticeCoord = namedtuple("LatticeCoord", "frame point")  # frame index, EisensteinPoint
FreeCoord = namedtuple("FreeCoord", "x y")
# kind: NonUnitEdge | Crossing | VertexOnEdge | DuplicateVertexPosition | PennyDistance
Violation = namedtuple("Violation", "kind ids value", defaults=(None,))


class ValidationReport(namedtuple("ValidationReport",
                                  "ok violations mode path tol_below_resolution",
                                  defaults=(None, None))):
    """``mode`` is "lattice" or "free".  ``path`` is the check that decided the
    report: "lattice-fast", "lattice-generic", "free-lift", "free-pieces" or
    "float" (see _validation_report); not in the JSON.  ``tol_below_resolution``,
    free mode only, is max |coordinate| * 2**-52 when it exceeds tol, i.e. float
    spacing there is too coarse for the tolerance tests to mean anything."""

    __slots__ = ()

    def to_json(self) -> str:
        doc = {
            "ok": self.ok,
            "mode": self.mode,
            "violations": [
                {"kind": v.kind, "ids": list(v.ids), "value": v.value}
                for v in self.violations
            ],
        }
        if self.tol_below_resolution is not None:
            doc["tol_below_resolution"] = self.tol_below_resolution
        return json.dumps(doc, allow_nan=False)


class FaceStructure(namedtuple("FaceStructure", "faces outer_face_index")):
    """``faces``: directed vertex cycles, inner ones counterclockwise."""

    __slots__ = ()

    @property
    def inner_faces(self):
        return tuple(f for i, f in enumerate(self.faces) if i != self.outer_face_index)

    @property
    def outer_face(self):
        return self.faces[self.outer_face_index]


ConnectivityInfo = namedtuple("ConnectivityInfo",
                              "connected two_connected min_degree blocks cut_vertices")


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class MatchstickGraph:
    """Immutable plane graph with unit-segment edges.

    ``vertices`` is a tuple of (id, coord), sorted by id, with coord either a
    LatticeCoord or a FreeCoord; ``edges`` is a sorted tuple of id pairs (a, b)
    with a < b, without duplicates.  ``__init__`` alone decides this order, and
    everything else reads it as stored.  Construction checks structural sanity
    only; call :meth:`validate` for the geometric checks.
    """

    def __init__(self, vertices, edges, frames=()):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("graph needs at least one vertex")
        coord_of = dict(vertices)
        if len(coord_of) != len(vertices):
            raise ValueError("duplicate vertex ids")
        norm_edges = []
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a not in coord_of or b not in coord_of:
                raise ValueError(f"edge ({a},{b}) references unknown vertex")
            norm_edges.append((a, b) if a < b else (b, a))
        norm_edges.sort()  # one linear run for the already sorted edges of to_json
        self.vertices = tuple(sorted(vertices))  # the ids are distinct, so no coord is compared
        self.edges = tuple(dict.fromkeys(norm_edges))  # drops repeats, keeps the order
        self.frames = tuple(frames)
        for vid, coord in vertices:
            if isinstance(coord, LatticeCoord) and not (0 <= coord.frame < len(self.frames)):
                raise ValueError(f"vertex {vid} references unknown frame {coord.frame}")
        self._coord = coord_of
        self._validated_tol = None  # the largest tol a validate() call passed at
        self._derived = {}

    def _once(self, compute, *args):
        """``compute(self, *args)``, evaluated once per graph and arguments (the graph
        is immutable); every caller gets the same object and must not mutate it."""
        key = (compute, args)
        if key not in self._derived:
            self._derived[key] = compute(self, *args)
        return self._derived[key]

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.edges)

    def coord(self, vid: int):
        return self._coord[vid]

    def ids(self):
        return [vid for vid, _ in self.vertices]

    @property
    def lattice_mode(self) -> bool:
        """True when every vertex is a lattice coordinate on a single frame."""
        return self._once(_lattice) is not None

    def position(self, vid: int) -> tuple[float, float]:
        return self.positions()[vid]

    def positions(self) -> dict:
        return self._once(_positions)

    def adjacency(self) -> dict:
        return self._once(_adjacency)

    @property
    def validated(self) -> bool:
        return self._validated_tol is not None

    # -- validation ----------------------------------------------------------

    def validate(self, tol: float = DEFAULT_TOL, penny_mode: bool = False) -> ValidationReport:
        """Check unit lengths, non-crossing, vertex/edge separation, and (optionally)
        the penny condition that all pairwise vertex distances are at least 1.

        Violations are data, not errors; the report lists all of them.
        One report is computed per (tol, penny_mode).  ``tol`` must be a finite
        number >= 0 (ValueError otherwise).
        """
        _check_tol(tol)
        report = self._once(_validation_report, tol, penny_mode)
        if report.ok:
            self._validated_tol = max(tol, self._validated_tol or 0.0)
        return report

    def require_validated(self) -> float:
        """The largest tol a validate() call passed at; ValueError when none did."""
        if self._validated_tol is None:
            raise ValueError("graph has not passed validate()")
        return self._validated_tol

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: frames by id, vertices and edges in stored order;
        floats with 17 significant digits (bit-exact round-trip)."""
        parts = ['{"frames":[']
        parts.append(",".join(
            '{"id":%d,"origin":[%s,%s],"angle":%s}'
            % (i, _f(fr.origin[0]), _f(fr.origin[1]), _f(fr.angle))
            for i, fr in enumerate(self.frames)))
        parts.append('],"vertices":[')
        vparts = []
        for vid, c in self.vertices:
            if isinstance(c, LatticeCoord):
                vparts.append('{"id":%d,"lattice":{"frame":%d,"m":%d,"n":%d}}'
                              % (vid, c.frame, c.point.m, c.point.n))
            else:
                vparts.append('{"id":%d,"free":[%s,%s]}' % (vid, _f(c.x), _f(c.y)))
        parts.append(",".join(vparts))
        parts.append('],"edges":[')
        parts.append(",".join("[%d,%d]" % ab for ab in self.edges))
        parts.append("]}")
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "MatchstickGraph":
        """Parse the JSON of :meth:`to_json`.  A document of the wrong shape
        raises ValueError naming the offending field.  Lattice vertices with
        int fields and free vertices with float coordinates are checked
        inline; any other vertex goes through the field helpers, which name
        its fault."""
        data = _loads(text)
        if not isinstance(data, dict):
            raise ValueError("graph document must be a JSON object")
        frame_docs = _list(data.get("frames", []), "graph document field 'frames'")
        frames = [None] * len(frame_docs)
        for fr in frame_docs:
            fid = _field(fr, "id", "frame")
            if type(fid) is not int or not 0 <= fid < len(frames):
                raise ValueError(f"frame id {fid!r} is out of range 0..{len(frames) - 1}")
            frames[fid] = LatticeFrame(origin=_point(_field(fr, "origin", "frame"), "frame origin"),
                                       angle=_finite(_field(fr, "angle", "frame"), "frame angle"))
        if None in frames:
            raise ValueError(f"frame id {frames.index(None)} is missing")
        top = _MAX_LATTICE_COORD
        vertices = []
        for v in _list(_field(data, "vertices", "graph document"), "graph document field 'vertices'"):
            lat = v.get("lattice") if type(v) is dict else None
            if type(lat) is dict:
                vid, fid, m, n = v.get("id"), lat.get("frame"), lat.get("m"), lat.get("n")
                if (type(vid) is int and type(fid) is int and type(m) is int and type(n) is int
                        and -top <= m <= top and -top <= n <= top):
                    vertices.append((vid, _new(LatticeCoord, (fid, _new(EisensteinPoint, (m, n))))))
                    continue
            elif type(v) is dict and "lattice" not in v:
                vid, xy = v.get("id"), v.get("free")
                if type(vid) is int and type(xy) is list and len(xy) == 2:
                    x, y = xy
                    if (type(x) is float and type(y) is float
                            and -_MAX_COORD <= x <= _MAX_COORD and -_MAX_COORD <= y <= _MAX_COORD):
                        vertices.append((vid, _new(FreeCoord, xy)))
                        continue
            # a vertex the checks above reject: the helpers name the fault
            vid = _int(_field(v, "id", "vertex"), "vertex id")
            if "lattice" in v:
                where = f"vertex {vid} lattice"
                for key in ("frame", "m", "n"):
                    _int(_field(v["lattice"], key, where), f"{where} {key!r}")
                raise ValueError(f"{where} 'm' and 'n' must be at most 2**53 in magnitude")
            if "free" not in v:
                raise ValueError(f"vertex {vid} has neither 'free' nor 'lattice'")
            vertices.append((vid, _new(FreeCoord, _point(v["free"], f"vertex {vid} free"))))
        edges = _list(_field(data, "edges", "graph document"), "graph document field 'edges'")
        for e in edges:
            if type(e) is not list or len(e) != 2:
                raise ValueError(f"edge {e!r} must be a pair of vertex ids")
            if type(e[0]) is not int or type(e[1]) is not int:
                _int(e[0], "edge endpoint")
                _int(e[1], "edge endpoint")
        return cls(vertices, edges, frames)


def _loads(text: str):
    """``json.loads``, with ValueError for a document nested too deeply to parse."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply to parse") from None


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    return obj[key]


def _list(x, where: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{where} must be a list, not {type(x).__name__}")
    return x


def _int(x, where: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{where} must be an integer, not {x!r}")
    return x


def _finite(x, where: str) -> float:
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{where} must be a finite number, not {x!r}")
    return float(x)


def _point(xy, where: str) -> tuple[float, float]:
    if not isinstance(xy, (list, tuple)) or len(xy) != 2:
        raise ValueError(f"{where} must be a pair of numbers, not {xy!r}")
    x, y = _finite(xy[0], where), _finite(xy[1], where)
    if max(abs(x), abs(y)) > _MAX_COORD:
        raise ValueError(f"{where} must be at most 1e100 in magnitude, not {xy!r}")
    return x, y


def _check_tol(tol: float):
    if not 0 <= tol <= sys.float_info.max:
        raise ValueError(f"tol must be a finite number >= 0, not {tol!r}")


def _lattice(g: MatchstickGraph):
    """(frame, each vertex's EisensteinPoint) when every vertex is a lattice
    coordinate on one frame, else None; use through g._once."""
    frames_used = {c.frame if isinstance(c, LatticeCoord) else None for _, c in g.vertices}
    if len(frames_used) != 1 or None in frames_used:
        return None
    return g.frames[frames_used.pop()], {vid: c.point for vid, c in g.vertices}


def _positions(g: MatchstickGraph) -> dict:
    return {vid: (c.x, c.y) if isinstance(c, FreeCoord) else g.frames[c.frame].to_cartesian(c.point)
            for vid, c in g.vertices}


def _adjacency(g: MatchstickGraph) -> dict:
    """Each vertex's neighbours, in ascending order: from the sorted edges, the
    edges (u, v) with u < v all come before the edges (v, w)."""
    adj = {vid: [] for vid, _ in g.vertices}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _f(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite number {x!r} as JSON")
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# construction helpers


def lattice_graph(points, edges=None, frame: LatticeFrame = LatticeFrame()) -> MatchstickGraph:
    """Graph on the given EisensteinPoints; edges default to all unit pairs."""
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    if len(index) != len(points):
        raise ValueError("duplicate lattice points")
    if edges is None:
        edges = [(i, j) for (m, n), i in index.items() for dm, dn in _HALF_RING
                 if (j := index.get((m + dm, n + dn))) is not None]
    vertices = [(i, LatticeCoord(0, p)) for i, p in enumerate(points)]
    return MatchstickGraph(vertices, edges, frames=(frame,))


def free_graph(coords, edges) -> MatchstickGraph:
    """Free-mode graph on ``coords``, each checked as ``from_json`` checks one."""
    return MatchstickGraph([(i, FreeCoord(*_point(xy, f"vertex {i} free")))
                            for i, xy in enumerate(coords)], edges)


_HALF_RING = UNIT_RING[:3]  # one per unordered direction pair


# ---------------------------------------------------------------------------
# validation internals


def _candidates(g: MatchstickGraph, pos: dict, tol: float, pieces=None):
    """Grid-pruned candidates of a validation pass on the vertex positions ``pos``,
    as (vertex pairs, the graph's edges, edge index pairs, (vertex, edge index)
    hits).  Every pair of the graph's elements within ``tol`` of each other is
    one, and so is every vertex pair closer than 1.1.  Each is found once and
    filtered as it is found: none is stored to be dropped or deduplicated.

    Cells are ``cell = max(_CELL, tol + _BOX_PAD)`` wide, so two vertices within
    ``cell`` of each other are in the same or neighbouring cells; each cell is
    paired with itself and its four forward neighbours.  Every edge goes in each
    cell of its bounding box widened by w = tol + _BOX_PAD.  A vertex, in one
    cell, is kept for an edge when it is no end of it and lies in the widened
    box.  Two edges are kept when they share an end or one's widened box meets
    the other's box, and only in their reference cell, at the larger of their
    lowest cell x and of their lowest cell y, which both edges' cells hold if
    they share any.  An element within tol of a segment lies in its box widened
    by tol, so the box tests hold in every pass: in the float pass _BOX_PAD is
    slack for rounding, as for the grid, and the exact pass's frame-free boxes
    keep meeting segments overlapping (see :func:`_validate_exact_generic`).

    With ``pieces`` from :func:`_lift_pieces`, pairs that one piece holds both
    elements of are left out too: two vertices held by a common piece, two
    edges lifted by the same piece, and a vertex and an edge whose lifting
    piece holds it.
    """
    edges = g.edges
    held, edge_piece = pieces if pieces is not None else ({}, [None] * len(edges))
    w = tol + _BOX_PAD
    cell = max(_CELL, w)
    floor = math.floor
    vgrid = defaultdict(list)
    for vid, (x, y) in pos.items():
        vgrid[(floor(x / cell), floor(y / cell))].append(vid)
    vpairs = []
    for (cx, cy), vids in vgrid.items():
        row = vids + [u for c in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1))
                      for u in vgrid.get(c, ())]
        for k, a in enumerate(vids):
            ha = held.get(a)
            for b in row[k + 1:]:
                if not ha or ha.isdisjoint(held.get(b, _NONE)):
                    vpairs.append((a, b) if a < b else (b, a))
    r = w / cell  # the widening in cells; dividing first cannot overflow
    egrid = defaultdict(list)
    brute, boxes = [], []
    for idx, (a, b) in enumerate(edges):
        (ax, ay), (bx, by) = pos[a], pos[b]
        x0, x1 = (ax, bx) if ax < bx else (bx, ax)
        y0, y1 = (ay, by) if ay < by else (by, ay)
        cx0, cx1 = floor(x0 / cell - r), floor(x1 / cell + r)
        cy0, cy1 = floor(y0 / cell - r), floor(y1 / cell + r)
        boxes.append((x0, x1, y0, y1, cx0, cy0))
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > g.n + g.e:
            brute.append(idx)
            continue
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                egrid[(cx, cy)].append(idx)
    epairs, vhits = [], []

    def scan(i, others, vids, cx, cy):
        """Add edge i's kept pairs with edges ``others`` and vertices ``vids`` of cell (cx, cy)."""
        a1, b1 = edges[i]
        p0, p1, p2, p3, lx, ly = boxes[i]
        at_x, at_y, k = lx == cx, ly == cy, edge_piece[i]
        for j in others:
            if k is not None and edge_piece[j] == k:
                continue
            q0, q1, q2, q3, mx, my = boxes[j]
            if not (at_x or mx == cx) or not (at_y or my == cy):
                continue  # the pair's reference cell is another one
            a2, b2 = edges[j]
            if (a1 != a2 and a1 != b2 and b1 != a2 and b1 != b2
                    and (p1 + w < q0 or q1 + w < p0 or p3 + w < q2 or q3 + w < p2)):
                continue
            epairs.append((i, j) if i < j else (j, i))
        for v in vids:
            if v == a1 or v == b1 or (k is not None and k in held.get(v, _NONE)):
                continue
            x, y = pos[v]
            if p0 - w <= x <= p1 + w and p2 - w <= y <= p3 + w:
                vhits.append((v, i))

    for (cx, cy), members in egrid.items():  # each cell's edge indices, ascending
        vids = vgrid.get((cx, cy), ())
        for m, i in enumerate(members):
            scan(i, members[m + 1:], vids, cx, cy)
    done = set()
    for i in brute:  # against every edge not scanned against it yet, and every vertex;
        done.add(i)  # at its own lowest cell, which keeps every pair
        scan(i, [j for j in range(len(edges)) if j not in done], pos, *boxes[i][4:])
    return vpairs, edges, epairs, vhits


# the lift runs for (M + 1) * _LIFT_ROUNDING <= tol <= _LIFT_MAX_TOL, M the
# largest |coordinate|; _validation_report derives both bounds
_LIFT_ROUNDING = 2.0 ** -44
_LIFT_MAX_TOL = 0.1


def _validation_report(g: MatchstickGraph, tol: float, penny_mode: bool) -> ValidationReport:
    """The report of the one check its path names.  A lattice-mode graph with
    every edge of Eisenstein norm 1 and every vertex on its own lattice point
    is valid (the lattice's unit-distance graph is plane), which is checked in
    O(n + e) ("lattice-fast"); otherwise :func:`_validate_exact_generic` lists
    the violations ("lattice-generic").  The norm check records each edge's
    direction (:func:`_unit_steps`), as a whole lift does, for the face walk.

    For a free-mode graph within the lift's tol window, (M + 1) * 2**-44 <= tol
    <= 0.1 (M the largest |coordinate|), :func:`_lift_pieces` lifts pieces of
    the graph onto lattices.  When one piece holds every vertex with a unit step
    on every edge the graph is valid ("free-lift"); otherwise, when some piece
    lifts, :func:`_validate_float` checks only the pairs of elements that no
    single piece holds both of ("free-pieces").  With no piece it checks every
    pair ("float").

    A piece is framed on an edge (a, b): origin a, angle the direction of
    b - a.  Its vertices are within tol/4 of distinct frame points, and each of
    its edges joins two of them at Eisenstein norm 1.  So the piece is a unit
    lattice graph on distinct points with each vertex moved by some d, and the
    float pass finds nothing among its elements:

    - Rounding: ``to_cartesian`` puts a frame point within 32 * 2**-52 * (M + 1)
      of its exact image (a few roundings of numbers below 3M + 1), which is at
      most tol/8 by the bound on M; so d < tol/4 + tol/8 <= 0.0375.
    - NonUnitEdge, DuplicateVertexPosition and PennyDistance: an edge joins
      lattice neighbours, so its length is within 2d < 3 tol/4 of 1, and
      distinct lattice points are at least 1 apart, so two vertices are at
      least 1 - 2d > 1 - 3 tol/4 apart; the margin tol/4 >= 2**-46 is far above
      the rounding of a distance near 1 (a few 2**-53).
    - VertexOnEdge and Crossing: every lattice point but the two ends of a unit
      lattice edge is at least sqrt(3)/2 from it.  Each distance these checks
      compare with tol is of that kind: a vertex to an edge it is not an end
      of, or an end of one edge to another edge it is not an end of (two edges
      sharing no end are as far apart as the least of these, since unit
      lattice edges do not cross).  Moved by d, each is still above
      sqrt(3)/2 - 2d > 0.79 > tol, with rounding of order M * 2**-52 <= tol/256,
      so the moved edges do not cross either.

    The argument looks at one piece's frame points only, so it holds for a
    vertex that several pieces hold (a corner two patches share) in each of
    them, whatever its point in the others; pairs across pieces go to the
    float predicates.

    A whole lift, found at any tol in the window, also fixes the faces and
    the lattice components:

    - Faces: an edge from v to u is its slot's unit vector, at frame.angle +
      k * 60 degrees, moved by at most 2d < 0.075: its direction is within
      asin(2d) < 0.0751 rad of the slot's, and the float differences and
      ``atan2`` add at most M * 2**-52 <= tol/256.  That is far below the 30
      degrees to the midpoint of the next slot, so v's neighbours in
      counterclockwise order of direction are its occupied slots in cyclic
      order, the next-dart rule walks the lattice's faces, and the turn sums
      (+6 inner, -6 outer) find the outer face.  Both walks start each vertex
      at its smallest neighbour, so the lattice walk gives
      :func:`_free_walk`'s FaceStructure.
    - decompose: every edge is a unit step between distinct lift points, and a
      2-connected subgraph lies in one block, so g's blocks on at least 3
      vertices are its lattice components, on the lift's frame and points.
    """
    if g.lattice_mode:
        mode, below = "lattice", None
        points = g._once(_lattice)[1]
        if len(set(points.values())) == g.n and g._once(_lattice_steps) is not None:
            path, violations = "lattice-fast", []
        else:
            path, violations = "lattice-generic", _validate_exact_generic(g, penny_mode)
    else:
        ulp = g._once(_max_coord) * 2.0 ** -52
        mode, below = "free", (ulp if ulp > tol else None)
        path, pieces = _lifted(g, tol)
        violations = [] if path == "free-lift" else _validate_float(g, tol, penny_mode, pieces)
    violations.sort(key=lambda v: (v.kind, v.ids))
    return ValidationReport(ok=not violations, violations=tuple(violations), mode=mode, path=path,
                            tol_below_resolution=below)


def _unit_steps(edges, points: dict):
    """Each edge (a, b)'s step points[b] - points[a] as its ``UNIT_RING`` index,
    bytes in ``edges`` order; None when some step has Eisenstein norm other than 1."""
    get = UNIT_STEP_INDEX.get
    steps = bytearray()
    for a, b in edges:
        (ma, na), (mb, nb) = points[a], points[b]
        k = get((mb - ma, nb - na))
        if k is None:
            return None
        steps.append(k)
    return bytes(steps)


def _lattice_steps(g: MatchstickGraph):
    """``_unit_steps`` of a lattice-mode graph on its own points; use through g._once."""
    return _unit_steps(g.edges, g._once(_lattice)[1])


def _max_coord(g: MatchstickGraph) -> float:
    """The largest |coordinate| of a free graph; use through g._once."""
    return max(abs(c) for xy in g.positions().values() for c in xy)


def _lifted(g: MatchstickGraph, tol: float):
    """``_lift_pieces(g, tol)`` inside the lift's tol window, once per graph
    and tol; ("float", None) outside it."""
    if (g._once(_max_coord) + 1) * _LIFT_ROUNDING <= tol <= _LIFT_MAX_TOL:
        return g._once(_lift_pieces, tol)
    return "float", None


def _lattice_at(g: MatchstickGraph, tol: float):
    """(frame, each vertex's EisensteinPoint) of the lattice g lies on: its own
    in lattice mode, else its whole lift at ``tol`` (see _lift_pieces), or None."""
    if g.lattice_mode:
        return g._once(_lattice)
    path, lift = _lifted(g, tol)
    return lift[:2] if path == "free-lift" else None


def _lift_pieces(g: MatchstickGraph, tol: float):
    """The lattice pieces of a free graph, as (path, pieces): ("free-lift",
    (frame, points, _unit_steps(g.edges, points))) when the first piece holds
    every vertex with a unit step on every edge, ("free-pieces", (held,
    edge_piece)) when some piece exists,
    else ("float", None).  ``held`` maps a vertex to the indices of the pieces
    holding it; ``edge_piece`` gives, for each edge of ``g.edges``, a piece
    holding its ends a unit step apart (the edge is lifted), or None.

    Each edge (a, b), in ``g.edges`` order, whose length is within tol/2 of 1
    and that no piece lifts yet seeds a piece when b snaps to (1, 0) on the
    frame with origin a and angle a -> b.  An edge off by more is unlifted and
    builds no frame (so a graph with no edge near unit length takes "float"):
    at most rounding could let a piece lift it, and an unlifted edge only sends
    more pairs to the float predicates.  The piece grows by :func:`_grow` at
    slack tol/4 from the vertices no earlier piece holds; those of earlier
    pieces may join it as leaves (the corner two patches share).  So each
    vertex is grown from at most once: at most e + 2e snaps.  A piece lifting
    an edge is looked for among the pieces of the end fewer pieces hold, so a
    star's centre, which hundreds hold, costs no more.
    """
    pos = g.positions()
    adj = g.adjacency()
    slack = tol / 4
    points = []  # each piece's vertex -> EisensteinPoint
    held = {}
    edge_piece = []
    for a, b in g.edges:
        pa, pb = pos[a], pos[b]
        if abs(math.dist(pa, pb) - 1.0) > tol / 2:
            edge_piece.append(None)
            continue
        k = None
        ha, hb = held.get(a), held.get(b)
        if ha and hb:
            if len(hb) < len(ha):
                ha, hb = hb, ha
            for j in ha:  # a piece holding both ends a unit step apart
                if j in hb:
                    (ma, na), (mb, nb) = points[j][a], points[j][b]
                    if (mb - ma, nb - na) in UNIT_STEP_INDEX:
                        k = j
                        break
        if k is None:
            (ax, ay), (bx, by) = pa, pb
            frame = LatticeFrame(origin=pa, angle=math.atan2(by - ay, bx - ax))
            if frame.snap(pb, slack) == UNIT_RING[0]:
                piece = _grow(pos, adj, frame, {a: ORIGIN, b: UNIT_RING[0]}, slack, held)
                if (not points and len(piece) == g.n
                        and (steps := _unit_steps(g.edges, piece)) is not None):
                    return "free-lift", (frame, piece, steps)
                k = len(points)
                points.append(piece)
                for v in piece:
                    held.setdefault(v, set()).add(k)
        edge_piece.append(k)
    return ("free-pieces", (held, edge_piece)) if points else ("float", None)


def _grow(pos, adj, frame, seed, slack, held=_NONE):
    """The vertices reached from ``seed`` (vertex -> EisensteinPoint) by the
    snap-and-step rule, with their points: a neighbour u of a reached vertex v
    joins when ``frame.snap`` puts it within ``slack`` of an unused point one
    unit step from v's.  Vertices in ``held`` join, but nothing is reached from
    them."""
    coords = dict(seed)
    used = set(seed.values())
    queue = sorted(v for v in seed if v not in held)
    snap = frame.snap
    for v in queue:  # breadth first: the loop also visits what is appended
        mv, nv = coords[v]
        for u in adj[v]:
            if u in coords:
                continue
            p = snap(pos[u], slack)
            if p is not None and p not in used and (p[0] - mv, p[1] - nv) in UNIT_STEP_INDEX:
                coords[u] = p
                used.add(p)
                if u not in held:
                    queue.append(u)
    return coords


def _validate_exact_generic(g: MatchstickGraph, penny_mode: bool):
    """Every violation of a lattice-mode graph, from :func:`_violations` at tol
    0 on the doubled integer coordinates ``scaled()`` with exact distances.
    The grid is built on each point's frame-free ``cartesian()``, whose
    coordinates are monotone in 2m + n and n: a point on a segment stays in its
    box, and segments that meet keep overlapping boxes (a turned frame's
    positions round by ~1 near 2**53)."""

    def dist(p, q):  # the square root of the integer norm
        du, dv = q[0] - p[0], q[1] - p[1]
        return math.sqrt((du * du + 3 * dv * dv) // 4)

    def point_segment(p, a, b):  # 0 on the segment, inf off it; segment() alike
        return 0.0 if geo.on_segment(a, b, p) else math.inf

    def segment(p1, p2, q1, q2):
        return 0.0 if geo.segments_intersect(p1, p2, q1, q2) else math.inf

    sp = {vid: c.point.scaled() for vid, c in g.vertices}
    grid = {vid: c.point.cartesian() for vid, c in g.vertices}
    return _violations(g, grid, sp, 0.0, penny_mode, dist, point_segment, segment)


def _validate_float(g: MatchstickGraph, tol: float, penny_mode: bool, pieces=None):
    """Every violation of a free-mode graph, from :func:`_violations` with the
    float distances; with ``pieces`` (see :func:`_lift_pieces`), on the pairs
    and unlifted edges no single piece holds."""
    pos = g.positions()
    return _violations(g, pos, pos, tol, penny_mode, math.dist, geo.point_segment_distance,
                       geo.segment_distance, pieces)


def _violations(g: MatchstickGraph, grid: dict, pos: dict, tol: float, penny_mode: bool,
                dist, point_segment, segment, pieces=None):
    """Every violation among the candidates :func:`_candidates` finds on the
    positions ``grid``, tested with ``tol`` on the coordinates ``pos`` by the
    distances ``dist(p, q)``, ``point_segment(p, a, b)`` and
    ``segment(p1, p2, q1, q2)``; with ``pieces``, only unlifted edges are
    tested for unit length."""
    vpairs, edges, epairs, vhits = _candidates(g, grid, tol, pieces)
    out = []
    for a, b in edges if pieces is None else (e for e, k in zip(edges, pieces[1]) if k is None):
        length = dist(pos[a], pos[b])
        if abs(length - 1.0) > tol:
            out.append(Violation("NonUnitEdge", (a, b), length))
    for a, b in vpairs:
        d = dist(pos[a], pos[b])
        if d <= tol:
            out.append(Violation("DuplicateVertexPosition", (a, b), d))
        if penny_mode and d < 1.0 - tol:
            out.append(Violation("PennyDistance", (a, b), d))
    for vid, ei in vhits:
        a, b = edges[ei]
        p = pos[vid]
        d = point_segment(p, pos[a], pos[b])
        if d <= tol and dist(p, pos[a]) > tol and dist(p, pos[b]) > tol:
            out.append(Violation("VertexOnEdge", (vid, a, b), d))
    for i, j in epairs:
        a1, b1 = edges[i]
        a2, b2 = edges[j]
        shared = {a1, b1} & {a2, b2}  # two distinct edges share at most one end
        if shared:
            s = shared.pop()
            p = b1 if a1 == s else a1
            q = b2 if a2 == s else a2
            if geo.dot(pos[s], pos[p], pos[q]) <= 0:
                continue
            d = min(point_segment(pos[p], pos[s], pos[q]), point_segment(pos[q], pos[s], pos[p]))
        else:
            d = segment(pos[a1], pos[b1], pos[a2], pos[b2])
        if d <= tol:
            out.append(Violation("Crossing", (a1, b1, a2, b2), d))
    return out


# ---------------------------------------------------------------------------
# rotation system and faces


def rotation_system(g: MatchstickGraph) -> dict:
    """Each vertex's neighbours counterclockwise by edge direction from its
    smallest neighbour (() at an isolated vertex), so one plane graph has one
    rotation system at any frame angle.  On a lattice these are the occupied
    slots of :func:`_lattice_darts`; other free graphs sort them by ``atan2``.
    Requires a validated graph (equal angles would mean overlapping edges)."""
    darts = _lattice_darts(g)
    if darts is not None:
        slots, order = darts
        return {v: tuple(row[k] for k in order[v] if row[k] is not None)
                for v, row in slots.items()}
    pos = g.positions()
    rot = {}
    for vid, nbrs in g.adjacency().items():
        x, y = pos[vid]
        ccw = sorted(nbrs, key=lambda u: math.atan2(pos[u][1] - y, pos[u][0] - x))
        i = ccw.index(nbrs[0]) if nbrs else 0
        rot[vid] = tuple(ccw[i:] + ccw[:i])
    return rot


def _lattice_darts(g: MatchstickGraph):
    """(slots, order) of a validated graph on its ``_lattice_at`` the largest
    tol ``validate`` passed at, else None.  Slot k of ``slots[v]`` holds v's
    neighbour one ``UNIT_RING[k]`` step away, or None; ``order[v]`` lists the
    six slots counterclockwise from that of v's smallest neighbour, which the
    first edge naming v in sorted order joins.  Edge (a, b) along the step k
    that validation recorded (``_unit_steps``) is a's slot k and b's slot
    k + 3; no point or adjacency is read.  Built anew per call."""
    tol = g.require_validated()
    if _lattice_at(g, tol) is None:
        return None
    steps = g._once(_lattice_steps) if g.lattice_mode else _lifted(g, tol)[1][2]
    slots = {v: [None] * 6 for v, _ in g.vertices}  # in vertex order, as the walk visits them
    order = {}
    for (a, b), k in zip(g.edges, steps):
        j = (k + 3) % 6
        slots[a][k] = b
        slots[b][j] = a
        if a not in order:
            order[a] = _SLOTS_FROM[k]
        if b not in order:
            order[b] = _SLOTS_FROM[j]
    if len(order) < len(slots):  # isolated vertices start at slot 0
        order = {v: order.get(v, _SLOTS_FROM[0]) for v in slots}
    return slots, order


# the slots in counterclockwise order from each slot
_SLOTS_FROM = tuple(tuple((s + k) % 6 for k in range(6)) for s in range(6))
# slots k + 2 and k + 4 for each slot k: a unit triangle's second and third steps
_TRIANGLE_SLOTS = tuple((s[2], s[4]) for s in _SLOTS_FROM)


def faces(g: MatchstickGraph) -> FaceStructure:
    """Face cycles by the next-dart rule: at the head of dart (u, v) continue to
    the neighbor immediately clockwise of u around v.  Inner faces come out
    counterclockwise; the outer face is the unique clockwise one, the face
    whose orientation sum is negative: an integer turn sum of -6 (an inner
    face's is +6) on a lattice (lattice mode or a whole lift), else a float
    shoelace sum.  Each cycle is its lexicographically least rotation, so it
    starts at its smallest vertex; one plane graph has one FaceStructure at
    any frame angle, whichever walk runs.  A disconnected graph raises
    ValueError; connectedness is read off the walk by Euler's formula (see
    :func:`connectivity`), so this never calls ``connectivity``.  Computed
    once per graph."""
    return g._once(_faces)


def _faces(g: MatchstickGraph) -> FaceStructure:
    """The per-face rules of both walks, which only walk and pass each face
    to ``add`` as (cycle, orientation sum): the outer face is the one whose
    sum is negative.  Walks start at vertices in ascending order, and at each
    vertex in its rotation from the smallest neighbour, so a cycle starts at
    its smallest vertex and is canonical unless it passes that vertex twice,
    when it is rotated.  The walk runs first: a plane graph with edges is
    connected iff n - e + W == 2, and only when that count is off does
    ``block_decomposition`` decide, once per graph (``_blocks``)."""
    g.require_validated()
    if g.e == 0:
        if g.n > 1:
            raise ValueError("faces() requires a connected graph")
        return FaceStructure(faces=((),), outer_face_index=0)
    cycles = []
    outer = []

    def add(cycle, s):
        if cycle.count(cycle[0]) > 1:
            cycle = _canonical_rotation(cycle)
        if s < 0:
            outer.append(len(cycles))
        cycles.append(tuple(cycle))

    darts = _lattice_darts(g)
    if darts is None:
        _free_walk(g, add)
    else:
        _lattice_walk(*darts, cycles, add)
    if g.n - g.e + len(cycles) != 2 and _components(g.n, g._once(_blocks)[0]) != 1:
        raise ValueError("faces() requires a connected graph")
    if len(cycles) > 1 and len(outer) != 1:
        raise ConsistencyError(f"expected exactly one clockwise face, found {len(outer)}")
    total = sum(map(len, cycles))
    if total != 2 * g.e:
        raise ConsistencyError(f"dart count {total} != 2e = {2 * g.e}")
    return FaceStructure(faces=tuple(cycles), outer_face_index=outer[0] if len(cycles) > 1 else 0)


def _lattice_walk(slots, order, cycles, add):
    """Passes each face of a graph on a lattice to ``add`` as (cycle, turn
    sum), walked on the direction slots and rotations of :func:`_lattice_darts`.
    A dart arriving along direction k goes on in the first occupied direction
    k + d for d = 2, 1, 0, -1, -2, -3 (immediately clockwise of the way back
    first), and d is its turn in sixths of a circle: a U-turn at a leaf turns
    clockwise.  An inner face's turns sum to +6, the outer face's to -6.  A face
    whose first dart u -> v along k goes on along k + 2 to w and back along
    k + 4 to u is that unit triangle, with turns 2 + 2 + 2: it closes in one
    step, with the cycle and sum the dart-by-dart walk gives, and goes straight
    into ``cycles`` as the tuple (u, v, w) that ``add`` would append."""
    left = {v: row[:] for v, row in slots.items()}  # the darts not walked yet
    for u0, row0 in left.items():  # in vertex order
        for k0 in order[u0]:
            if (v := row0[k0]) is None:
                continue  # no edge, or the dart is on a face already walked
            k2, k4 = _TRIANGLE_SLOTS[k0]
            rv = left[v]
            if (w := rv[k2]) is not None and (rw := left[w])[k4] == u0:
                row0[k0] = rv[k2] = rw[k4] = None
                cycles.append((u0, v, w))
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


def _free_walk(g: MatchstickGraph, add):
    """Passes each face of a free graph on no lattice to ``add`` as (cycle,
    shoelace sum), walked on a next-dart map from its ``atan2`` rotation
    system.  The sums run on its positions less its first (smallest)
    vertex's, so an area does not cancel away far from the origin."""
    rot = rotation_system(g)
    pos = g.positions()
    x0, y0 = pos[g.vertices[0][0]]
    pos = {v: (x - x0, y - y0) for v, (x, y) in pos.items()}
    nxt = {}  # dart (u, v) -> the neighbour just clockwise of u around v
    for v, nbrs in rot.items():
        prev = nbrs[-1]
        for u in nbrs:
            nxt[(u, v)] = prev
            prev = u
    for u0, nbrs in rot.items():  # in vertex order
        for v0 in nbrs:
            cycle = []
            s = 0
            u, v = u0, v0
            xu, yu = pos[u0]
            while (w := nxt.pop((u, v), None)) is not None:
                cycle.append(u)
                xv, yv = pos[v]
                s += xu * yv - xv * yu
                u, v, xu, yu = v, w, xv, yv
            if cycle:  # else the dart is on a face already walked
                add(cycle, s)


def _canonical_rotation(cycle):
    """The lexicographically least rotation; it starts at the minimum vertex."""
    low = min(cycle)
    return min(tuple(cycle[i:] + cycle[:i]) for i, v in enumerate(cycle) if v == low)


def boundary(g: MatchstickGraph) -> tuple[list, int]:
    """Outer-face cycle and its length; defined for 2-connected graphs only."""
    if not connectivity(g).two_connected:
        raise ValueError("boundary requires a 2-connected graph")
    cycle = list(faces(g).outer_face)
    return cycle, len(cycle)


# ---------------------------------------------------------------------------
# connectivity / blocks


def block_decomposition(ids, adj):
    """Blocks and cut vertices of the graph given as an adjacency dict, which
    lists each vertex's neighbours in ascending order, by the vertex-stack form
    of Hopcroft and Tarjan's iterative DFS.  Blocks are sorted by smallest
    vertex, ties in discovery order; an isolated vertex is a block of its own.

    A block is the frozenset of its vertices, and holds every edge of ``adj``
    between two of them.  When the DFS returns from v to p with
    ``low[v] >= disc[p]``, p and the vertices found since v form a block; the
    parent edge only lowers ``low[v]`` to ``disc[p]``, so it is not skipped."""
    disc = {}
    low = {}
    blocks = []
    cut = set()
    for root in sorted(ids):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        found = [root]  # discovered vertices not yet in a block
        stack = [(root, iter(adj[root]))]
        root_children = 0
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    found.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    comp = [p]
                    while comp[-1] != v:
                        comp.append(found.pop())
                    blocks.append(frozenset(comp))
                    if p == root:
                        root_children += 1
                    else:
                        cut.add(p)
        if root_children > 1:
            cut.add(root)
        if not adj[root]:
            blocks.append(frozenset((root,)))
    blocks.sort(key=min)
    return tuple(blocks), frozenset(cut)


def connectivity(g: MatchstickGraph) -> ConnectivityInfo:
    """Block-cut decomposition, blocks as vertex frozensets ordered by smallest
    contained id.  Computed once per graph.

    A validated graph with min degree >= 2 (so n >= 3) is one block with no
    cut vertex when :func:`faces` returns its walks, so it is connected, and
    no walk passes a vertex twice; every other graph, and every unvalidated
    one, runs :func:`block_decomposition`.  Two facts make the walks enough.
    First, a validated drawing is plane, so each component's rotation system
    has genus 0, and Euler's formula gives n - e + W = 2C + I, with C the
    components with edges, W the face walks and I the isolated vertices: a
    graph with edges is connected iff the count is 2, which ``faces`` checks.
    Second, in a connected plane graph v is a cut vertex iff some face walk
    passes v twice; a walk of 3 darts has three distinct vertices, so only
    longer walks are checked."""
    return g._once(_connectivity)


def _blocks(g: MatchstickGraph):
    """``block_decomposition`` of g; use through g._once."""
    return block_decomposition(g.ids(), g.adjacency())


def _components(n: int, blocks) -> int:
    """The components of an n-vertex graph with these blocks: a component's
    blocks form a tree through its cut vertices, so on k vertices their sizes
    less one sum to k - 1; an isolated vertex is a one-vertex block."""
    return n - sum(len(b) - 1 for b in blocks)


def _walks_two_connected(g: MatchstickGraph) -> bool:
    """Whether the face walks of a validated g with min degree >= 2 show it
    2-connected (see :func:`connectivity`)."""
    try:
        walks = faces(g).faces
    except ValueError:  # not connected
        return False
    return all(len(c) == 3 or len(set(c)) == len(c) for c in walks)


def _connectivity(g: MatchstickGraph) -> ConnectivityInfo:
    min_degree = min(map(len, g.adjacency().values()))
    if g.validated and min_degree >= 2 and _walks_two_connected(g):
        blocks, cut = (frozenset(g.ids()),), frozenset()
    else:
        blocks, cut = g._once(_blocks)
    connected = _components(g.n, blocks) == 1
    two_connected = connected and g.n >= 3 and not cut
    return ConnectivityInfo(connected=connected,
                            two_connected=two_connected,
                            min_degree=min_degree,
                            blocks=blocks,
                            cut_vertices=cut)
