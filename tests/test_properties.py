"""Accepted graphs run clean: a property test over graph shapes and tolerances.

Whenever ``validate --tol T`` exits 0, ``stats``, ``decompose`` and ``trace``
at T, and ``render``, exit 0 or 1: never 3 (a theorem failed, and the
theorems hold for every valid graph), and never with a raised exception.
Every line each command writes to stdout or stderr is strict JSON, with no
``NaN`` or ``Infinity`` token.  On the same cases, with and without penny mode,
``validate`` reports what the plain pass its fast path shortcuts reports, a
free graph's report is what the reference lift and candidate generator of
``test_candidates`` give, and the blocks and components hold the edges they
should.  A graph ``validate`` lifts whole has the faces ``_free_walk`` gives it
and its blocks on the lift as components, which the reference wedge scan gives
too unless its smallest vertex is a leaf.  The tolerances reach above the
lift's window, where free graphs take the plain float pass.

The graphs are random lattice subgraphs on frames at origins up to 1e100 and
at any angle, free copies of them rotated (by any angle, or within 1e-12 of a
multiple of 60 degrees), shifted by up to 1e6 and some with a pendant leaf at
the smallest id, free copies with every vertex but two moved by up to
0.9 * tol / 4 or up to 0.9 * tol, and chains of hexagon patches each on its
own lattice.  Examples are derandomized and bounded, so the test runs the same
cases every time.
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matchstick import graph
from matchstick.builders import random_lattice_subgraph
from matchstick.cli import main
from matchstick.components import decompose
from matchstick.graph import MatchstickGraph, connectivity, faces
from matchstick.lattice import UNIT_STEP_INDEX, LatticeFrame
from test_candidates import assert_same_candidates, reference_report
from test_components import _reference_decompose, assert_blocks_on_lattice
from test_graph import dfs_connectivity
from test_validation_oracle import _with_leaf, generic_report, moved, rotated_free

TOLS = [1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.2, 0.45]
PROFILE = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _patch_chain(k: int, seed: int) -> MatchstickGraph:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs.patch_chain(k, 1, random.Random(seed))[0]


@st.composite
def cases(draw):
    """(graph, tol): a graph of one of the four shapes above and a tolerance."""
    tol = draw(st.sampled_from(TOLS))
    seed = draw(st.integers(0, 2 ** 16))
    shape = draw(st.sampled_from(["lattice", "free", "noisy", "chain"]))
    if shape == "chain":
        return _patch_chain(draw(st.integers(2, 4)), seed), tol
    g = random_lattice_subgraph(draw(st.integers(3, 30)), seed=seed,
                                require_2connected=draw(st.booleans()))
    angle = draw(st.one_of(st.floats(0.0, 2 * math.pi),
                           st.builds(lambda k, off: k * math.pi / 3 + off,
                                     st.integers(0, 6), st.floats(-1e-12, 1e-12))))
    if shape == "lattice":
        origin = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(0, 100))
        return MatchstickGraph(g.vertices, g.edges, (LatticeFrame((origin, -origin), angle),)), tol
    if draw(st.booleans()):
        g = _with_leaf(g, random.Random(seed))
    shift = draw(st.sampled_from([0.0, 1e3, 1e5, 1e6]))
    g = rotated_free(g, angle, (shift, -shift))
    if shape == "noisy":
        bound = draw(st.sampled_from([0.9 * tol / 4, 0.9 * tol]))
        g = moved(random.Random(seed), g, draw(st.floats(0.0, 1.0)) * bound)
    return g, tol


def _free_walk_faces(g: MatchstickGraph):
    """The faces of a copy of g validated only above the lift's tol window, so
    walked by ``graph._free_walk`` on its ``atan2`` rotation system."""
    h = MatchstickGraph(g.vertices, g.edges, g.frames)
    assert h.validate(tol=0.2).path == "float"
    return faces(h)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _run(argv) -> int:
    """Run the CLI; every line it writes must parse as strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    for line in (out.getvalue() + err.getvalue()).splitlines():
        json.loads(line, parse_constant=_reject_constant)
    return rc


@PROFILE
@given(cases())
def test_accepted_graphs_run_clean(tmp_path_factory, case):
    g, tol = case
    tmp = tmp_path_factory.mktemp("case")
    path = str(tmp / "g.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(g.to_json())
    if _run(["validate", path, "--tol", repr(tol)]) != 0:
        return
    for cmd in ("stats", "decompose", "trace"):
        assert _run([cmd, path, "--tol", repr(tol)]) in (0, 1), cmd
    svg = tmp / "g.svg"
    assert _run(["render", path, "-o", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").rstrip().endswith("</svg>")


@PROFILE
@given(cases(), st.booleans())
def test_fast_paths_give_the_plain_answers(case, penny):
    """``validate`` reports what the pass its path shortcuts reports: the
    generic exact pass in lattice mode, the plain float pass in free mode.  A
    free graph's report and path are also the reference pipeline's, and its
    candidates the reference generator's, so the float pass is not checked
    against itself alone (most graphs are valid, so reports seldom show a lost
    candidate).  When the graph is valid, its connectivity is what the DFS
    alone gives (the walk decides it on a 2-connected graph), every edge lies
    in exactly one block, and each component's edges are the graph's edges between its vertices that
    are unit steps of its coordinates.  When it lifts whole, the walk on the
    lift gives what ``_free_walk`` gives, the components are the blocks on the
    lift, and when the smallest vertex has a second neighbour the wedge scan
    gives them too."""
    g, tol = case
    report = g.validate(tol=tol, penny_mode=penny)
    if g.lattice_mode:
        assert report.to_json() == generic_report(g, penny).to_json()
    else:
        plain = sorted(graph._validate_float(g, tol, penny, None), key=lambda v: (v.kind, v.ids))
        assert report.violations == tuple(plain)
        want = reference_report(g, tol, penny)
        assert (report.to_json(), report.path) == (want.to_json(), want.path)
        pieces = graph._lifted(g, tol)[1] if report.path == "free-pieces" else None
        assert_same_candidates(g, g.positions(), tol, pieces, (tol, report.path))
    if not report.ok:
        return
    assert connectivity(g) == dfs_connectivity(g)
    blocks = connectivity(g).blocks
    for a, b in g.edges:
        assert sum(a in blk and b in blk for blk in blocks) == 1, (a, b)
    for comp in decompose(g, tol).components:
        vs, points = comp.vertices, comp.coords
        assert comp.edges == {(a, b) for a, b in g.edges if a in vs and b in vs
                              and points[b] - points[a] in UNIT_STEP_INDEX}
    if report.path == "free-lift":
        assert faces(g) == _free_walk_faces(g)
        assert_blocks_on_lattice(g, tol)
        if len(g.adjacency()[min(g.ids())]) >= 2:  # a wedge seed starts on the lift's seed edge
            assert decompose(g, tol).to_json() == _reference_decompose(g, tol).to_json()


# -- documents ------------------------------------------------------------------
#
# Any document sent to any file-reading command ends in one of the documented
# exit codes, 0 ok, 1 invalid, 2 usage or 3 inconsistency, with strict JSON on
# every output line and no raised exception.  A document is a graph or polygon
# document, valid or not, with up to three parts replaced, dropped or added:
# malformed shapes, and numbers among +-1e100 and the next float past it, -0.0,
# ints past 2**53, and the NaN and Infinity tokens, which ``json.dumps`` writes
# for nan and +-inf.  A graph may also sit on a frame at origin +-1e100 or just
# past it, or gain a vertex there; a polygon may be scaled up to coordinates of
# 1e100, and its zeros written as -0.0.

_PAST_1E100 = math.nextafter(1e100, math.inf)
_EDGE_NUMBERS = [math.nan, math.inf, -math.inf, 1e100, -1e100, _PAST_1E100, -_PAST_1E100, -0.0,
                 2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 64, 10 ** 30]
_numbers = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.integers(-2, 2),
                     st.sampled_from([0.5, 1.0, math.sqrt(3) / 2]))
_junk = st.recursive(st.none() | st.booleans() | _numbers | st.text(max_size=2),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["id", "free", "lattice", "m"]), inner,
                                       max_size=2),
                     max_leaves=4)
_POLYGONS = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
             [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]],
             [[-1, -1], [1, -1], [0, 1]]]


def _parts(node, path=()):
    """The path of every part of a JSON value, the value itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _parts(child, (*path, key))


def _mutate(draw, doc: dict) -> None:
    """Put a number in place of a number in ``doc``, or replace, drop or add a
    part of it, at a drawn path."""
    action = draw(st.sampled_from(["number", "junk", "drop", "add"]))
    paths = [p for p in list(_parts(doc))[1:]
             if action != "number" or not isinstance(_at(doc, p), (dict, list))]
    if not paths:
        return
    *path, key = draw(st.sampled_from(paths))
    node = _at(doc, path)
    if action == "drop":
        del node[key]
    elif action == "add" and isinstance(node, list):
        node.insert(key, draw(_junk))
    else:
        node[key] = draw(_junk if action == "junk" else _numbers)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw) -> str:
    kind = draw(st.sampled_from(["graph", "polygon", "junk"]))
    if kind == "junk":
        return json.dumps(draw(_junk))
    if kind == "graph":
        g = random_lattice_subgraph(draw(st.integers(3, 8)), seed=draw(st.integers(0, 99)),
                                    require_2connected=draw(st.booleans()))
        free = draw(st.booleans())
        if free:
            g = rotated_free(g, draw(st.floats(0.0, 2 * math.pi)), (0.0, 0.0))
        doc = json.loads(g.to_json())
        far = draw(st.sampled_from([None, 1e100, -1e100, _PAST_1E100]))
        if far and free:
            doc["vertices"].append({"id": g.n, "free": [far, -far]})
        elif far:
            doc["frames"][0]["origin"] = [far, -far]
    else:
        scale = draw(st.sampled_from([1.0, 1e99, 1e100 / 3]))
        zero = draw(st.sampled_from([0, -0.0]))
        doc = {"vertices": [[scale * x if x else zero, scale * y if y else zero]
                            for x, y in draw(st.sampled_from(_POLYGONS))]}
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 1:  # one in ten is cut short: not JSON at all
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _file_commands(path: str, svg: str) -> list:
    """Every command that reads a file, on ``path``."""
    return [["validate", path], ["stats", path], ["decompose", path], ["trace", path],
            ["render", path, "-o", svg], ["iso", "classic", path], ["iso", "hex", path],
            ["oracle", "rearrange", path]]


@PROFILE
@given(documents())
def test_every_document_ends_in_a_documented_exit_code(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("doc")
    path = tmp / "doc.json"
    path.write_text(text, encoding="utf-8")
    for argv in _file_commands(str(path), str(tmp / "g.svg")):
        assert _run(argv) in (0, 1, 2, 3), argv
