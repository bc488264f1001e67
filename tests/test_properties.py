"""Accepted graphs run clean: a property test over graph shapes and tolerances.

Whenever ``validate --tol T`` exits 0, ``stats``, ``decompose`` and ``trace``
at T, and ``render``, exit 0 or 1: never 3 (a theorem failed, and the
theorems hold for every valid graph), and never with a raised exception.
Every line each command writes to stdout or stderr is strict JSON, with no
``NaN`` or ``Infinity`` token.

The graphs are random lattice subgraphs on frames at origins up to 1e100 and
at any angle, free copies of them rotated and shifted, free copies with every
vertex but two moved by up to 0.9 * tol / 4 or up to 0.9 * tol, and chains of
hexagon patches each on its own lattice.  Examples are derandomized and
bounded, so the test runs the same cases every time.
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

from matchstick.builders import random_lattice_subgraph
from matchstick.cli import main
from matchstick.graph import MatchstickGraph
from matchstick.lattice import LatticeFrame
from test_validation_oracle import moved, rotated_free

TOLS = [1e-9, 1e-6, 1e-3, 0.05, 0.1]
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
    angle = draw(st.floats(0.0, 2 * math.pi))
    if shape == "lattice":
        origin = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(0, 100))
        return MatchstickGraph(g.vertices, g.edges, (LatticeFrame((origin, -origin), angle),)), tol
    shift = draw(st.sampled_from([0.0, 1e3, 1e6]))
    g = rotated_free(g, angle, (shift, -shift))
    if shape == "noisy":
        bound = draw(st.sampled_from([0.9 * tol / 4, 0.9 * tol]))
        g = moved(random.Random(seed), g, draw(st.floats(0.0, 1.0)) * bound)
    return g, tol


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
