"""The three benchmark workloads.

A workload builds one round of operations at a time.  Building (set-up) and
running are timed apart; each operation's ``run`` makes only program calls and
returns their raw outputs, and its ``check`` verifies them afterwards, outside
the timed phase.  Every round has the same operations in kind and number,
whatever the seed, and no input is analysed twice in one run.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
from matchstick import builders, census, cli, components, isoperimetry, oracle, trace

HERE = Path(__file__).resolve().parent

CLI_COMMANDS = ("validate", "stats", "decompose", "trace", "render")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]  # False: the operation failed; CheckFailed: wrong output


def run_cli(argv) -> tuple[int, str, str]:
    """`matchstick <argv>` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_cli_stdin(argv, text: str) -> tuple[int, str, str]:
    """`matchstick <argv>` with `text` as standard input."""
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_cli(argv)
    finally:
        sys.stdin = saved


def _ladder(rng: random.Random, ladder) -> list[int]:
    """Seeded base sizes, each at most 1/64 above its ladder step.  Round r uses
    base + r: a new graph every round at a cost that differs by a vertex, so
    round times vary with the machine and not with the inputs."""
    return [base + rng.randrange(1 + base // 64) for base in ladder]


class Workload:
    name = ""
    LADDER: tuple = ()  # graph sizes of one round, for the large-graph workloads

    def __init__(self, seed: int, work: Path, traced: bool = False):
        self.seed = seed
        self.work = work
        self.traced = traced
        self.child_spans: list = []  # span aggregates from child processes
        self.sizes = _ladder(random.Random(f"{self.name}/{seed}"), self.LADDER)

    def round_rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def setup(self, r: int) -> list[Op]:
        raise NotImplementedError

    # -- operations shared by the two large-graph workloads ---------------

    def _write(self, g, label: str) -> Path:
        path = self.work / f"{label}.json"
        path.write_text(g.to_json(), encoding="utf-8")
        return path

    def graph_op(self, kind: str, g, label: str, expected: dict, vertex_sets=None) -> Op:
        """The five CLI analysis commands on one graph file."""
        path = self._write(g, label)
        svg = self.work / f"{label}.svg"
        argvs = [[c, str(path)] for c in CLI_COMMANDS]
        argvs[-1] += ["-o", str(svg)]
        n, e = g.n, g.e

        def run():
            return [run_cli(argv) for argv in argvs]

        def check(results):
            for (rc, _, err), argv in zip(results, argvs):
                checks.expect(rc == 0 and err == "", f"{argv[0]} exited {rc}: {err}")
            outs = [json.loads(out) if out else None for _, out, _ in results]
            checks.check_valid(outs[0])
            checks.check_stats(outs[1], expected)
            checks.check_components(outs[2], n, vertex_sets)
            checks.check_trace(outs[3])
            checks.check_svg(svg.read_text(encoding="utf-8"), n, e, expected["b"])
            path.unlink()
            svg.unlink()
            return True

        return Op(kind, run, check)


def lattice_points(g) -> list[tuple[int, int]]:
    return [(g.coord(v).point.m, g.coord(v).point.n) for v in g.ids()]


def spiral_census(g) -> dict:
    """Census of a spiral from its lattice point set alone: it meets the edge
    bound, and every inner face of a hole-free induced lattice graph is a unit
    triangle."""
    return checks.expected_census(g.n, checks.edge_bound(g.n),
                                  checks.lattice_triangles(lattice_points(g)))


class SpiralLattice(Workload):
    """Spiral extremal lattice graphs through the five CLI commands."""

    name = "spiral-lattice"
    LADDER = (128, 362, 1024)

    def setup(self, r):
        ops = []
        for base in self.sizes:
            n = base + r
            g = builders.build_extremal(n)
            ops.append(self.graph_op("spiral", g, f"spiral-{n}", spiral_census(g)))
        return ops


class FreeFloat(Workload):
    """Rotated spirals, a chain of rotated hexagon patches, and long segments,
    all as free-float coordinates."""

    name = "free-float"
    LADDER = (48, 136, 384)
    CHAIN = (64, 1)  # patches, radius
    SEGMENTS = 300

    def setup(self, r):
        rng = self.round_rng(r)
        ops = []
        for base in self.sizes:
            n = base + r
            angle = rng.uniform(0.1, math.pi / 3 - 0.1)
            shift = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
            flat = builders.build_extremal(n)
            g = inputs.rotated(flat, angle, shift)
            ops.append(self.graph_op("rotated", g, f"rotated-{n}", spiral_census(flat)))
        k, rad = self.CHAIN
        g, patches = inputs.patch_chain(k, rad, rng)
        per_patch = 3 * rad * rad + 3 * rad + 1
        expected = checks.expected_census(
            k * per_patch, k * (9 * rad * rad + 3 * rad) + 2 * (k - 1),
            checks.unit_triangles([g.position(v) for v in g.ids()]), k - 1)
        ops.append(self.graph_op("chain", g, "chain", expected, patches))
        ops.append(self._segments_op(inputs.segments(self.SEGMENTS, rng)))
        return ops

    def _segments_op(self, g) -> Op:
        path = self._write(g, "segments")
        segment_ids = list(g.edges)

        def run():
            return run_cli(["validate", str(path)])

        def check(result):
            rc, out, err = result
            checks.expect(rc == 1 and err == "", f"validate exited {rc}: {err}")
            checks.check_segments_report(json.loads(out), segment_ids)
            path.unlink()
            return True

        return Op("segments", run, check)


class FuzzCorpus(Workload):
    """Thousands of small seeded items through the library layers directly."""

    name = "fuzz-corpus"
    # Every round has the same sizes; the seed and round pick the shapes.
    # 2-connected growth succeeds in at least 1 of 9 tries up to n = 30, so
    # the builder's 200 retries never run out.
    LATTICE_SIZES = tuple(3 + i * 58 // 150 for i in range(150))  # 3..60
    TWO_CONNECTED_SIZES = tuple(6 + i * 25 // 50 for i in range(50))  # 6..30
    POLYGONS_PER_SIZE = 6  # for each vertex count 3..12
    FUZZ_OPS, FUZZ_TRIALS = 4, 2500
    PROFILE_N = 10

    def setup(self, r):
        rng = self.round_rng(r)
        ops = [self._profile_op()]
        for n in self.LATTICE_SIZES:
            ops.append(self._lattice_op(n, rng.getrandbits(32), False))
        for n in self.TWO_CONNECTED_SIZES:
            ops.append(self._lattice_op(n, rng.getrandbits(32), True))
        for m in range(3, 13):
            for _ in range(self.POLYGONS_PER_SIZE):
                p = isoperimetry.random_simple_polygon(rng, m, m)
                ops.append(self._polygon_op(p, rng.uniform(0.0, math.pi)))
        for _ in range(self.FUZZ_OPS):
            ops.append(self._fuzz_op(rng.getrandbits(32)))
        for label, doc in inputs.MALFORMED.items():
            ops.append(self._malformed_op(label, doc))
        return ops

    @staticmethod
    def _lattice_op(n: int, seed: int, two_connected: bool) -> Op:
        def run():
            g = builders.random_lattice_subgraph(n, seed=seed,
                                                 require_2connected=two_connected)
            bound = census.check_harborth(g)
            try:
                cen = census.face_census(g)
            except ValueError:  # not 2-connected: no census, no boundary
                cen = None
            dec = components.decompose(g)
            tr = trace.claim_trace(g)
            audit = isoperimetry.graph_isoperimetric_audit(g, dec) if cen else None
            return g, bound, cen, dec, tr, audit

        def check(result):
            g, bound, cen, dec, tr, audit = result
            checks.expect(g.n == n, f"built {g.n} vertices, asked for {n}")
            limit = checks.edge_bound(n)
            checks.expect(bound.bound == limit and g.e <= limit,
                          f"e = {g.e}, bound {bound.bound}, closed form {limit}")
            checks.expect(cen is not None or not two_connected,
                          "2-connected graph has no face census")
            if cen is not None:
                c = json.loads(cen.to_json())
                f3 = checks.lattice_triangles(lattice_points(g))
                checks.check_census(c, {"n": n, "e": g.e, "f3": f3})
                if c["F"] == 0:
                    checks.expect(c["b"] == 2 * g.e - 3 * f3, "b != 2e - 3 f3 with F = 0")
                checks.check_margins(audit["classic"], audit["hexagonal"])
            checks.check_component_bounds(dec.components)
            checks.check_trace(json.loads(tr.to_json()))
            return True

        return Op("lattice", run, check)

    @staticmethod
    def _polygon_op(p, theta0: float) -> Op:
        small = len(p.vertices) <= oracle.MAX_ORACLE_EDGES

        def run():
            classic = isoperimetry.check_classic(p)
            hexagonal = isoperimetry.check_hexagonal(p, isoperimetry.DirectionSet(theta0))
            if not small:
                return classic, hexagonal, None, None
            return (classic, hexagonal, oracle.max_area_rearrangement(p),
                    isoperimetry.convexify_rearrangement(p).area)

        def check(result):
            classic, hexagonal, oracle_area, convex_area = result
            checks.check_margins(classic, hexagonal)
            if small:
                checks.check_rearrangement(oracle_area, convex_area)
            return True

        return Op("polygon", run, check)

    def _fuzz_op(self, seed: int) -> Op:
        trials = self.FUZZ_TRIALS

        def run():
            return oracle.unit_pair_fuzz(trials, seed=seed)

        def check(rec):
            checks.check_unit_pair_fuzz(rec, trials)
            return True

        return Op("unit-pair-fuzz", run, check)

    def _profile_op(self) -> Op:
        """One exhaustive max_edges_profile in a fresh interpreter, so no
        cache from an earlier round can serve it."""
        n_max = self.PROFILE_N
        argv = [sys.executable, str(HERE / "oracle_child.py"), str(n_max),
                "1" if self.traced else "0"]

        def run():
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def check(result):
            rc, out, err = result
            checks.expect(rc == 0, f"oracle child exited {rc}: {err[-500:]}")
            doc = json.loads(out)
            checks.check_profile(doc["profile"], n_max)
            self.child_spans.append(doc["spans"])
            return True

        return Op("max-edges-profile", run, check)

    @staticmethod
    def _malformed_op(label: str, doc: str) -> Op:
        def run():
            try:
                return run_cli_stdin(["stats", "-"], doc)
            except Exception as exc:  # counted as a failed operation, the run goes on
                return None, "", f"{type(exc).__name__}: {exc}"

        def check(result):
            rc, _, err = result
            return checks.malformed_passes(rc, err)

        return Op(f"malformed:{label}", run, check)


WORKLOADS = {w.name: w for w in (SpiralLattice, FreeFloat, FuzzCorpus)}
