import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from matchstick import cli
from matchstick.builders import build_extremal, build_hexagon_patch
from matchstick.census import check_harborth, face_census
from matchstick.cli import main
from matchstick.graph import free_graph

CLI = [sys.executable, "-m", "matchstick.cli"]


def run_cli(*args, stdin=None, env=None):
    return subprocess.run(CLI + list(args), input=stdin, capture_output=True,
                          text=True, env=env)


@pytest.fixture()
def hexagon_polygon_file(tmp_path):
    pts = [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
    f = tmp_path / "hex.json"
    f.write_text(json.dumps({"vertices": pts}))
    return str(f)


class TestBound:
    def test_prints_twelve(self, capsys):
        assert main(["bound", "7"]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_domain_error_is_usage(self):
        r = run_cli("bound", "0")
        assert r.returncode == 2


class TestBuildAndStats:
    def test_pipeline(self):
        built = run_cli("build", "hexagon", "1")
        assert built.returncode == 0
        stats = run_cli("stats", "-", stdin=built.stdout)
        assert stats.returncode == 0
        data = json.loads(stats.stdout)
        assert data["e"] == 12 and data["F"] == 0 and data["b"] == 6
        assert data["tight"] is True

    def test_round_trip_matches_in_memory(self, tmp_path):
        g = build_hexagon_patch(2)
        g.validate()
        built = run_cli("build", "hexagon", "2")
        stats = json.loads(run_cli("stats", "-", stdin=built.stdout).stdout)
        census = face_census(g)
        bound = check_harborth(g)
        assert stats == {
            "n": census.n, "e": census.e, "b": census.b,
            "f": {str(k): v for k, v in census.f.items()},
            "F": census.F, "f3": census.f3,
            "bound": bound.bound, "tight": bound.tight,
        }

    def test_build_random_deterministic(self):
        a = run_cli("build", "random", "15", "--seed", "3")
        b = run_cli("build", "random", "15", "--seed", "3")
        assert a.stdout == b.stdout

    def test_build_extremal(self):
        out = run_cli("build", "extremal", "12")
        data = json.loads(out.stdout)
        assert len(data["vertices"]) == 12 and len(data["edges"]) == 24

    def test_stats_on_path_fails_cleanly(self, tmp_path):
        # a 2-edge path is valid but has no face census
        f = tmp_path / "path.json"
        f.write_text('{"frames":[{"id":0,"origin":[0,0],"angle":0}],'
                     '"vertices":[{"id":0,"lattice":{"frame":0,"m":0,"n":0}},'
                     '{"id":1,"lattice":{"frame":0,"m":1,"n":0}},'
                     '{"id":2,"lattice":{"frame":0,"m":2,"n":0}}],'
                     '"edges":[[0,1],[1,2]]}')
        r = run_cli("stats", str(f))
        assert r.returncode == 1


class TestValidate:
    def test_valid_graph_exit_zero(self):
        built = run_cli("build", "extremal", "9")
        r = run_cli("validate", "-", stdin=built.stdout)
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_invalid_graph_exit_one(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"frames":[],"vertices":[{"id":0,"free":[0,0]},'
                     '{"id":1,"free":[0.5,0]}],"edges":[[0,1]]}')
        r = run_cli("validate", str(f))
        assert r.returncode == 1
        data = json.loads(r.stdout)
        assert data["violations"][0]["kind"] == "NonUnitEdge"

    def test_penny_flag(self, tmp_path):
        f = tmp_path / "close.json"
        f.write_text('{"frames":[],"vertices":[{"id":0,"free":[0,0]},'
                     '{"id":1,"free":[0.9,0]}],"edges":[]}')
        assert run_cli("validate", str(f)).returncode == 0
        r = run_cli("validate", "--penny", str(f))
        assert r.returncode == 1


class TestDecomposeTrace:
    def test_decompose_patch(self):
        built = run_cli("build", "hexagon", "2")
        r = run_cli("decompose", "-", stdin=built.stdout)
        data = json.loads(r.stdout)
        assert data["k"] == 1 and data["b_star"] == 0
        assert data["components"][0]["n_i"] == 19

    def test_trace_extremal(self):
        built = run_cli("build", "extremal", "30")
        r = run_cli("trace", "-", stdin=built.stdout)
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["assumption_e_exceeds_bound"] is False
        assert any(c["claim"] == "boundary_upper" for c in data["claims"])

    def test_trace_decomposes_at_its_tol(self, monkeypatch, capsys):
        # the moved vertex is on the lattice at tol 1e-6 but not at the default
        lat = build_hexagon_patch(2)
        pos = lat.positions()
        last = max(lat.ids())
        coords = [(pos[v][0] + 2e-7, pos[v][1] + 2e-7) if v == last else pos[v] for v in lat.ids()]
        doc = free_graph(coords, lat.edges).to_json()
        out = []
        for command in ("decompose", "trace"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            assert main([command, "-", "--tol", "1e-6"]) == 0
            out.append(json.loads(capsys.readouterr().out))
        assert out[1]["derived"]["n_1"] == out[0]["components"][0]["n_i"] == 19

    def test_trace_without_a_lattice_component(self, monkeypatch, capsys):
        square = free_graph([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        monkeypatch.setattr("sys.stdin", io.StringIO(square.to_json()))
        assert main(["trace", "-"]) == 0
        claims = {c["claim"]: c["status"] for c in json.loads(capsys.readouterr().out)["claims"]}
        assert [claims[c] for c in ("largest_component_share", "remainder_growth",
                                    "off_component_boundary", "face_weight_refined",
                                    "gap_exceeds_nine")] == ["NotApplicable"] * 5

    @staticmethod
    def _decompose_and_trace(doc, tol, monkeypatch, capsys):
        for command in ("decompose", "trace"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            assert main([command, "-", "--tol", tol]) == 0, capsys.readouterr().err
            json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("k, r", [(2, 1), (3, 2), (4, 2), (8, 1), (8, 2), (16, 1)])
    def test_large_tol_on_a_patch_chain(self, k, r, monkeypatch, capsys):
        # at tol 0.45 a patch's growth snaps vertices of the next patch onto its
        # lattice; the edges between them are no unit steps, so no component holds them
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs
        g, _ = inputs.patch_chain(k, r, random.Random(10 * k + r))
        self._decompose_and_trace(g.to_json(), "0.45", monkeypatch, capsys)

    def test_large_tol_on_a_stretched_k4(self, monkeypatch, capsys):
        from test_components import stretched_k4
        self._decompose_and_trace(stretched_k4().to_json(), "0.3", monkeypatch, capsys)


class TestShuffledDocuments:
    """A document whose vertices and edges are shuffled, some edges written
    (b, a) and one edge repeated, gives the canonical document's outputs."""

    @staticmethod
    def _graphs():
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        import inputs
        rng = random.Random(4)
        return [(build_extremal(60), "lattice-fast"),
                (inputs.rotated(build_extremal(60), 0.5, (1.0, 2.0)), "free-lift"),
                (inputs.patch_chain(8, 1, rng)[0], "free-pieces"),
                (inputs.segments(50, rng), "float")]

    @staticmethod
    def _shuffled(doc: str, rng) -> str:
        data = json.loads(doc)
        rng.shuffle(data["vertices"])
        edges = data["edges"]
        rng.shuffle(edges)
        for e in edges[::3]:
            e.reverse()
        edges.append(edges[0][::-1])
        return json.dumps(data)

    def test_same_outputs_as_the_canonical_document(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(9)
        for g, path in self._graphs():
            assert g.validate().path == path
            canonical = g.to_json()
            shuffled = self._shuffled(canonical, rng)
            outs = []
            for doc in (canonical, shuffled):
                out = []
                for command in ("validate", "stats", "decompose", "trace"):
                    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
                    rc = main([command, "-"])
                    out.append((rc, capsys.readouterr().out))
                monkeypatch.setattr("sys.stdin", io.StringIO(doc))
                assert main(["render", "-", "-o", str(tmp_path / "g.svg")]) == 0
                out.append((tmp_path / "g.svg").read_text())
                outs.append(out)
            assert outs[0] == outs[1], path


class TestIso:
    def test_hex_equality_case(self, hexagon_polygon_file):
        r = run_cli("iso", "hex", hexagon_polygon_file)
        data = json.loads(r.stdout)
        assert data["holds"] is True
        assert abs(data["lhs"] - 36.0) <= 1e-9 and abs(data["rhs"] - 36.0) <= 1e-9

    def test_classic(self, hexagon_polygon_file):
        data = json.loads(run_cli("iso", "classic", hexagon_polygon_file).stdout)
        assert data["holds"] is True

    def test_theta0_flag(self, hexagon_polygon_file):
        r = run_cli("iso", "hex", hexagon_polygon_file, "--theta0", "0.3")
        data = json.loads(r.stdout)
        assert data["holds"] is True and data["b_star"] > 0


class TestOracleCommand:
    def test_max_edges(self):
        data = json.loads(run_cli("oracle", "max-edges", "5").stdout)
        assert data == {"n": 5, "max_e": 7, "bound": 7,
                        "witness_points": data["witness_points"]}
        assert len(data["witness_points"]) == 5

    def test_budget_exit(self):
        assert run_cli("oracle", "max-edges", "13").returncode == 2

    def test_rearrange(self, tmp_path):
        f = tmp_path / "L.json"
        f.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [2, 1],
                                              [1, 1], [1, 2], [0, 2]]}))
        data = json.loads(run_cli("oracle", "rearrange", str(f)).stdout)
        assert data["max_area"] == pytest.approx(4.0)
        assert data["original_area"] == pytest.approx(3.0)


class TestRender:
    def test_svg_written(self, tmp_path):
        built = run_cli("build", "hexagon", "1")
        out = tmp_path / "patch.svg"
        r = run_cli("render", "-", "-o", str(out), stdin=built.stdout)
        assert r.returncode == 0
        svg = out.read_text()
        assert svg.startswith("<?xml") and "<svg" in svg
        assert svg.count("<line") >= 12
        assert svg.count("<circle") == 7


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_file(self):
        assert run_cli("validate", "/nonexistent/file.json").returncode == 2

    @pytest.mark.parametrize("doc, field", [
        ('[[0, 0], [1, 0]]', "JSON object"),
        ('{"frames": [], "vertices": [{"id": 0, "free": [0, 0]}]}', "'edges'"),
        ('{"frames": [], "vertices": [{"id": 0, "free": [0, 0]}, {"id": 1}],'
         ' "edges": [[0, 1]]}', "vertex 1 has neither"),
        ('{"frames": [], "vertices": [{"id": 0, "free": [0, 0]},'
         ' {"id": 1, "free": [Infinity, 0]}], "edges": [[0, 1]]}', "vertex 1 free"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": NaN}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0, "n": 0}}], "edges": []}',
         "frame angle"),
        ('{"frames": [{"id": 3, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0, "n": 0}}], "edges": []}',
         "frame id 3"),
        ('{"frames": [{"origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0, "n": 0}}], "edges": []}',
         "frame has no field 'id'"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "n": 0}}], "edges": []}',
         "vertex 0 lattice has no field 'm'"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0}}], "edges": []}',
         "vertex 0 lattice has no field 'n'"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"m": 0, "n": 0}}], "edges": []}',
         "vertex 0 lattice has no field 'frame'"),
        ('{"frames": [], "vertices": [{"id": [0], "free": [0, 0]}], "edges": []}',
         "vertex id"),
        ('{"frames": [], "vertices": [{"id": 0, "free": [0, 0]}], "edges": [0]}',
         "edge 0 must be a pair"),
        ('{"frames": [], "vertices": [{"id": 0, "free": [0, 0]},'
         ' {"id": 1, "free": [1, 0]}], "edges": [[0, 1, 0]]}', "must be a pair"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 1e400, "n": 0}}], "edges": []}',
         "vertex 0 lattice 'm'"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0.5, "n": 0}}], "edges": []}',
         "vertex 0 lattice 'm' must be an integer"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 0, "n": true}}], "edges": []}',
         "vertex 0 lattice 'n' must be an integer"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0.0, "m": 0, "n": 0}}], "edges": []}',
         "vertex 0 lattice 'frame' must be an integer"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 0, "m": 10000000000000000000000,'
         ' "n": 0}}], "edges": []}', "at most 2**53"),
        ('{"frames": {}, "vertices": [{"id": 0, "free": [0, 0]}], "edges": []}',
         "'frames' must be a list"),
        ('{"frames": [], "vertices": [], "edges": []}', "graph needs at least one vertex"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}],'
         ' "vertices": [{"id": 0, "lattice": {"frame": 3, "m": 0, "n": 0}}], "edges": []}',
         "vertex 0 references unknown frame 3"),
        ('{"frames": [{"id": 0, "origin": [0, 0], "angle": 0}, {"id": 0, "origin": [0, 0],'
         ' "angle": 0}], "vertices": [{"id": 0, "free": [0, 0]}], "edges": []}',
         "frame id 1 is missing"),
    ], ids=["top-level-array", "missing-edges", "vertex-without-coordinate",
            "infinite-coordinate", "nan-frame-angle", "frame-id-out-of-range",
            "frame-without-id", "lattice-without-m", "lattice-without-n",
            "lattice-without-frame", "list-vertex-id", "edge-not-a-list",
            "edge-of-three", "overflowing-m", "fractional-m", "boolean-n",
            "float-frame", "huge-m", "frames-not-a-list", "no-vertices", "unknown-frame",
            "repeated-frame-id"])
    def test_malformed_graph_is_usage_error(self, doc, field, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(["stats", "-"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert field in json.loads(line)["error"]

    GRAPH_PAST_THE_BOUND = ('{"vertices": [{"id": 0, "free": [-1e308, 0]},'
                            ' {"id": 1, "free": [1e308, 0]}], "edges": [[0, 1]], "frames": []}')

    @pytest.mark.parametrize("command, doc, field", [
        (["validate", "-"], GRAPH_PAST_THE_BOUND, "vertex 0 free"),
        (["render", "-", "-o", "out.svg"], GRAPH_PAST_THE_BOUND, "vertex 0 free"),
        (["iso", "classic", "-"], '{"vertices": [[-1e308, 0], [1e308, 0], [0, 1]]}',
         "polygon vertex 0"),
    ], ids=["validate", "render", "iso-classic"])
    def test_coordinates_past_the_bound_are_usage_errors(self, command, doc, field, monkeypatch,
                                                         tmp_path, capsys):
        # their differences overflow: the report's edge length and the SVG width
        # were inf, and the isoperimetric check compared nan with inf
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(command) == 2
        out = capsys.readouterr()
        assert out.out == "" and not (tmp_path / "out.svg").exists()
        [line] = out.err.splitlines()
        assert f"{field} must be at most 1e100 in magnitude" in json.loads(line)["error"]

    @pytest.mark.parametrize("command", [["iso", "classic"], ["iso", "hex"], ["oracle", "rearrange"]],
                             ids=["iso-classic", "iso-hex", "oracle-rearrange"])
    @pytest.mark.parametrize("doc, field", [
        ('[]', "no field 'vertices'"),
        ('{}', "no field 'vertices'"),
        ('{"vertices": 5}', "'vertices' must be a list"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1, 2]]}', "polygon vertex 2"),
        ('{"vertices": [[0, 0], [1e400, 0], [0, 1]]}', "polygon vertex 1 must be a finite number"),
    ], ids=["top-level-array", "empty-object", "vertices-not-a-list", "vertex-of-three",
            "overflowing-coordinate"])
    def test_malformed_polygon_is_usage_error(self, command, doc, field, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(command + ["-"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert field in json.loads(line)["error"]

    @pytest.mark.parametrize("command", [["validate"], ["iso", "classic"]],
                             ids=["validate", "iso-classic"])
    def test_deeply_nested_document_is_usage_error(self, command, monkeypatch, capsys):
        # json.loads raises RecursionError on it, which must not end in a
        # traceback and exit 1, the code of an invalid graph
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000 + "]" * 100000))
        assert main(command + ["-"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert json.loads(line)["error"] == "JSON document is nested too deeply to parse"

    @pytest.mark.parametrize("theta0", ["nan", "inf", "-inf"])
    def test_non_finite_theta0_is_usage_error(self, theta0, hexagon_polygon_file, capsys):
        assert main(["iso", "hex", hexagon_polygon_file, f"--theta0={theta0}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert "--theta0 must be a finite number" in json.loads(line)["error"]

    @pytest.mark.parametrize("command", ["validate", "stats"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("doc", [
        '{"frames": [], "vertices": [{"id": 0, "free": [0, 0]}, {"id": 1, "free": [2, 0]}],'
        ' "edges": [[0, 1]]}',
        build_hexagon_patch(1).to_json(),
    ], ids=["free-long-edge", "lattice-hexagon"])
    def test_bad_tolerance_is_usage_error(self, command, tol, doc, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main([command, "-", f"--tol={tol}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert json.loads(line)["error"] == f"tol must be a finite number >= 0, not {float(tol)!r}"


class TestStrictJson:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_result_is_usage_error(self, bad, hexagon_polygon_file, monkeypatch,
                                              capsys):
        # no known input gives a non-finite result, so fake one at the command
        # layer to pin the contract: exit 2, one JSON error line, no stdout
        monkeypatch.setattr(cli, "check_classic", lambda p: {"lhs": bad, "rhs": 1.0})
        assert cli.main(["iso", "classic", hexagon_polygon_file]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert "JSON" in json.loads(line)["error"]


class TestConsistencyExit:
    def test_theorem_violation_maps_to_exit_three(self, monkeypatch):
        # no real input can trip a theorem invariant, so fake one at the
        # command layer to pin the exit-code contract
        from matchstick.graph import ConsistencyError

        def boom(n):
            raise ConsistencyError("synthetic")

        monkeypatch.setattr(cli, "harborth_bound", boom)
        assert cli.main(["bound", "7"]) == 3


class TestLargeTolBound:
    """A free drawing that passes only within a large tol may have more edges
    than any matchstick graph: invalid input (exit 1), not a program fault."""

    def test_stretched_k4_stats_exits_one_naming_tol(self, monkeypatch, capsys):
        from test_components import stretched_k4
        monkeypatch.setattr("sys.stdin", io.StringIO(stretched_k4().to_json()))
        assert main(["stats", "-", "--tol", "0.3"]) == 1
        out = capsys.readouterr()
        error = json.loads(out.out)["error"]
        assert "e=6 > 5" in error and "tol=0.3" in error and out.err == ""

    def test_stretched_k4_rejected_below_the_k4_tol(self, monkeypatch, capsys):
        from test_components import stretched_k4
        monkeypatch.setattr("sys.stdin", io.StringIO(stretched_k4().to_json()))
        assert main(["validate", "-", "--tol", "0.25"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {v["kind"] for v in report["violations"]} == {"NonUnitEdge"}

    def test_lattice_mode_bound_failure_still_exits_three(self, monkeypatch, capsys):
        import matchstick.census as census
        monkeypatch.setattr(census, "harborth_bound", lambda n: n)
        monkeypatch.setattr("sys.stdin", io.StringIO(build_hexagon_patch(1).to_json()))
        assert main(["stats", "-"]) == 3
        assert "validator inconsistency" in json.loads(capsys.readouterr().err)["consistency_error"]


class TestBuildTwoConnectedFlag:
    def test_flag_produces_two_connected_graph(self):
        from matchstick.graph import MatchstickGraph, connectivity
        out = run_cli("build", "random", "10", "--seed", "6", "--two-connected")
        g = MatchstickGraph.from_json(out.stdout)
        assert g.validate().ok
        assert connectivity(g).two_connected


class TestSharedParser:
    """In-process main() calls share one parser: no option of one call, and no
    usage error, carries over to the next, and main looks each command up
    when it is called."""

    def test_penny_does_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "close.json"
        f.write_text('{"frames":[],"vertices":[{"id":0,"free":[0,0]},'
                     '{"id":1,"free":[0.9,0]}],"edges":[]}')
        assert main(["validate", str(f), "--penny"]) == 1
        assert json.loads(capsys.readouterr().out)["violations"][0]["kind"] == "PennyDistance"
        assert main(["validate", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []

    def test_tol_does_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "triangle.json"
        f.write_text('{"frames":[],"vertices":[{"id":0,"free":[0,0]},{"id":1,"free":[1.2,0]},'
                     '{"id":2,"free":[0.6,0.8]}],"edges":[[0,1],[1,2],[0,2]]}')
        assert main(["stats", str(f), "--tol", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["f3"] == 1
        assert main(["stats", str(f)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"][0]["kind"] == "NonUnitEdge"

    def test_usage_error_leaves_the_next_call_as_a_fresh_process(self, tmp_path, capsys):
        f = tmp_path / "hex.json"
        f.write_text(build_hexagon_patch(2).to_json())
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        assert "usage: matchstick validate" in capsys.readouterr().err
        rc = main(["stats", str(f), "--tol", "0.1"])
        out = capsys.readouterr()
        fresh = run_cli("stats", str(f), "--tol", "0.1")
        assert (rc, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_command_patched_after_the_first_call_is_used(self, monkeypatch, capsys):
        assert main(["bound", "7"]) == 0
        seen = []

        def spy(args):
            seen.append(args.file)
            return 5

        monkeypatch.setattr(cli, "cmd_stats", spy)
        assert main(["stats", "g.json"]) == 5
        assert seen == ["g.json"] and capsys.readouterr().out == "12\n"
        assert cli.build_parser() is cli.build_parser()


class TestImportIsolation:
    @pytest.mark.parametrize("module, loaded", [
        ("matchstick", ["matchstick"]),
        ("matchstick.oracle", ["matchstick", "matchstick.geometry", "matchstick.lattice",
                               "matchstick.oracle"]),
    ])
    def test_fresh_interpreter_loads_only_what_the_module_imports(self, module, loaded):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('matchstick')))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True)
        assert r.stdout == f"{loaded}\n"

    def test_no_module_loads_dataclasses_fractions_or_typing(self):
        # -S: no site hooks, so the set is what the package itself imports
        package = Path(cli.__file__).resolve().parent
        modules = [f"matchstick.{p.stem}" for p in sorted(package.glob("*.py"))
                   if p.stem != "__init__"]
        assert "matchstick.cli" in modules
        code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); "
                f"import {', '.join(modules)}; "
                "print(sorted({'dataclasses', 'fractions', 'inspect', 'typing'}"
                " & set(sys.modules)))")
        r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           check=True)
        assert r.stdout == "[]\n"
