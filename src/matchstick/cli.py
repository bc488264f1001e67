"""Command-line interface.

Output is JSON-lines (one JSON document per line) except for `render`, which
writes an SVG file.  `-` means stdin for file arguments.  Exit codes:
0 success, 1 validation failure, 2 usage error, 3 internal-consistency error
(a theorem-level invariant failed, which should never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .builders import build_extremal, build_hexagon_patch, random_lattice_subgraph
from .census import check_harborth, face_census
from .components import decompose
from .graph import DEFAULT_TOL, ConsistencyError, MatchstickGraph, _field, _finite, _list, _loads
from .isoperimetry import DirectionSet, check_classic, check_hexagonal, polygon
from .lattice import harborth_bound
from .oracle import max_area_rearrangement, max_edges_lattice
from .render import render_svg
from .trace import claim_trace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> MatchstickGraph:
    return MatchstickGraph.from_json(_read(path))


def _load_polygon(path: str):
    """The polygon of a ``{"vertices": [[x, y], ...]}`` document; a document of
    the wrong shape raises ValueError naming the offending field."""
    return polygon(_list(_field(_loads(_read(path)), "vertices", "polygon document"),
                         "polygon document field 'vertices'"))


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False) if not isinstance(obj, str) else obj)


def cmd_validate(args) -> int:
    g = _load_graph(args.file)
    report = g.validate(tol=args.tol, penny_mode=args.penny)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_INVALID


def _analyse(args, analysis) -> int:
    """Emit ``analysis(g)`` for the graph in ``args.file``, or exit EXIT_INVALID after
    emitting the validation report or the error of an analysis that does not apply."""
    g = _load_graph(args.file)
    report = g.validate(tol=args.tol)
    if not report.ok:
        _emit(report.to_json())
        return EXIT_INVALID
    try:
        result = analysis(g)
    except ValueError as exc:
        _emit({"error": str(exc)})
        return EXIT_INVALID
    _emit(result)
    return EXIT_OK


def _stats(g: MatchstickGraph) -> dict:
    # the census fields, then the bound fields; "e" is in both and equal
    return {**json.loads(face_census(g).to_json()), **json.loads(check_harborth(g).to_json())}


def cmd_stats(args) -> int:
    return _analyse(args, _stats)


def cmd_bound(args) -> int:
    print(harborth_bound(args.n))
    return EXIT_OK


def cmd_build(args) -> int:
    if args.kind == "extremal":
        g = build_extremal(args.size)
    elif args.kind == "hexagon":
        g = build_hexagon_patch(args.size)
    else:
        g = random_lattice_subgraph(args.size, seed=args.seed,
                                    require_2connected=args.two_connected)
    _emit(g.to_json())
    return EXIT_OK


def cmd_decompose(args) -> int:
    return _analyse(args, lambda g: decompose(g, tol=args.tol).to_json())


def cmd_iso(args) -> int:
    p = _load_polygon(args.file)
    if args.variant == "classic":
        _emit(check_classic(p))
    else:
        _emit(check_hexagonal(p, DirectionSet(theta0=_finite(args.theta0, "--theta0"))))
    return EXIT_OK


def cmd_trace(args) -> int:
    return _analyse(args, lambda g: claim_trace(g, args.tol).to_json())


def cmd_oracle(args) -> int:
    if args.mode == "max-edges":
        max_e, witness = max_edges_lattice(args.n)
        _emit({"n": args.n, "max_e": max_e, "bound": harborth_bound(args.n),
               "witness_points": [[p.m, p.n] for p in witness.points]})
    else:
        p = _load_polygon(args.file)
        _emit({"max_area": max_area_rearrangement(p), "original_area": p.area})
    return EXIT_OK


def cmd_render(args) -> int:
    g = _load_graph(args.file)
    svg = render_svg(g, decompose(g) if g.validate().ok else None)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one
    in the process, so it must not be mutated.  It holds no command functions:
    :func:`main` looks ``cmd_<command>`` up when it is called."""
    ap = argparse.ArgumentParser(prog="matchstick",
                                 description="Matchstick-graph toolbox")
    sub = ap.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)  # the options of a graph-reading command
    graph.add_argument("file")
    graph.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("validate", parents=[graph], help="geometric validation report")
    p.add_argument("--penny", action="store_true")

    sub.add_parser("stats", parents=[graph], help="face census and edge-bound check")

    p = sub.add_parser("bound", help="max edges of an n-vertex matchstick graph")
    p.add_argument("n", type=int)

    p = sub.add_parser("build", help="construct lattice graphs")
    p.add_argument("kind", choices=["extremal", "hexagon", "random"])
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-connected", action="store_true")

    sub.add_parser("decompose", parents=[graph], help="lattice-component decomposition")

    p = sub.add_parser("iso", help="isoperimetric inequality checks")
    p.add_argument("variant", choices=["classic", "hex"])
    p.add_argument("file")
    p.add_argument("--theta0", type=float, default=0.0)

    sub.add_parser("trace", parents=[graph], help="diagnostic claim trace")

    p = sub.add_parser("oracle", help="brute-force oracles")
    osub = p.add_subparsers(dest="mode", required=True)
    q = osub.add_parser("max-edges")
    q.add_argument("n", type=int)
    q = osub.add_parser("rearrange")
    q.add_argument("file")

    p = sub.add_parser("render", help="emit an SVG drawing")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except ConsistencyError as exc:
        print(json.dumps({"consistency_error": str(exc)}), file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
