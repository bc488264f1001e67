"""Output checks, computed apart from the program.

Every expected value here comes from the benchmark's own arithmetic (integer
square roots, triangle counts over point sets, the generators' closed forms)
or from a property the method must have; nothing is compared against a stored
copy of an earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

SVG_NS = "{http://www.w3.org/2000/svg}"
UNIT_TOL = 1e-6


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def edge_bound(n: int) -> int:
    """floor(3n - sqrt(12n - 3)) = 3n - ceil(sqrt(12n - 3)), in integers."""
    x = 12 * n - 3
    r = math.isqrt(x)
    return 3 * n - (r if r * r == x else r + 1)


def lattice_triangles(points) -> int:
    """Unit triangles whose three corners are all in a set of (m, n) lattice points."""
    s = set(points)
    return sum(((m + 1, n) in s and (m, n + 1) in s) + ((m + 1, n) in s and (m + 1, n - 1) in s)
               for m, n in s)


def unit_triangles(coords) -> int:
    """Triples of points at mutual distance 1 (within UNIT_TOL) in a plane point set."""
    grid: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(coords):
        grid.setdefault((math.floor(x), math.floor(y)), []).append(i)
    nbrs: list[set] = [set() for _ in coords]
    for i, (x, y) in enumerate(coords):
        cx, cy = math.floor(x), math.floor(y)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in grid.get((cx + dx, cy + dy), ()):
                    if j > i and abs(math.dist(coords[i], coords[j]) - 1.0) <= UNIT_TOL:
                        nbrs[i].add(j)
                        nbrs[j].add(i)
    return sum(1 for i in range(len(coords)) for j in nbrs[i] if j > i
               for k in nbrs[i] & nbrs[j] if k > j)


def expected_census(n: int, e: int, f3: int, f4: int = 0) -> dict:
    """Census of a 2-connected graph whose inner faces are f3 triangles and
    f4 quadrilaterals: b by double counting, F by its definition."""
    f = {"3": f3}
    if f4:
        f["4"] = f4
    return {"n": n, "e": e, "b": 2 * e - 3 * f3 - 4 * f4, "f": f, "F": f4, "f3": f3}


def check_identities(c: dict) -> None:
    """The three census identities on a printed census."""
    f = {int(k): v for k, v in c["f"].items()}
    inner = sum(f.values())
    weighted = sum(i * v for i, v in f.items())
    F = sum((i - 3) * v for i, v in f.items() if i >= 4)
    expect(c["n"] - c["e"] + inner == 1, f"Euler identity fails: {c}")
    expect(2 * c["e"] == c["b"] + weighted, f"edge-face double count fails: {c}")
    expect(c["F"] == F and c["e"] == 3 * c["n"] - 3 - c["b"] - c["F"],
           f"e = 3n - 3 - b - F fails: {c}")
    expect(c.get("f3", f.get(3, 0)) == f.get(3, 0), f"f3 disagrees with f: {c}")


def check_census(c: dict, expected: dict) -> None:
    check_identities(c)
    for key, value in expected.items():
        expect(c[key] == value, f"census {key} = {c[key]}, expected {value}")


def check_stats(stats: dict, expected: dict) -> None:
    """`matchstick stats` output: census plus the edge-bound verdict."""
    check_census(stats, expected)
    bound = edge_bound(stats["n"])
    expect(stats["bound"] == bound, f"bound {stats['bound']} != {bound}")
    expect(stats["e"] <= bound, f"e = {stats['e']} exceeds the bound {bound}")
    expect(stats["tight"] == (stats["e"] == bound), "tight flag disagrees with e and bound")


def check_valid(report: dict) -> None:
    expect(report["ok"] is True and report["violations"] == [],
           f"valid graph reported invalid: {report['violations'][:3]}")


def check_segments_report(report: dict, segment_ids) -> None:
    """Exactly one NonUnitEdge of value 2 per segment, and nothing else."""
    expect(report["ok"] is False, "segment graph reported valid")
    want = {tuple(sorted(s)) for s in segment_ids}
    got = report["violations"]
    expect(len(got) == len(want), f"{len(got)} violations for {len(want)} segments")
    for v in got:
        expect(v["kind"] == "NonUnitEdge", f"unexpected violation {v}")
        expect(abs(v["value"] - 2.0) <= 1e-9, f"segment length {v['value']} != 2")
    expect({tuple(sorted(v["ids"])) for v in got} == want, "violations do not match the segments")


def check_components(dec: dict, n: int, vertex_sets=None) -> None:
    """`decompose` output: every component obeys (b_i + 3)^2 >= 12 n_i - 3;
    the components are exactly `vertex_sets` (default: one of size n)."""
    comps = dec["components"]
    expect(dec["k"] == len(comps), "k disagrees with the component list")
    for c in comps:
        expect(len(c["vertices"]) == c["n_i"], f"n_i {c['n_i']} != |vertices|")
        expect((c["b_i"] + 3) ** 2 >= 12 * c["n_i"] - 3,
               f"component boundary bound fails: b_i={c['b_i']}, n_i={c['n_i']}")
    got = sorted(sorted(c["vertices"]) for c in comps)
    if vertex_sets is None:
        expect(len(comps) == 1 and comps[0]["n_i"] == n,
               f"expected one component of size {n}, got {[c['n_i'] for c in comps]}")
    else:
        expect(got == sorted(sorted(s) for s in vertex_sets),
               f"components {[len(s) for s in got]} differ from the expected vertex sets")
    expect(dec["sum_n_i"] == sum(c["n_i"] for c in comps), "sum_n_i disagrees")


def check_component_bounds(components) -> None:
    """(b_i + 3)^2 >= 12 n_i - 3 on library LatticeComponent objects."""
    for c in components:
        expect((c.b_i + 3) ** 2 >= 12 * c.n_i - 3,
               f"component boundary bound fails: b_i={c.b_i}, n_i={c.n_i}")


def check_trace(tr: dict) -> None:
    expect(tr["assumption_e_exceeds_bound"] is False,
           "trace reports the counterexample assumption as true")


def check_svg(svg: str, n: int, e: int, b: int) -> None:
    """Parses as XML, with one line per edge plus one per boundary edge and
    one circle per vertex."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    lines = len(root.findall(f"{SVG_NS}line"))
    circles = len(root.findall(f"{SVG_NS}circle"))
    expect(lines == e + b, f"SVG has {lines} lines, expected e + b = {e + b}")
    expect(circles == n, f"SVG has {circles} circles, expected n = {n}")


def check_margins(classic: dict, hexagonal: dict) -> None:
    expect(classic["margin"] > 0.0, f"classic margin {classic['margin']} <= 0")
    expect(hexagonal["margin"] >= -1e-9, f"hexagonal margin {hexagonal['margin']} < -1e-9")


def check_rearrangement(oracle_area: float, convex_area: float) -> None:
    expect(abs(oracle_area - convex_area) <= 1e-9,
           f"rearrangement oracle {oracle_area} != convex rearrangement {convex_area}")


def check_profile(profile, n_max: int) -> None:
    """Exhaustive max-edge profile: max_e meets the closed form for every n,
    and each witness has n points spanning max_e unit lattice edges."""
    expect([row[0] for row in profile] == list(range(1, n_max + 1)),
           "profile does not cover 1..n_max")
    for n, max_e, witness in profile:
        expect(max_e == edge_bound(n), f"max_e({n}) = {max_e}, closed form {edge_bound(n)}")
        pts = {tuple(p) for p in witness}
        expect(len(pts) == n, f"witness for n={n} has {len(pts)} points")
        unit = sum((m + dm, k + dk) in pts for m, k in pts
                   for dm, dk in ((1, 0), (0, 1), (-1, 1)))
        expect(unit == max_e, f"witness for n={n} spans {unit} unit edges, not {max_e}")


def check_unit_pair_fuzz(rec: dict, trials: int) -> None:
    expect(rec["ok"] is True and rec["failures"] == [] and rec["trials"] == trials,
           f"unit-pair fuzz failed: {rec['failures'][:2]}")


def malformed_passes(rc, stderr: str) -> bool:
    """A malformed document passes when the CLI exits 2 with one JSON line on stderr."""
    lines = stderr.splitlines()
    if rc != 2 or len(lines) != 1:
        return False
    try:
        json.loads(lines[0])
    except ValueError:
        return False
    return True
