"""The benchmark's own tests, at small sizes.

The generators must give valid graphs of the shape the checks assume, and
every output check must reject a corrupted result, so no check is vacuous.
"""

import copy
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from matchstick import builders, census, components, graph, trace  # noqa: E402


def corrupt(check, good, mutate):
    """`check` accepts `good` and rejects the copy that `mutate` changes."""
    check(good)
    bad = copy.deepcopy(good)
    mutate(bad)
    with pytest.raises(CheckFailed):
        check(bad)


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("k,r", [(1, 1), (3, 1), (4, 2)])
def test_patch_chain_shape(k, r):
    g, patches = inputs.patch_chain(k, r, random.Random(k * 10 + r))
    assert g.validate().ok
    dec = components.decompose(g)
    assert dec.k == k
    assert sorted(sorted(c.vertices) for c in dec.components) == \
        sorted(sorted(p) for p in patches)
    for c in dec.components:
        assert c.n_i == 3 * r * r + 3 * r + 1
        assert c.b_i == 6 * r
    cen = census.face_census(g)
    assert cen.F == k - 1
    assert cen.f3 == checks.unit_triangles([g.position(v) for v in g.ids()]) == 6 * r * r * k


def test_segments_shape():
    m = 12
    g = inputs.segments(m, random.Random(3))
    pos = g.positions()
    long_edges = [e for e in g.edges if abs(pos[e[1]][0] - pos[e[0]][0]) > 1.05]
    assert len(long_edges) == m == g.e
    report = g.validate()
    assert [v.kind for v in report.violations] == ["NonUnitEdge"] * m
    assert {v.value for v in report.violations} == {2.0}


def test_rotated_spiral_keeps_its_census():
    flat = builders.build_extremal(40)
    g = inputs.rotated(flat, 0.3, (7.5, -2.25))
    assert g.validate().ok and not g.lattice_mode
    c = json.loads(census.face_census(g).to_json())
    checks.check_census(c, workloads.spiral_census(flat))


def test_lattice_triangles_of_hexagon_patch():
    pts = [(p.m, p.n) for p in inputs._hexagon_points(2)]
    assert checks.lattice_triangles(pts) == 24


# -- checks reject corrupted results -----------------------------------------

@pytest.fixture(scope="module")
def spiral_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    g = builders.build_extremal(30)
    wl = workloads.SpiralLattice(1, work)
    op = wl.graph_op("spiral", g, "s30", workloads.spiral_census(g))
    results = op.run()
    svg = (work / "s30.svg").read_text(encoding="utf-8")
    assert op.check(results)
    outs = [json.loads(out) for _, out, _ in results[:4]]
    return g, outs, svg


def test_stats_check(spiral_outputs):
    g, outs, _ = spiral_outputs
    want = workloads.spiral_census(g)

    def check(s):
        checks.check_stats(s, want)

    corrupt(check, outs[1], lambda s: s.update(e=s["e"] - 1))
    corrupt(check, outs[1], lambda s: s.update(f3=s["f3"] + 1, f={"3": s["f3"] + 1}))
    corrupt(check, outs[1], lambda s: s.update(b=s["b"] + 1))
    corrupt(check, outs[1], lambda s: s.update(bound=s["bound"] + 1))
    corrupt(check, outs[1], lambda s: s.update(tight=False))


def test_census_identities_check():
    good = checks.expected_census(7, 12, 6)
    corrupt(checks.check_identities, good, lambda c: c.update(F=1))
    corrupt(checks.check_identities, good, lambda c: c["f"].update({"3": 5}))
    corrupt(checks.check_identities, good, lambda c: c.update(n=8))


def test_validate_checks(spiral_outputs):
    _, outs, _ = spiral_outputs
    corrupt(checks.check_valid, outs[0], lambda r: r.update(
        ok=False, violations=[{"kind": "Crossing", "ids": [0, 1, 2, 3], "value": 0.0}]))
    segs = [(0, 1), (2, 3)]
    good = {"ok": False, "mode": "free", "violations": [
        {"kind": "NonUnitEdge", "ids": [0, 1], "value": 2.0},
        {"kind": "NonUnitEdge", "ids": [2, 3], "value": 2.0}]}

    def check(r):
        checks.check_segments_report(r, segs)

    corrupt(check, good, lambda r: r["violations"].pop())
    corrupt(check, good, lambda r: r["violations"][0].update(value=2.5))
    corrupt(check, good, lambda r: r["violations"].append(
        {"kind": "Crossing", "ids": [0, 1, 2, 3], "value": 0.0}))
    corrupt(check, good, lambda r: r["violations"][1].update(ids=[1, 2]))


def test_components_check(spiral_outputs):
    g, outs, _ = spiral_outputs
    corrupt(lambda d: checks.check_components(d, g.n), outs[2],
            lambda d: d["components"][0]["vertices"].pop())
    two = {"k": 2, "sum_n_i": 14, "components": [
        {"vertices": list(range(7)), "n_i": 7, "b_i": 6},
        {"vertices": list(range(6, 13)), "n_i": 7, "b_i": 6}]}
    sets = [set(range(7)), set(range(6, 13))]

    def check(d):
        checks.check_components(d, 13, sets)

    corrupt(check, two, lambda d: (d["components"].pop(), d.update(k=1, sum_n_i=7)))
    corrupt(check, two, lambda d: d["components"][1].update(b_i=3))
    corrupt(check, two, lambda d: d.update(sum_n_i=13))


def test_trace_and_svg_checks(spiral_outputs):
    g, outs, svg = spiral_outputs
    corrupt(checks.check_trace, outs[3], lambda t: t.update(assumption_e_exceeds_bound=True))
    b = workloads.spiral_census(g)["b"]
    checks.check_svg(svg, g.n, g.e, b)
    lines = svg.splitlines()
    missing_line = "\n".join(l for i, l in enumerate(lines)
                             if i != next(j for j, x in enumerate(lines) if "<line" in x))
    missing_circle = svg.replace('<circle', '<!-- c --><g', 1).replace(
        'fill="#222222"/>', 'fill="#222222"/></g>', 1)
    for bad in (missing_line, missing_circle, svg[:-10]):
        with pytest.raises(CheckFailed):
            checks.check_svg(bad, g.n, g.e, b)


def test_numeric_checks():
    corrupt(lambda m: checks.check_margins(*m), [{"margin": 0.5}, {"margin": 0.0}],
            lambda m: m[0].update(margin=0.0))
    corrupt(lambda m: checks.check_margins(*m), [{"margin": 0.5}, {"margin": -1e-10}],
            lambda m: m[1].update(margin=-1e-6))
    corrupt(lambda a: checks.check_rearrangement(*a), [1.0, 1.0 + 1e-12],
            lambda a: a.__setitem__(1, 1.0 + 1e-6))
    rec = {"ok": True, "trials": 10, "failures": []}
    corrupt(lambda r: checks.check_unit_pair_fuzz(r, 10), rec,
            lambda r: r.update(ok=False, failures=[{"error": 1.0}]))


def test_profile_check():
    from matchstick import oracle
    profile = [[n, e, [[p.m, p.n] for p in w.points]]
               for n, e, w in oracle.max_edges_profile(6)]

    def check(p):
        checks.check_profile(p, 6)

    corrupt(check, profile, lambda p: p[4].__setitem__(1, p[4][1] + 1))
    corrupt(check, profile, lambda p: p[5][2].pop())
    corrupt(check, profile, lambda p: p.pop())


def test_malformed_pass_rule():
    assert checks.malformed_passes(2, '{"error": "bad frame id"}\n')
    assert not checks.malformed_passes(None, "IndexError: list index out of range")
    assert not checks.malformed_passes(1, '{"error": "x"}\n')
    assert not checks.malformed_passes(2, '{"error": "x"}\n{"error": "y"}\n')
    assert not checks.malformed_passes(2, "Traceback (most recent call last):\n")


# -- tracing ----------------------------------------------------------------

def test_spans_nest_and_repeat_exactly():
    g = builders.build_extremal(60)
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        try:
            h = graph.MatchstickGraph.from_json(g.to_json())
            h.validate()
            op = rec.open("op.trace")
            trace.claim_trace(h)
            rec.close(op)
        finally:
            uninstall()
        per_op = rec.per_op_calls()
        assert [o["op"] for o in per_op] == ["op.trace"]
        counts.append(per_op[0]["calls"])
        agg = rec.self_times()
        assert agg["trace.claim_trace"][1] == 1
        assert sum(s for s, _ in agg.values()) <= max(rec.end) - min(rec.start) + 1e-9
    assert counts[0] == counts[1]
    assert counts[0][0]["call"] == "trace.claim_trace"
    assert counts[0][0]["counts"]["graph.faces"] >= 1
    # uninstall restored the originals
    assert trace.claim_trace.__module__ == "matchstick.trace"
    assert not hasattr(trace.claim_trace, "__wrapped__")
    assert not hasattr(census.faces, "__wrapped__")


# -- speed scaling ------------------------------------------------------------

def test_scaled_subtracts_handler_time_and_scales_by_mean_factor():
    assert speed.Sampler(enabled=False).scaled(1.0, 3.5) == 2.5
    s = speed.Sampler()
    for at, factor in ((0.1, 0.5), (0.2, 0.5), (0.3, 1.0), (0.4, 1.0)):
        s.at.append(at)
        s.cost.append(0.01)
        s.factor.append(factor)
    # samples at 0.1 and 0.2 inside, neighbour 0.3 borrowed: mean factor 2/3
    assert s.scaled(0.05, 0.25) == pytest.approx((0.2 - 0.02) * 2 / 3)
    # no sample inside: the neighbours on both sides give the speed
    assert s.scaled(0.32, 0.38) == pytest.approx(0.06 * 1.0)
    assert s.scaled(0.21, 0.29) == pytest.approx(0.08 * 0.75)


def test_sampler_samples_while_running_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    s = speed.Sampler()
    s.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            speed.probe()
        t1 = time.perf_counter()
    finally:
        s.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(s.at) >= 3
    assert list(s.at) == sorted(s.at)
    assert 0.0 < s.scaled(t0, t1)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "run_s", "op_p50_ms", "peak_rss_mib"]
