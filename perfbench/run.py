#!/usr/bin/env python3
"""Benchmark of the matchstick analysis path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spiral-lattice --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until --seconds have passed (at least one
round), checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with --trace 0, or the per-layer metrics of a traced run with --trace 1.  The
traced run also writes every span to .bench_out/.  The package is imported
from src/ of the same checkout, so no install step is needed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# per-layer metric -> span name whose self seconds or calls it reports, or the
# name of a count taken from the traced calls' results
PER_LAYER = {
    "cli.validate_s": "cli.cmd_validate",
    "cli.stats_s": "cli.cmd_stats",
    "cli.decompose_s": "cli.cmd_decompose",
    "cli.trace_s": "cli.cmd_trace",
    "cli.render_s": "cli.cmd_render",
    "graph.from_json_s": "graph.from_json",
    "graph.to_json_s": "graph.to_json",
    "graph.validate_s": "graph.validate",
    "graph.validate_calls": "graph.validate",
    "graph.connectivity_s": "graph.connectivity",
    "graph.connectivity_calls": "graph.connectivity",
    "graph.faces_s": "graph.faces",
    "graph.faces_calls": "graph.faces",
    "graph.rotation_system_s": "graph.rotation_system",
    "graph.block_decomposition_s": "graph.block_decomposition",
    "graph.boundary_calls": "graph.boundary",
    "graph.violations": "graph.violations",
    "census.face_census_s": "census.face_census",
    "census.face_census_calls": "census.face_census",
    "components.decompose_s": "components.decompose",
    "components.component_subgraph_s": "components.component_subgraph",
    "components.component_subgraph_calls": "components.component_subgraph",
    "components.k": "components.k",
    "trace.claim_trace_s": "trace.claim_trace",
    "render.render_svg_s": "render.render_svg",
    "render.svg_bytes": "render.svg_bytes",
    "isoperimetry.graph_audit_s": "isoperimetry.graph_isoperimetric_audit",
    "isoperimetry.check_classic_s": "isoperimetry.check_classic",
    "isoperimetry.check_hexagonal_s": "isoperimetry.check_hexagonal",
    "oracle.max_edges_profile_s": "oracle.max_edges_profile",
    "oracle.max_area_rearrangement_s": "oracle.max_area_rearrangement",
    "oracle.unit_pair_fuzz_s": "oracle.unit_pair_fuzz",
    "builders.build_extremal_s": "builders.build_extremal",
    "builders.random_lattice_subgraph_s": "builders.random_lattice_subgraph",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, deadline: float, recorder):
    """Set up and run whole rounds until the deadline; check every output.

    Returns the perf_counter interval of every round's set-up, every round's
    timed phase and every operation, to be scaled once the run has ended."""
    clock = time.perf_counter
    setups, rounds, op_spans = [], [], []  # op_spans: one list of intervals per round
    setup_spans, run_spans = [], []  # span index ranges of each phase
    attempted = failed = 0
    errors = []
    for r in itertools.count():
        mark = len(recorder.name) if recorder else 0
        gc.collect()
        t0 = clock()
        ops = wl.setup(r)
        setups.append((t0, clock()))
        if recorder:
            setup_spans.append((mark, len(recorder.name)))
            mark = len(recorder.name)
        gc.collect()
        outputs, lat = [], []
        op_spans.append(lat)
        t0 = clock()
        for op in ops:
            idx = recorder.open("op." + op.kind) if recorder else -1
            t = clock()
            outputs.append(op.run())
            lat.append((t, clock()))
            if recorder:
                recorder.close(idx)
        rounds.append((t0, clock()))
        if recorder:
            run_spans.append((mark, len(recorder.name)))
        for op, out in zip(ops, outputs):
            attempted += 1
            try:
                if not op.check(out):
                    failed += 1
            except checks.CheckFailed as exc:
                errors.append(f"{op.kind}: {exc}")
        if clock() >= deadline:
            break
    return {"setups": setups, "rounds": rounds, "op_spans": op_spans,
            "kinds": [op.kind for op in ops],
            "attempted": attempted, "failed": failed, "errors": errors,
            "setup_spans": setup_spans, "run_spans": run_spans}


def timings(m: dict, sampler) -> dict:
    """Every interval of ``measure`` in seconds, scaled to the reference speed
    (plain wall time when the sampler is off, as in the traced run)."""
    return {"setup_times": [sampler.scaled(a, b) for a, b in m["setups"]],
            "run_times": [sampler.scaled(a, b) for a, b in m["rounds"]],
            "latencies": [[sampler.scaled(a, b) for a, b in lat] for lat in m["op_spans"]],
            "wall_run_times": [b - a for a, b in m["rounds"]]}


def end_to_end(t: dict, import_s: float) -> dict:
    """Medians over all rounds of the scaled timings; set-up is the median
    fresh-interpreter import time plus the median round set-up."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": {"value": import_s + statistics.median(t["setup_times"]), "unit": "s"},
        "run_s": {"value": statistics.median(t["run_times"]), "unit": "s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(
            x for lat in t["latencies"] for x in lat), "unit": "ms"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def per_layer(recorder, wl) -> dict:
    agg = recorder.self_times()
    for child in wl.child_spans:
        spans.merge(agg, child)
    out = {}
    for metric, source in PER_LAYER.items():
        if metric.endswith("_s"):
            out[metric] = {"value": agg.get(source, [0.0, 0])[0], "unit": "s"}
        elif metric.endswith("_calls"):
            out[metric] = {"value": agg.get(source, [0.0, 0])[1], "unit": "count"}
        else:
            unit = "bytes" if metric.endswith("_bytes") else "count"
            out[metric] = {"value": recorder.counts.get(source, 0), "unit": unit}
    return out


def layer_self_time(recorder, ranges) -> float:
    """Self seconds of library spans (not the benchmark's op spans) in ranges."""
    total = 0.0
    for lo, hi in ranges:
        for name, (self_s, _) in recorder.self_times(lo, hi).items():
            if not name.startswith("op."):
                total += self_s
    return total


IMPORTS = 7  # fresh-interpreter imports of the package per run


def import_time(sampler) -> float:
    """Median over IMPORTS fresh interpreters of the scaled time to import the
    package; each child times its own import, without interpreter start-up."""
    times = []
    for _ in range(IMPORTS):
        proc = subprocess.run([sys.executable, str(HERE / "import_child.py")],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import child exited {proc.returncode}: {proc.stderr[-500:]}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchstick" / "__init__.py").is_file():
        print(f"error: no matchstick package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The traced run reports plain wall time: a probe inside the handler
    # would land in the self time of whichever span it interrupts.
    sampler = speed.Sampler(enabled=not args.trace)
    sampler.start()
    try:
        t_start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads  # imports matchstick: part of set-up
        import_iv = (t_start, time.perf_counter())
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        recorder = uninstall = None
        if args.trace:
            recorder = spans.Recorder()
            uninstall = spans.install(recorder)
        if not args.trace:
            import_s = import_time(sampler)
        WORK.mkdir(exist_ok=True)
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, WORK, traced=bool(args.trace))
            m = measure(wl, t_start + args.seconds, recorder)
        finally:
            if uninstall:
                uninstall()
            shutil.rmtree(WORK, ignore_errors=True)
    finally:
        sampler.stop()
    t = timings(m, sampler)
    if args.trace:
        import_s = import_iv[1] - import_iv[0]  # this process's own import

    for err in m["errors"][:10]:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    rounds = len(t["run_times"])
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {m['attempted']} operations "
          f"({m['attempted'] // rounds} per round), {m['failed']} failed; "
          f"wall run_s per round {[round(x, 3) for x in t['wall_run_times']]}")
    if sampler.enabled:
        print(f"scaled run_s per round {[round(x, 3) for x in t['run_times']]}; "
              f"{len(sampler.at)} speed samples, mean probe "
              f"{1e3 * sampler.mean_probe_s():.4f} ms against {1e3 * speed.REF_PROBE_S} ms")
    fastest = min(range(rounds), key=t["run_times"].__getitem__)
    by_kind: dict[str, float] = {}
    for kind, x in zip(m["kinds"], t["latencies"][fastest]):
        kind = kind.split(":")[0]  # the five malformed documents as one kind
        by_kind[kind] = by_kind.get(kind, 0.0) + x
    print("fastest round, seconds by operation kind: "
          + ", ".join(f"{k} {x:.3f}" for k, x in by_kind.items()))
    if args.trace:
        metrics = per_layer(recorder, wl)
        child_self = sum(s for c in wl.child_spans for s, _ in c.values())
        run_self = layer_self_time(recorder, m["run_spans"]) + child_self
        setup_self = layer_self_time(recorder, m["setup_spans"])
        print(f"traced: run_s {min(t['run_times']):.4f} s (fastest round); layer self time "
              f"{run_self:.3f} s of {sum(t['run_times']):.3f} s timed (child processes "
              f"{child_self:.3f} s), {setup_self:.3f} s of {sum(t['setup_times']):.3f} s set-up")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        recorder.dump(path, {"workload": args.workload, "seed": args.seed,
                             "run_times": t["run_times"], "setup_times": t["setup_times"],
                             "import_s": import_s, "child_spans": wl.child_spans})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(t, import_s)
    correct = not m["errors"]
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
