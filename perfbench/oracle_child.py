"""Compute one exhaustive max_edges_profile in a fresh interpreter.

Usage: python3 oracle_child.py N_MAX TRACE

Prints one JSON object: the profile as [n, max_e, witness points], and with
TRACE = 1 the aggregated span self times of this process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from matchstick import oracle  # noqa: E402


def main() -> int:
    n_max, traced = int(sys.argv[1]), sys.argv[2] == "1"
    recorder = spans.Recorder()
    if traced:
        spans.install(recorder)
    profile = oracle.max_edges_profile(n_max)
    print(json.dumps({
        "profile": [[n, max_e, [[p.m, p.n] for p in w.points]] for n, max_e, w in profile],
        "spans": recorder.self_times(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
