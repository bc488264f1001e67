#!/usr/bin/env python3
"""Exhaustive maximum unit-edge counts over connected lattice point sets,
compared with the closed-form bound, with one witness drawing per size.

Usage: python3 scripts/oracle_vs_bound.py [N] [outdir]
N <= 12 (search budget).  If outdir is given, witness SVGs are written there.
"""

import pathlib
import sys
import time

from matchstick.graph import lattice_graph
from matchstick.lattice import harborth_bound
from matchstick.oracle import max_edges_profile
from matchstick.render import render_svg


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    outdir = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else None
    t0 = time.perf_counter()
    profile = max_edges_profile(n_max)
    dt = time.perf_counter() - t0
    print(f"{'n':>3} {'max_e':>6} {'bound':>6}  witness")
    mismatches = 0
    for n, max_e, witness in profile:
        bound = harborth_bound(n)
        mismatches += max_e != bound
        mark = "=" if max_e == bound else "MISMATCH"
        pts = " ".join(f"({p.m},{p.n})" for p in witness.points)
        print(f"{n:>3} {max_e:>6} {bound:>6} {mark} {pts}")
        if outdir is not None:
            outdir.mkdir(parents=True, exist_ok=True)
            g = lattice_graph(witness.points)
            g.validate()
            (outdir / f"witness_{n:02d}.svg").write_text(render_svg(g))
    print(f"\nsearch to n={n_max} in {dt:.2f}s; mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
