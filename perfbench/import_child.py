"""Time one import of the matchstick package in a fresh interpreter.

Usage: python3 import_child.py

Prints the seconds that importing every matchstick module the benchmark
uses took, scaled to the reference speed of ``speed.py``.  The interpreter's
own start-up is not included.
"""

import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    # An import lasts tens of milliseconds: sample every 5 ms, not every 20.
    sampler = speed.Sampler(interval=0.005)
    sampler.start()
    try:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from matchstick import (builders, census, cli, components,  # noqa: F401
                                isoperimetry, oracle, trace)
        t1 = time.perf_counter()
        while len(sampler.at) < 2 or sampler.at[-1] <= t1:  # a sample after the end
            speed.probe()
    finally:
        sampler.stop()
    print(sampler.scaled(t0, t1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
