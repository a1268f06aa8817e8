"""Time a workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <scenario file or bundled:NAME>...

Measures, from before the package is imported, the time to import
solitonsim, load and validate every listed scenario and build its
topology, which is everything a run does before its first simulate.
Prints the elapsed seconds.  Only the standard library is imported before
the clock starts.
"""

import sys
import time


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    import solitonsim
    from solitonsim.scenario import build_topology

    for ref in argv[1:]:
        if ref.startswith("bundled:"):
            scenario = solitonsim.load_bundled_scenario(ref[len("bundled:"):])
        else:
            scenario = solitonsim.load_scenario(ref)
        build_topology(scenario)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
