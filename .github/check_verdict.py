"""Check one benchmark verdict and print its summary.

Usage::

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace T \
        | tail -n 1 | python3 .github/check_verdict.py W T

The verdict is the JSON object run.py prints as its last line.  Exits 1
unless every call's outputs matched perfbench/refs/ (``correct`` true,
``failed`` 0).  For a traced pass (T = 1) it also prints the five
deterministic counters and exits 1 when ``engine.simulate_calls`` or
``membrane.step_gate_calls`` is zero: a zero count means a tracer wrapper
no longer reaches the function it wraps.
"""

import json
import sys

COUNTERS = (
    "engine.simulate_calls",
    "engine.steps",
    "membrane.step_gate_calls",
    "membrane.gate_transitions",
    "scenario.csv_bytes",
)


def main(argv: list[str]) -> None:
    name, traced = argv[1], argv[2] == "1"
    verdict = json.load(sys.stdin)
    counts = {k: verdict["metrics"][k]["value"] for k in COUNTERS} if traced else {}
    print(name, f"--trace {argv[2]}", {k: verdict[k] for k in ("correct", "attempted", "failed")}, counts)
    if verdict["correct"] is not True or verdict["failed"] != 0:
        sys.exit(f"{name}: outputs differ from perfbench/refs/")
    if traced and not (counts["engine.simulate_calls"] > 0 and counts["membrane.step_gate_calls"] > 0):
        sys.exit(f"{name}: a traced layer counted nothing: {counts}")


if __name__ == "__main__":
    main(sys.argv)
