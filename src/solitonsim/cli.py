"""Command-line front end.

Three commands:

``solitonsim run <scenario>`` simulates one scenario file (a path, a
path without its .yaml suffix, or a bundled scenario name) and writes
``<name>.csv`` plus ``<name>.summary.json``.

``solitonsim paper-suite`` runs every bundled scenario and prints one
PASS/FAIL line per acceptance criterion.

``solitonsim sweep <scenario> --param P --from A --to B --steps N
--metric M`` maps one scalar response across a parameter range.

Exit codes: 0 success, 1 failed suite criteria, 2 schema or usage
violation or an unwritable output path, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .errors import InstabilityError, ScenarioError, SolitonsimError, TopologyError
from .scenario import Scenario, bundled_scenario_names, load_bundled_scenario, load_scenario, run_scenario
from .suite import format_report, run_paper_suite
from .sweep import SWEEP_METRICS, SWEEP_PARAMS, run_sweep, sweep_values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonsim",
        description="Transient simulator for pulse logic on active transmission lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario and write CSV + summary")
    run_p.add_argument("scenario", help="scenario file path or bundled scenario name")
    run_p.add_argument("--out-dir", default=".", help="directory for output files")

    suite_p = sub.add_parser("paper-suite", help="run all bundled scenarios and check the acceptance criteria")
    suite_p.add_argument("--out-dir", default=".", help="directory for output files")

    sweep_p = sub.add_parser("sweep", help="vary one parameter and record one metric")
    sweep_p.add_argument("scenario", help="base scenario file path or bundled scenario name")
    sweep_p.add_argument("--param", required=True, help=f"one of: {', '.join(SWEEP_PARAMS)}")
    sweep_p.add_argument("--from", dest="start", type=float, required=True, help="first value")
    sweep_p.add_argument("--to", dest="stop", type=float, required=True, help="last value")
    sweep_p.add_argument("--steps", type=int, required=True, help="number of points, endpoints included")
    sweep_p.add_argument("--metric", required=True, help=f"one of: {', '.join(SWEEP_METRICS)}")
    sweep_p.add_argument("--out-dir", default=".", help="directory for the sweep CSV")
    return parser


def _load_any(ref: str) -> Scenario:
    """Resolve a scenario reference: exact path, path + .yaml, bundled name."""
    path = Path(ref)
    if path.is_file():
        return load_scenario(path)
    with_suffix = Path(ref + ".yaml")
    if with_suffix.is_file():
        return load_scenario(with_suffix)
    if path.name == ref:  # bare name, no separators: try the bundled set
        return load_bundled_scenario(ref)
    raise ScenarioError(f"{ref}: no such scenario file")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_any(args.scenario)
    csv_path, summary_path = run_scenario(scenario, args.out_dir)
    print(csv_path)
    print(summary_path)
    return 0


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    results = run_paper_suite(args.out_dir)
    print(format_report(results))
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_any(args.scenario)
    values = sweep_values(args.start, args.stop, args.steps)
    out = Path(args.out_dir) / f"{scenario.name}_sweep_{args.param}_{args.metric}.csv"
    points = run_sweep(scenario, args.param, values, args.metric, out)
    for point in points:
        print("%.9g -> %.9g" % (point.value, point.metric))
    print(out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "paper-suite":
            return _cmd_paper_suite(args)
        return _cmd_sweep(args)
    except (TopologyError, InstabilityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (SolitonsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
