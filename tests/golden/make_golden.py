"""Regenerate the paper-suite golden record in this directory.

    PYTHONPATH=src python tests/golden/make_golden.py

Runs ``run_paper_suite`` once into a fresh temporary directory and keeps:

* ``report.txt``: the report, one line per criterion, as ``format_report``
  renders it;
* every ``*.summary.json`` as written;
* ``csv_samples.json``: per CSV, its header, its data row count and every
  ``SAMPLE_EVERY``-th data row (rows 0, 50, 100, ...) as text, with that
  interval;
* ``gate_counts.json``: how often the run consulted ``engine.step_gate``,
  how many of those consultations changed a phase, and how many times it
  called ``simulate``.

``tests/test_acceptance.py`` compares a suite run with these files.  A
change that regenerates them must say why.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from solitonsim import analysis, engine, scenario, suite, sweep
from solitonsim.suite import format_report, run_paper_suite

GOLDEN = Path(__file__).resolve().parent
SAMPLE_EVERY = 50


def csv_sample(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    return {"header": header, "rows": len(rows), "every": SAMPLE_EVERY, "sampled": rows[::SAMPLE_EVERY]}


def counted_suite(out: Path):
    """Run the suite into ``out``; return its results, its gate consultation and simulation counts."""
    real, real_simulate = engine.step_gate, engine.simulate
    counts = {"step_gate_calls": 0, "phase_changes": 0, "simulate_calls": 0}

    def counting(old, *args):
        new = real(old, *args)
        counts["step_gate_calls"] += 1
        counts["phase_changes"] += int(new is not old)
        return new

    def simulating(*args, **kwargs):
        counts["simulate_calls"] += 1
        return real_simulate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "step_gate", counting)
        for module in (engine, analysis, scenario, suite, sweep):
            patch.setattr(module, "simulate", simulating)
        results = run_paper_suite(out)
    return results, counts


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        results, gate_counts = counted_suite(out)
        report = format_report(results)
        for old in GOLDEN.glob("*.summary.json"):
            old.unlink()
        for summary in sorted(out.glob("*.summary.json")):
            shutil.copyfile(summary, GOLDEN / summary.name)
        samples = {path.stem: csv_sample(path) for path in sorted(out.glob("*.csv"))}
    (GOLDEN / "report.txt").write_text(report + "\n")
    (GOLDEN / "csv_samples.json").write_text(json.dumps(samples, indent=1) + "\n")
    (GOLDEN / "gate_counts.json").write_text(json.dumps(gate_counts, indent=1) + "\n")


if __name__ == "__main__":
    main()
