"""Acceptance gate: one test per behavioural criterion.

The suite is run once per session; every criterion then asserts its own
verdict, so the test report carries one pass/fail line per criterion.
Two criteria are expected to fail on the current model: the
exclusive-OR loading of 0.67 transmits coincident pulses (the true
quench boundary sits at 0.63/0.64), and the 2:1 taper blocks
propagation in both directions.  Both are measured honestly here rather
than patched around; the pinned regressions in test_sweep.py track the
boundaries where the mechanisms do work.
"""

from __future__ import annotations

import json
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import pytest
from golden.make_golden import counted_suite

from solitonsim import suite as suite_module
from solitonsim.analysis import DEFAULT_THRESHOLD_MV
from solitonsim.scenario import ScenarioRun, evaluate_scenario, load_bundled_scenario
from solitonsim.suite import (
    AMPLITUDE_GRID,
    CriterionResult,
    criterion_1_elements,
    criterion_5_annihilation,
    criterion_6_truth_tables,
    criterion_8_taper_asymmetry,
    format_report,
)
from solitonsim.sweep import SweepPoint

CRITERIA = [
    "criterion_1_elements",
    "criterion_2_patch",
    "criterion_3_propagation",
    "criterion_4_reflection",
    "criterion_5_annihilation",
    "criterion_6_truth_tables",
    "criterion_7_split",
    "criterion_8_taper_asymmetry",
    "criterion_9_numerics",
]


class SuitePass(NamedTuple):
    out_dir: Path
    verdicts: dict[str, CriterionResult]
    gate_counts: dict[str, int]  # engine.step_gate calls and the phase changes they returned


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("suite_artifacts")
    results, gate_counts = counted_suite(out_dir)
    print()
    print(format_report(results))
    return SuitePass(out_dir, {r.name: r for r in results}, gate_counts)


def test_suite_covers_every_criterion(suite):
    assert sorted(suite.verdicts) == sorted(CRITERIA)


def test_suite_writes_all_artifacts(suite):
    out_dir = suite.out_dir
    for name in (
        "fig1_patch",
        "fig7_chain",
        "fig8_reflection",
        "fig8_reflection_control",
        "fig9_collision",
        "fig11_or",
        "fig13_xor",
        "fig14_and",
        "fig16_taper",
    ):
        assert (out_dir / f"{name}.csv").is_file()
        assert (out_dir / f"{name}.summary.json").is_file()
    assert (out_dir / "taper_forward_window.csv").is_file()
    assert (out_dir / "taper_reverse_window.csv").is_file()


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(suite, name):
    result = suite.verdicts[name]
    line = format_report([result])
    print(line)
    assert result.passed, line


# ---------------------------------------------------------------------
# golden record (tests/golden/make_golden.py regenerates it)
# ---------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def assert_summary_close(got, want, path="summary"):
    """Same keys and non-float values; floats within 1e-9 relative."""
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} vs {list(want)}"
        for key in want:
            assert_summary_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: {len(got)} items vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_summary_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-9 * abs(want), f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def ninth_digit_unit(cell: str) -> Decimal:
    value = Decimal(cell)
    return Decimal(0) if value == 0 else Decimal(1).scaleb(value.adjusted() - 8)


def test_report_matches_golden(suite):
    assert format_report(list(suite.verdicts.values())) + "\n" == (GOLDEN / "report.txt").read_text()


def test_gate_consultations_match_golden(suite):
    # step_gate is consulted only where a head leaves its stay window, so a
    # loop that screens or locates events differently moves these counts;
    # simulate_calls counts each distinct simulation once, plus criterion 9's
    # deliberate rerun and criterion 8's forward 4 nA point (fig16_taper's run)
    assert suite.gate_counts == json.loads((GOLDEN / "gate_counts.json").read_text())


def test_summaries_match_golden(suite):
    out_dir = suite.out_dir
    golden = sorted(path.name for path in GOLDEN.glob("*.summary.json"))
    assert sorted(path.name for path in out_dir.glob("*.summary.json")) == golden
    for name in golden:
        got = json.loads((out_dir / name).read_text())
        assert_summary_close(got, json.loads((GOLDEN / name).read_text()), name)


def test_csv_samples_match_golden(suite):
    out_dir = suite.out_dir
    golden = json.loads((GOLDEN / "csv_samples.json").read_text())
    assert sorted(path.stem for path in out_dir.glob("*.csv")) == sorted(golden)
    for name, want in golden.items():
        header, *rows = (out_dir / f"{name}.csv").read_text().splitlines()
        assert header == want["header"], name
        assert len(rows) == want["rows"], name
        every = want["every"]
        for i, (row, expected) in enumerate(zip(rows[::every], want["sampled"])):
            cells, expected_cells = row.split(","), expected.split(",")
            assert len(cells) == len(expected_cells), f"{name} row {every * i}"
            for col, (cell, ref) in enumerate(zip(cells, expected_cells)):
                # within one unit of the 9th significant digit of either side
                unit = max(ninth_digit_unit(cell), ninth_digit_unit(ref))
                assert abs(Decimal(cell) - Decimal(ref)) <= unit, f"{name} row {every * i} col {col}: {cell} vs {ref}"


# ---------------------------------------------------------------------
# verdict branches the bundled scenarios never reach
# ---------------------------------------------------------------------


def scaled_elements(monkeypatch, **factors):
    real = suite_module.derive_elements

    def derive(spec, params):
        elements = real(spec, params)
        return replace(
            elements, **{k: getattr(elements, k) * f for k, f in factors.items()}
        )

    monkeypatch.setattr(suite_module, "derive_elements", derive)


def test_criterion_1_pass_detail():
    assert criterion_1_elements() == CriterionResult(
        "criterion_1_elements",
        True,
        "defaults 31.42 pF / 199.9 MOhm / 106.1 MOhm; "
        "half-length 15.71 pF / 99.95 MOhm / 212.2 MOhm",
    )


def test_criterion_1_lists_every_element_off_target(monkeypatch):
    scaled_elements(monkeypatch, c_shunt=1.1, r_axial=1.1, r_loss=1.1)
    assert criterion_1_elements() == CriterionResult(
        "criterion_1_elements",
        False,
        "default c_shunt 3.456e-11 vs 3.14e-11 (+/-1%); "
        "default r_axial 2.199e+08 vs 2e+08 (+/-1%); "
        "default r_loss 1.167e+08 vs 1.06e+08 (+/-1%); "
        "half-length c_shunt 1.728e-11 vs 1.57e-11 (+/-5%); "
        "half-length r_axial 1.099e+08 vs 1e+08 (+/-5%); "
        "half-length r_loss 2.334e+08 vs 2.12e+08 (+/-5%)",
    )


def test_criterion_1_tolerance_depends_on_the_segment_length(monkeypatch):
    # 3% off: outside the default's 1%, inside the half-length's 5%
    scaled_elements(monkeypatch, c_shunt=1.03)
    assert criterion_1_elements() == CriterionResult(
        "criterion_1_elements", False, "default c_shunt 3.236e-11 vs 3.14e-11 (+/-1%)"
    )


def test_criterion_5_measures_slopes_at_the_scenario_threshold(monkeypatch):
    # the pulse counts it checks first use the scenario's threshold too
    collision = replace(load_bundled_scenario("fig9_collision"), threshold_mv=0.0)
    run = evaluate_scenario(collision)
    seen = []

    def slope(waveform, node, threshold_mv=DEFAULT_THRESHOLD_MV):
        seen.append((node, threshold_mv))
        return 1.0

    monkeypatch.setattr(suite_module, "rising_edge_slope", slope)
    criterion_5_annihilation(run)
    assert seen == [("v(6)", 0.0), ("v(4)", 0.0)]


def gate_run(*high_rows):
    rows = [(), ("A",), ("B",), ("A", "B")]
    summary = {
        "analysis": {
            "truth_table": {
                "rows": [{"driven": list(r), "value": r in high_rows} for r in rows]
            }
        }
    }
    return ScenarioRun(scenario=None, topology=None, waveform=None, summary=summary)


OR_RUN = gate_run(("A",), ("B",), ("A", "B"))
XOR_RUN = gate_run(("A",), ("B",))
AND_RUN = gate_run(("A", "B"))


def test_criterion_6_pass_detail():
    assert criterion_6_truth_tables(OR_RUN, XOR_RUN, AND_RUN) == CriterionResult(
        "criterion_6_truth_tables", True, "all 12 rows match OR / XOR / AND exactly"
    )


def test_criterion_6_names_each_mismatched_row_in_order():
    # OR behaving as AND, XOR as OR, and AND with its one row missing
    and_run = gate_run()
    and_run.summary["analysis"]["truth_table"]["rows"].pop()
    assert criterion_6_truth_tables(AND_RUN, OR_RUN, and_run) == CriterionResult(
        "criterion_6_truth_tables",
        False,
        "OR[A] -> False, expected True; OR[B] -> False, expected True; "
        "XOR[A+B] -> True, expected False; AND[A+B] -> None, expected True",
    )


def test_criterion_6_names_the_undriven_row_none():
    all_high = gate_run((), ("A",), ("B",), ("A", "B"))
    result = criterion_6_truth_tables(all_high, XOR_RUN, AND_RUN)
    assert result.detail == "OR[none] -> True, expected False"


def fake_window_sweep(windows, calls):
    """A run_sweep stand-in: metric 1.0 on the window of the driven end."""

    def run_sweep(scenario, param, values, metric, out_path=None):
        (node,) = {s.node for s in scenario.stimuli}
        calls.append((scenario.name, scenario.probes, node, param, values, metric, out_path))
        return [SweepPoint(v, 1.0 if v in windows[node] else 0.0) for v in values]

    return run_sweep


def test_criterion_8_pass_detail_with_strict_containment(monkeypatch, tmp_path):
    calls = []
    windows = {"A": {4e-9, 6e-9, 10e-9}, "Z": {6e-9}}
    monkeypatch.setattr(suite_module, "run_sweep", fake_window_sweep(windows, calls))
    taper = load_bundled_scenario("fig16_taper")
    assert criterion_8_taper_asymmetry(taper, tmp_path) == CriterionResult(
        "criterion_8_taper_asymmetry",
        True,
        "large->small window {4, 6, 10} nA, small->large window {6} nA "
        "over 7 amplitudes (want strict containment)",
    )
    assert calls == [
        (
            "taper_forward_window",
            ("v(2)", "v(11)"),
            "A",
            "amplitude",
            AMPLITUDE_GRID,
            "logic",
            tmp_path / "taper_forward_window.csv",
        ),
        (
            "taper_reverse_window",
            ("v(11)", "v(2)"),
            "Z",
            "amplitude",
            AMPLITUDE_GRID,
            "logic",
            tmp_path / "taper_reverse_window.csv",
        ),
    ]


def test_criterion_8_equal_windows_are_not_strict(monkeypatch, tmp_path):
    windows = {"A": {6e-9}, "Z": {6e-9}}
    monkeypatch.setattr(suite_module, "run_sweep", fake_window_sweep(windows, []))
    result = criterion_8_taper_asymmetry(load_bundled_scenario("fig16_taper"), tmp_path)
    assert result == CriterionResult(
        "criterion_8_taper_asymmetry",
        False,
        "large->small window {6} nA, small->large window {6} nA "
        "over 7 amplitudes (want strict containment)",
    )
