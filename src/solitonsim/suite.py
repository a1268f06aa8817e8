"""Acceptance suite: nine behavioural criteria checked in one pass.

Each criterion reduces to a named pass/fail verdict with a one-line
numeric detail.  The suite runs every bundled scenario (writing their
CSV and summary artifacts), adds the control and sweep runs the
criteria need, and returns the verdict list; ``format_report`` renders
it one line per criterion.

Known red criteria are reported exactly like the green ones: the suite
measures, it does not grade on a curve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import detect_pulses, first_phase_time, rising_edge_slope
from .engine import SimConfig, refine_check, simulate
from .errors import NotApplicableError
from .membrane import GateState, MembraneParams, SegmentSpec, derive_elements
from .network import Stimulus, build_chain
from .scenario import (
    Scenario,
    ScenarioRun,
    bundled_scenario_names,
    evaluate_scenario,
    load_bundled_scenario,
    write_outputs,
)
from .sweep import run_sweep

AMPLITUDE_GRID = (1e-9, 2.5e-9, 4e-9, 6e-9, 10e-9, 15e-9, 20e-9)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def format_report(results: list[CriterionResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_elements() -> CriterionResult:
    """Derived lumped elements match the published values."""
    checks = []
    default = derive_elements(SegmentSpec(), MembraneParams())
    for label, got, want, tol in (
        ("c_shunt", default.c_shunt, 31.4e-12, 0.01),
        ("r_axial", default.r_axial, 200e6, 0.01),
        ("r_loss", default.r_loss, 106e6, 0.01),
    ):
        checks.append((f"default {label}", got, want, tol))
    half = derive_elements(SegmentSpec(length=0.05), MembraneParams())
    for label, got, want, tol in (
        ("c_shunt", half.c_shunt, 15.7e-12, 0.05),
        ("r_axial", half.r_axial, 100e6, 0.05),
        ("r_loss", half.r_loss, 212e6, 0.05),
    ):
        checks.append((f"half-length {label}", got, want, tol))
    bad = [
        f"{label} {got:.4g} vs {want:.4g} (+/-{tol:.0%})"
        for label, got, want, tol in checks
        if abs(got - want) > tol * want
    ]
    if bad:
        return CriterionResult("criterion_1_elements", False, "; ".join(bad))
    detail = (
        f"defaults {default.c_shunt * 1e12:.4g} pF / {default.r_axial / 1e6:.4g} MOhm / "
        f"{default.r_loss / 1e6:.4g} MOhm; half-length {half.c_shunt * 1e12:.4g} pF / "
        f"{half.r_axial / 1e6:.4g} MOhm / {half.r_loss / 1e6:.4g} MOhm"
    )
    return CriterionResult("criterion_1_elements", True, detail)


def criterion_2_patch(run: ScenarioRun) -> CriterionResult:
    """Single-patch firing: channel cutoff intervals and full recovery."""
    name = "criterion_2_patch"
    trig = first_phase_time(run.waveform, 0, GateState.FIRING)
    if trig is None:
        return CriterionResult(name, False, "patch never fired")
    na_off = first_phase_time(run.waveform, 0, GateState.FALLING, after=trig)
    k_off = first_phase_time(run.waveform, 0, GateState.REST, after=trig)
    if na_off is None or k_off is None:
        return CriterionResult(name, False, "channel phases never completed")
    na_interval = na_off - trig
    k_interval = k_off - trig
    v_end = float(run.waveform.voltage("v(2)")[-1])
    ok = (
        1.2e-3 <= na_interval <= 1.8e-3
        and 3.0e-3 <= k_interval <= 4.2e-3
        and abs(v_end + 70.0) <= 0.5
    )
    detail = (
        f"trigger->Na-off {na_interval * 1e3:.3g} ms (want 1.2..1.8), "
        f"trigger->K-off {k_interval * 1e3:.3g} ms (want 3.0..4.2), "
        f"final {v_end:.3g} mV (want -70+/-0.5)"
    )
    return CriterionResult(name, ok, detail)


def criterion_3_propagation(run: ScenarioRun) -> CriterionResult:
    """One clean pulse per node, ordered onsets, low dispersion."""
    name = "criterion_3_propagation"
    pulses = run.summary["analysis"]["pulses"]
    counts = {probe: len(events) for probe, events in pulses.items()}
    if any(c != 1 for c in counts.values()):
        return CriterionResult(name, False, f"pulse counts per node: {counts}")
    onsets = [pulses[probe][0]["t_onset_s"] for probe in run.scenario.probes]
    ordered = all(b > a for a, b in zip(onsets, onsets[1:]))
    disp = run.summary["analysis"]["dispersion"]
    disp_ok = disp.get("applicable") and disp["value"] < 0.2
    detail = (
        f"one pulse at all {len(counts)} nodes, onsets "
        f"{'strictly increasing' if ordered else 'NOT ordered'}, "
        f"dispersion {disp.get('value', float('nan')):.3g} (want < 0.2)"
    )
    return CriterionResult(name, bool(ordered and disp_ok), detail)


def criterion_4_reflection(run: ScenarioRun, control: ScenarioRun) -> CriterionResult:
    """Capacitive termination reflects; matched chain does not."""
    name = "criterion_4_reflection"
    loaded = run.summary["analysis"]["reflection"]["pulse_count"]
    bare = control.summary["analysis"]["reflection"]["pulse_count"]
    ok = loaded >= 2 and bare == 1
    detail = f"v(5) pulses: {loaded} with 60 pF end load (want >= 2), {bare} with 0 pF (want 1)"
    return CriterionResult(name, ok, detail)


def criterion_5_annihilation(run: ScenarioRun) -> CriterionResult:
    """Colliding pulses cancel; edges steepen on approach."""
    name = "criterion_5_annihilation"
    pulses = run.summary["analysis"]["pulses"]
    counts = {probe: len(events) for probe, events in pulses.items()}
    if any(c != 1 for c in counts.values()):
        return CriterionResult(name, False, f"post-collision pulse leaked: {counts}")
    try:
        near = rising_edge_slope(run.waveform, "v(6)")
        far = rising_edge_slope(run.waveform, "v(4)")
    except NotApplicableError as exc:
        return CriterionResult(name, False, f"slope not measurable: {exc}")
    ok = near > far
    detail = (
        f"every node saw exactly one pulse; rise slope v(6) {near / 1e3:.3g} mV/ms vs "
        f"v(4) {far / 1e3:.3g} mV/ms (want steeper at the collision)"
    )
    return CriterionResult(name, ok, detail)


def _table_from_summary(run: ScenarioRun) -> dict[tuple[str, ...], bool]:
    rows = run.summary["analysis"]["truth_table"]["rows"]
    return {tuple(row["driven"]): row["value"] for row in rows}


def criterion_6_truth_tables(
    or_run: ScenarioRun, xor_run: ScenarioRun, and_run: ScenarioRun
) -> CriterionResult:
    """All twelve gate rows match their Boolean functions exactly."""
    name = "criterion_6_truth_tables"
    expected = {
        "OR": {(): False, ("A",): True, ("B",): True, ("A", "B"): True},
        "XOR": {(): False, ("A",): True, ("B",): True, ("A", "B"): False},
        "AND": {(): False, ("A",): False, ("B",): False, ("A", "B"): True},
    }
    actual = {
        "OR": _table_from_summary(or_run),
        "XOR": _table_from_summary(xor_run),
        "AND": _table_from_summary(and_run),
    }
    mismatches = []
    for gate, table in expected.items():
        for combo, want in table.items():
            got = actual[gate].get(combo)
            if got != want:
                driven = "+".join(combo) if combo else "none"
                mismatches.append(f"{gate}[{driven}] -> {got}, expected {want}")
    if mismatches:
        return CriterionResult(name, False, "; ".join(mismatches))
    return CriterionResult(name, True, "all 12 rows match OR / XOR / AND exactly")


def criterion_7_split(or_run: ScenarioRun) -> CriterionResult:
    """A lone input pulse reaches both the other input and the output."""
    name = "criterion_7_split"
    b_pulses = len(detect_pulses(or_run.waveform, "B", or_run.scenario.threshold_mv))
    z_pulses = len(detect_pulses(or_run.waveform, "Z", or_run.scenario.threshold_mv))
    ok = b_pulses >= 1 and z_pulses >= 1
    detail = f"input A alone: {b_pulses} pulse(s) at B-branch terminal, {z_pulses} at Z"
    return CriterionResult(name, ok, detail)


def criterion_8_taper_asymmetry(
    taper: Scenario, out_dir: Path
) -> CriterionResult:
    """Amplitude window running down the taper contains the reverse window."""
    name = "criterion_8_taper_asymmetry"
    forward = replace(
        taper,
        name="taper_forward_window",
        probes=("v(2)", "v(11)"),
        stimuli=tuple(replace(s, node="A") for s in taper.stimuli),
    )
    reverse = replace(
        taper,
        name="taper_reverse_window",
        probes=("v(11)", "v(2)"),
        stimuli=tuple(replace(s, node="Z") for s in taper.stimuli),
    )
    fwd_points = run_sweep(
        forward, "amplitude", AMPLITUDE_GRID, "logic", out_dir / "taper_forward_window.csv"
    )
    rev_points = run_sweep(
        reverse, "amplitude", AMPLITUDE_GRID, "logic", out_dir / "taper_reverse_window.csv"
    )
    fwd_set = {p.value for p in fwd_points if p.metric == 1.0}
    rev_set = {p.value for p in rev_points if p.metric == 1.0}
    contained = rev_set <= fwd_set
    strict = contained and len(fwd_set) > len(rev_set)

    def show(values: set) -> str:
        return "{" + ", ".join(f"{v * 1e9:g}" for v in sorted(values)) + "} nA"

    detail = (
        f"large->small window {show(fwd_set)}, small->large window {show(rev_set)} "
        f"over {len(AMPLITUDE_GRID)} amplitudes (want strict containment)"
    )
    return CriterionResult(name, strict, detail)


def criterion_9_numerics(chain_run: ScenarioRun) -> CriterionResult:
    """Step-halving agreement, exact rest, and bit-reproducible runs."""
    name = "criterion_9_numerics"
    scenario = chain_run.scenario
    report = refine_check(
        chain_run.topology, scenario.stimuli, scenario.config, scenario.params
    )
    refine_ok = report.max_discrepancy_mv < 1.0 and not report.events_diverged

    quiet = simulate(build_chain(10), (), SimConfig(t_end=5e-3))
    eq_error = float(np.max(np.abs(quiet.voltages_mv - quiet.rest_mv)))

    rerun = evaluate_scenario(scenario)
    deterministic = np.array_equal(
        chain_run.waveform.voltages_mv, rerun.waveform.voltages_mv
    ) and json.dumps(chain_run.summary, sort_keys=True) == json.dumps(
        rerun.summary, sort_keys=True
    )

    ok = refine_ok and eq_error == 0.0 and deterministic
    detail = (
        f"dt halving discrepancy {report.max_discrepancy_mv:.3g} mV (want < 1), "
        f"equilibrium error {eq_error:g} mV (want 0), "
        f"repeated run {'bit-identical' if deterministic else 'DIFFERS'}"
    )
    return CriterionResult(name, ok, detail)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_paper_suite(out_dir: str | Path = ".") -> list[CriterionResult]:
    """Run every bundled scenario plus controls; return all nine verdicts.

    Artifacts (scenario CSVs and summaries, window sweep CSVs) are
    written into ``out_dir``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs: dict[str, ScenarioRun] = {}
    for scenario_name in bundled_scenario_names():
        run = evaluate_scenario(load_bundled_scenario(scenario_name))
        write_outputs(run, out)
        runs[scenario_name] = run

    reflection = runs["fig8_reflection"].scenario
    control_args = dict(reflection.builder_args)
    control_args["terminal_extra_c"] = 0.0
    control = evaluate_scenario(
        replace(reflection, name="fig8_reflection_control", builder_args=control_args)
    )
    write_outputs(control, out)

    return [
        criterion_1_elements(),
        criterion_2_patch(runs["fig1_patch"]),
        criterion_3_propagation(runs["fig7_chain"]),
        criterion_4_reflection(runs["fig8_reflection"], control),
        criterion_5_annihilation(runs["fig9_collision"]),
        criterion_6_truth_tables(runs["fig11_or"], runs["fig13_xor"], runs["fig14_and"]),
        criterion_7_split(runs["fig11_or"]),
        criterion_8_taper_asymmetry(runs["fig16_taper"].scenario, out),
        criterion_9_numerics(runs["fig7_chain"]),
    ]
