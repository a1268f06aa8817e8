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
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import detect_pulses, first_phase_time, rising_edge_slope
from .engine import SimConfig, refine_check, simulate
from .errors import NotApplicableError
from .membrane import GateState, MembraneParams, SegmentSpec, derive_elements
from .network import build_chain
from .scenario import (
    Scenario,
    ScenarioRun,
    _check_out_dir,
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
    return "\n".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


# Each checked element: its name, the unit a PASS detail shows it in, that unit in SI.
_ELEMENTS = (("c_shunt", "pF", 1e-12), ("r_axial", "MOhm", 1e6), ("r_loss", "MOhm", 1e6))
# Per segment: its label in a FAIL line and in the PASS detail, the segment, the
# tolerance, and the published value of each of _ELEMENTS in SI.
_PUBLISHED_ELEMENTS = (
    ("default", "defaults", SegmentSpec(), 0.01, (31.4e-12, 200e6, 106e6)),
    ("half-length", "half-length", SegmentSpec(length=0.05), 0.05, (15.7e-12, 100e6, 212e6)),
)


def criterion_1_elements() -> CriterionResult:
    """Derived lumped elements match the published values."""
    bad, shown = [], []
    for label, shown_label, spec, tol, published in _PUBLISHED_ELEMENTS:
        elements = derive_elements(spec, MembraneParams())
        values = []
        for (element, unit, scale), want in zip(_ELEMENTS, published):
            got = getattr(elements, element)
            values.append(f"{got / scale:.4g} {unit}")
            if abs(got - want) > tol * want:
                bad.append(f"{label} {element} {got:.4g} vs {want:.4g} (+/-{tol:.0%})")
        shown.append(f"{shown_label} " + " / ".join(values))
    return CriterionResult("criterion_1_elements", not bad, "; ".join(bad or shown))


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


_GATES = (("OR", operator.or_), ("XOR", operator.xor), ("AND", operator.and_))
_GATE_ROWS = ((), ("A",), ("B",), ("A", "B"))


def criterion_6_truth_tables(
    or_run: ScenarioRun, xor_run: ScenarioRun, and_run: ScenarioRun
) -> CriterionResult:
    """All twelve gate rows match their Boolean functions exactly."""
    mismatches = []
    for (gate, function), run in zip(_GATES, (or_run, xor_run, and_run)):
        rows = run.summary["analysis"]["truth_table"]["rows"]
        table = {tuple(row["driven"]): row["value"] for row in rows}
        for combo in _GATE_ROWS:
            want = function("A" in combo, "B" in combo)
            got = table.get(combo)
            if got != want:
                driven = "+".join(combo) or "none"
                mismatches.append(f"{gate}[{driven}] -> {got}, expected {want}")
    gates = " / ".join(gate for gate, _ in _GATES)
    passed = f"all {len(_GATES) * len(_GATE_ROWS)} rows match {gates} exactly"
    detail = "; ".join(mismatches) or passed
    return CriterionResult("criterion_6_truth_tables", not mismatches, detail)


def criterion_7_split(or_run: ScenarioRun) -> CriterionResult:
    """A lone input pulse reaches both the other input and the output."""
    name = "criterion_7_split"
    b_pulses = len(detect_pulses(or_run.waveform, "B", or_run.scenario.threshold_mv))
    z_pulses = len(detect_pulses(or_run.waveform, "Z", or_run.scenario.threshold_mv))
    ok = b_pulses >= 1 and z_pulses >= 1
    detail = f"input A alone: {b_pulses} pulse(s) at B-branch terminal, {z_pulses} at Z"
    return CriterionResult(name, ok, detail)


def criterion_8_taper_asymmetry(taper: Scenario, out_dir: Path) -> CriterionResult:
    """Amplitude window running down the taper contains the reverse window."""
    windows = []
    for direction, node, probes in (
        ("forward", "A", ("v(2)", "v(11)")),
        ("reverse", "Z", ("v(11)", "v(2)")),
    ):
        window = replace(
            taper,
            name=f"taper_{direction}_window",
            probes=probes,
            stimuli=tuple(replace(s, node=node) for s in taper.stimuli),
        )
        points = run_sweep(
            window, "amplitude", AMPLITUDE_GRID, "logic", out_dir / f"{window.name}.csv"
        )
        windows.append({p.value for p in points if p.metric == 1.0})
    fwd_set, rev_set = windows

    def show(values: set) -> str:
        return "{" + ", ".join(f"{v * 1e9:g}" for v in sorted(values)) + "} nA"

    detail = (
        f"large->small window {show(fwd_set)}, small->large window {show(rev_set)} "
        f"over {len(AMPLITUDE_GRID)} amplitudes (want strict containment)"
    )
    return CriterionResult("criterion_8_taper_asymmetry", rev_set < fwd_set, detail)


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
    written into ``out_dir``.  An unusable ``out_dir`` raises its OSError
    before any run.
    """
    out = Path(out_dir)
    _check_out_dir(out)

    runs: dict[str, ScenarioRun] = {}
    for scenario_name in bundled_scenario_names():
        run = evaluate_scenario(load_bundled_scenario(scenario_name))
        write_outputs(run, out)
        runs[scenario_name] = run

    reflection = runs["fig8_reflection"].scenario
    control_args = {**reflection.builder_args, "terminal_extra_c": 0.0}
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
