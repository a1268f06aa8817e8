"""Sweep machinery plus pinned operating-window regressions.

The pinned values mark where this model's behaviour actually switches:
the junction loading that separates inclusive-OR from exclusive-OR
transmission, the coincidence gate's refusal to fire on one input, and
the taper that still shows directional asymmetry.  They keep future
solver or element changes from silently moving these boundaries.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

import solitonsim.scenario as scenario_module
import solitonsim.sweep as sweep
from solitonsim.analysis import truth_table
from solitonsim.engine import SimConfig
from solitonsim.errors import ScenarioError
from solitonsim.network import build_and_gate
from solitonsim.scenario import load_bundled_scenario, parse_scenario
from solitonsim.sweep import apply_param, compute_metric, run_sweep, sweep_values

# junction outputs switch late; 20 ms would clip the output pulse
GATE_CONFIG = SimConfig(t_end=30e-3)


def chain_doc():
    return {
        "name": "sweep_chain",
        "builder": {"kind": "chain", "n_segments": 1},
        "stimuli": [{"node": "A", "amplitude": 6.0e-9, "t_start": 0.5e-3, "duration": 0.2e-3}],
        "probes": ["v(2)"],
        "config": {"t_end": 6.0e-3},
    }


def junction_doc(c_scale):
    return {
        "name": "sweep_junction",
        "builder": {
            "kind": "junction",
            "branch_len": 5,
            "trunk_len": 5,
            "junction_c_scale": c_scale,
        },
        "stimuli": [{"node": "A", "amplitude": 10.0e-9, "t_start": 1.0e-3, "duration": 0.2e-3}],
        "probes": ["Z"],
        "config": {"t_end": 30.0e-3},
        "analysis": {"truth_table": {"inputs": ["A", "B"], "output": "Z"}},
    }


def taper_doc(d_end, direction):
    stim_node, far_probe = ("A", "v(11)") if direction == "forward" else ("Z", "v(2)")
    return {
        "name": f"sweep_taper_{direction}",
        "builder": {"kind": "taper", "n_segments": 10, "d_start": 1.0e-4, "d_end": d_end},
        "stimuli": [{"node": stim_node, "amplitude": 4.0e-9, "t_start": 1.0e-3, "duration": 0.2e-3}],
        "probes": [far_probe],
        "config": {"t_end": 40.0e-3},
    }


# =====================================================================
# Grid and parameter application
# =====================================================================


def test_sweep_values_inclusive_grid():
    assert sweep_values(1.0, 2.0, 5) == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0])
    assert sweep_values(3.0, 9.0, 1) == [3.0]
    with pytest.raises(ScenarioError):
        sweep_values(1.0, 2.0, 0)
    for start, stop in ((math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0), (1.0, -math.inf)):
        with pytest.raises(ScenarioError, match="finite"):
            sweep_values(start, stop, 3)
    with pytest.raises(ScenarioError, match="finite"):
        sweep_values(math.nan, math.nan, 1)


@pytest.mark.parametrize("steps", [2.5, "3", None, sweep._MAX_SWEEP_STEPS + 1, 10**9])
def test_sweep_values_rejects_bad_step_counts(steps):
    with pytest.raises(ScenarioError, match="sweep steps must be a whole number"):
        sweep_values(0.0, 1.0, steps)


def test_sweep_step_bound_is_checked_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError):
            sweep_values(0.0, 1.0, sweep._MAX_SWEEP_STEPS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refused grid would hold 2**16 floats, about 2 MB
    assert peak < 100_000
    assert len(sweep_values(0.0, 1.0, sweep._MAX_SWEEP_STEPS)) == sweep._MAX_SWEEP_STEPS


def no_runs(*_args, **_kwargs):
    raise AssertionError("a rejected sweep must not simulate")


def test_skew_sweep_needs_the_truth_ab_metric(monkeypatch):
    # skew reaches only truth_ab: peak_mv would read the same at every skew
    xor = load_bundled_scenario("fig13_xor")
    monkeypatch.setattr(sweep, "simulate", no_runs)
    monkeypatch.setattr(scenario_module, "truth_table", no_runs)
    for metric in ("peak_mv", "logic", "refine_discrepancy"):
        with pytest.raises(ScenarioError, match="skew sweep needs the truth_ab metric"):
            run_sweep(xor, "skew", [0.0, 2e-3, 6e-3], metric)
    with pytest.raises(ScenarioError, match="skew sweep needs the truth_ab metric"):
        compute_metric(xor, "peak_mv", skew_s=2e-3)


def test_amplitude_sweep_rejects_truth_ab(monkeypatch):
    # truth_ab drives a fixed 10 nA: it would read 1.0 even at 1 pA
    monkeypatch.setattr(scenario_module, "truth_table", no_runs)
    with pytest.raises(ScenarioError, match="cannot follow an amplitude sweep"):
        run_sweep(load_bundled_scenario("fig11_or"), "amplitude", [1e-12, 1e-9, 10e-9], "truth_ab")


def test_apply_amplitude_rewrites_all_stimuli():
    scenario = parse_scenario(chain_doc())
    swept = apply_param(scenario, "amplitude", 3.5e-9)
    assert all(s.amplitude == pytest.approx(3.5e-9) for s in swept.stimuli)
    # the original is untouched
    assert scenario.stimuli[0].amplitude == pytest.approx(6.0e-9)


def test_apply_junction_c_scale():
    scenario = parse_scenario(junction_doc(1.0))
    swept = apply_param(scenario, "junction_c_scale", 0.55)
    assert swept.builder_args["junction_c_scale"] == pytest.approx(0.55)


def test_apply_junction_c_scale_needs_junction():
    with pytest.raises(ScenarioError, match="junction builder"):
        apply_param(parse_scenario(chain_doc()), "junction_c_scale", 0.5)


def test_apply_taper_ratio_sets_end_diameter():
    scenario = parse_scenario(taper_doc(0.5e-4, "forward"))
    swept = apply_param(scenario, "taper_ratio", 1.25)
    assert swept.builder_args["d_end"] == pytest.approx(0.8e-4)


def test_apply_dt():
    scenario = parse_scenario(chain_doc())
    assert apply_param(scenario, "dt", 0.5e-6).config.dt == pytest.approx(0.5e-6)


def test_apply_unknown_param():
    with pytest.raises(ScenarioError, match="unknown sweep parameter"):
        apply_param(parse_scenario(chain_doc()), "frequency", 1.0)


def test_unknown_metric():
    with pytest.raises(ScenarioError, match="unknown sweep metric"):
        compute_metric(parse_scenario(chain_doc()), "sparkle")


# =====================================================================
# Metrics on a single patch
# =====================================================================


def test_patch_metrics_across_launch_boundary(tmp_path):
    scenario = parse_scenario(chain_doc())
    out = tmp_path / "window.csv"
    points = run_sweep(scenario, "amplitude", [2e-9, 6e-9], "logic", out)
    assert [p.metric for p in points] == [0.0, 1.0]
    lines = out.read_text().splitlines()
    assert lines == ["amplitude,logic", "2e-09,0", "6e-09,1"]

    # same boundary seen through the other scalar reductions
    weak = apply_param(scenario, "amplitude", 2e-9)
    strong = apply_param(scenario, "amplitude", 6e-9)
    assert compute_metric(weak, "peak_mv") < -50.0
    assert 45.0 < compute_metric(strong, "peak_mv") < 51.0
    assert compute_metric(weak, "output_pulses") == 0.0
    assert compute_metric(strong, "output_pulses") == 1.0


def test_dispersion_metric_requires_request():
    with pytest.raises(ScenarioError, match="dispersion"):
        compute_metric(parse_scenario(chain_doc()), "dispersion")


def test_dispersion_metric_nan_when_pulse_missing():
    doc = chain_doc()
    doc["builder"]["n_segments"] = 2
    doc["probes"] = ["v(2)", "v(3)"]
    doc["stimuli"][0]["amplitude"] = 2.0e-9  # below the launch window
    doc["analysis"] = {"dispersion": {"early": "v(2)", "late": "v(3)"}}
    value = compute_metric(parse_scenario(doc), "dispersion")
    assert math.isnan(value)


def test_sweep_csv_is_the_per_point_template(tmp_path):
    # amplitudes across decades, all below launch, so every metric is NaN
    doc = chain_doc()
    doc["builder"]["n_segments"] = 2
    doc["probes"] = ["v(2)", "v(3)"]
    doc["analysis"] = {"dispersion": {"early": "v(2)", "late": "v(3)"}}
    scenario = parse_scenario(doc)
    out = tmp_path / "sweep.csv"
    amplitudes = [1e-15, 2.5e-13, 1.23456789e-11, 1e-9]
    points = run_sweep(scenario, "amplitude", amplitudes, "dispersion", out)
    assert all(math.isnan(p.metric) for p in points)
    rows = "".join("%.9g,%.9g\n" % (p.value, p.metric) for p in points)
    assert out.read_bytes() == ("amplitude,dispersion\n" + rows).encode()

    empty = tmp_path / "empty.csv"
    assert run_sweep(scenario, "amplitude", [], "dispersion", empty) == []
    assert empty.read_bytes() == b"amplitude,dispersion\n"


# =====================================================================
# Pinned regression: junction loading boundary
# =====================================================================


def test_junction_transmission_boundary_bracket():
    """Coincident-pulse transmission through the junction flips between
    c_scale 0.63 (quenched, exclusive-OR side) and 0.64 (transmitted,
    inclusive-OR side)."""
    scenario = parse_scenario(junction_doc(1.0))
    points = run_sweep(scenario, "junction_c_scale", [0.63, 0.64], "truth_ab")
    assert [p.metric for p in points] == [0.0, 1.0]


def test_exact_xor_inside_the_quenched_band():
    from solitonsim.network import build_junction

    topo = build_junction(5, 5, junction_c_scale=0.55)
    table = truth_table(topo, ["A", "B"], "Z", config=GATE_CONFIG)
    assert table == {
        (): False,
        ("A",): True,
        ("B",): True,
        ("A", "B"): False,
    }


def test_coincidence_quench_needs_simultaneity():
    """At c_scale 0.55 the A+B row is quenched only when the inputs
    coincide; delaying B lets the lone leading pulse through."""
    scenario = parse_scenario(junction_doc(0.55))
    simultaneous = compute_metric(scenario, "truth_ab", skew_s=0.0)
    staggered = compute_metric(scenario, "truth_ab", skew_s=6e-3)
    assert simultaneous == 0.0
    assert staggered == 1.0


# =====================================================================
# Pinned regression: coincidence gate rejects single inputs
# =====================================================================


@pytest.mark.parametrize("amplitude", [10e-9, 50e-9])
def test_and_gate_single_input_never_fires(amplitude):
    topo = build_and_gate()
    table = truth_table(
        topo, ["A", "B"], "Z", combinations=[("A",)], amplitude=amplitude, config=GATE_CONFIG
    )
    assert table[("A",)] is False


# =====================================================================
# Pinned regression: directional asymmetry on a gentle taper
# =====================================================================


def test_gentle_taper_passes_forward_only():
    """At end diameter 0.70e-4 cm the narrowing line still carries a
    pulse driven from the wide end, while the same amplitudes driven
    from the narrow end die: strict directional asymmetry."""
    forward = parse_scenario(taper_doc(0.70e-4, "forward"))
    reverse = parse_scenario(taper_doc(0.70e-4, "reverse"))
    fwd = run_sweep(forward, "amplitude", [4e-9, 10e-9], "logic")
    rev = run_sweep(reverse, "amplitude", [2e-9, 4e-9, 10e-9], "logic")
    assert [p.metric for p in fwd] == [1.0, 1.0]
    assert [p.metric for p in rev] == [0.0, 0.0, 0.0]
