"""Transient solver tests against closed-form and step-by-step references."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solitonsim.engine as engine
from oracles import isolated_patch_times, node_capacitances, reference_simulate
from solitonsim.engine import (
    ConvergenceReport,
    Integrator,
    SimConfig,
    Waveform,
    refine_check,
    simulate,
)
from solitonsim.errors import (
    InstabilityError,
    InvalidSpecError,
    NotApplicableError,
    TopologyError,
)
from solitonsim.membrane import GateState, MembraneParams, SegmentSpec
from solitonsim.network import (
    Segment,
    Stimulus,
    Topology,
    build_chain,
    build_junction,
)
from solitonsim.scenario import build_topology, bundled_scenario_names, load_bundled_scenario

PARAMS = MembraneParams()
BOTH_INTEGRATORS = [Integrator.TRAPEZOIDAL, Integrator.BACKWARD_EULER]

# Frozen hand-derived elements of the default segment (see test_membrane).
C_SHUNT = 3.1415926535897936e-11
R_LOSS = 1.0610329539459689e8
R_AXIAL = 1.9989860852342057e8
I_FIRING = 2.315353785695677e-9
I_K = 1.9100883333825944e-9

STIM = Stimulus(node="A", amplitude=10e-9, t_start=1e-3, duration=0.2e-3)


def passive_spec() -> SegmentSpec:
    return SegmentSpec(active=False)


# ---------------------------------------------------------------------
# equilibrium and decay
# ---------------------------------------------------------------------


@pytest.mark.parametrize("integrator", BOTH_INTEGRATORS)
def test_zero_stimulus_equilibrium_is_bit_exact(integrator):
    # 10 segments run in blocks growing from 64 steps, 160 segments in blocks of 25
    config = SimConfig(t_end=5e-3, record_stride=1, integrator=integrator)
    for n_segments in (10, 160):
        wave = simulate(build_chain(n_segments), (), config)
        assert np.all(wave.voltages_mv == -70.0)
        assert np.all(wave.phases == GateState.REST.value)


@pytest.mark.parametrize(
    "integrator,tolerance_mv",
    [(Integrator.TRAPEZOIDAL, 1e-3), (Integrator.BACKWARD_EULER, 5e-2)],
)
def test_passive_rc_decay_matches_closed_form(integrator, tolerance_mv):
    # Single passive segment released from -60 mV: pure exponential back
    # to rest with tau = r_loss * c_shunt = 1/300 s (the areas cancel).
    tau = 1.0 / 300.0
    config = SimConfig(t_end=10e-3, integrator=integrator)
    wave = simulate(build_chain(1, passive_spec()), (), config, initial_mv={"Z": -60.0})
    expected = -70.0 + 10.0 * np.exp(-wave.times / tau)
    error = np.abs(wave.voltage("Z") - expected)
    assert float(error.max()) < tolerance_mv


def test_initial_condition_is_applied_exactly():
    wave = simulate(
        build_chain(1, passive_spec()),
        (),
        SimConfig(t_end=1e-4),
        initial_mv={"Z": -60.0},
    )
    assert wave.voltage("Z")[0] == pytest.approx(-60.0, abs=1e-12)
    assert wave.voltage("A")[0] == pytest.approx(-70.0)


# ---------------------------------------------------------------------
# rail (zero-capacitance) node handling
# ---------------------------------------------------------------------


@pytest.mark.parametrize("integrator", BOTH_INTEGRATORS)
def test_rail_node_tracks_neighbor_through_series_resistance(integrator):
    # The stimulated head rail has no shunt elements, so while current I
    # flows it must sit exactly I * r_axial above its neighbor.
    config = SimConfig(t_end=3e-3, integrator=integrator)
    wave = simulate(build_chain(2, passive_spec()), [STIM], config)
    inside = (wave.times >= 1.02e-3) & (wave.times < 1.18e-3)
    offset_mv = STIM.amplitude * R_AXIAL * 1e3
    gap = wave.voltage("A")[inside] - wave.voltage("v(2)")[inside]
    assert np.allclose(gap, offset_mv, atol=1e-6)
    after = wave.times >= 1.3e-3
    assert np.allclose(wave.voltage("A")[after], wave.voltage("v(2)")[after], atol=1e-9)


# ---------------------------------------------------------------------
# isolated patch against the charge-balance oracle
# ---------------------------------------------------------------------


def phase_event_times(wave: Waveform, segment: int) -> tuple[float, float, float]:
    codes = wave.phase(segment)
    fire = np.flatnonzero(codes == GateState.FIRING.value)
    fall = np.flatnonzero(codes == GateState.FALLING.value)
    assert len(fire) and len(fall)
    after_fall = np.flatnonzero((codes == GateState.REST.value) & (np.arange(len(codes)) > fall[0]))
    assert len(after_fall)
    times = wave.times
    return float(times[fire[0]]), float(times[fall[0]]), float(times[after_fall[0]])


def test_isolated_patch_matches_charge_balance_oracle():
    oracle = isolated_patch_times(
        c_shunt=C_SHUNT,
        r_loss=R_LOSS,
        i_firing=I_FIRING,
        i_falling=-I_K,
        u_trigger=15e-3,
        u_na_cutoff=120e-3,
        u_k_cutoff=-25e-3,
        stim_amplitude=STIM.amplitude,
        stim_start=STIM.t_start,
        stim_duration=STIM.duration,
    )
    config = SimConfig(t_end=25e-3, record_stride=1)
    wave = simulate(build_chain(1), [STIM], config)
    t_fire, t_na, t_k = phase_event_times(wave, 0)
    assert t_fire == pytest.approx(oracle.t_trigger, abs=10e-6)
    assert t_na == pytest.approx(oracle.t_na_cutoff, abs=20e-6)
    assert t_k == pytest.approx(oracle.t_k_cutoff, abs=30e-6)
    # pulse shape sanity: tops out just past the sodium cutoff, undershoots
    # to the potassium cutoff, relaxes back to rest
    v = wave.voltage("Z")
    assert 50.0 <= float(v.max()) <= 51.0
    assert -96.0 <= float(v.min()) <= -95.0
    assert float(v[-1]) == pytest.approx(-70.0, abs=0.5)


def test_patch_timing_is_integrator_independent():
    config_tr = SimConfig(t_end=25e-3, record_stride=1)
    config_be = SimConfig(t_end=25e-3, record_stride=1, integrator=Integrator.BACKWARD_EULER)
    tr = phase_event_times(simulate(build_chain(1), [STIM], config_tr), 0)
    be = phase_event_times(simulate(build_chain(1), [STIM], config_be), 0)
    for a, b in zip(tr, be):
        assert a == pytest.approx(b, abs=50e-6)


def test_gate_phase_changes_only_after_a_true_crossing():
    config = SimConfig(t_end=25e-3, record_stride=1)
    wave = simulate(build_chain(1), [STIM], config)
    codes = wave.phase(0)
    first_active = int(np.flatnonzero(codes != GateState.REST.value)[0])
    assert codes[first_active] == GateState.FIRING.value
    assert np.all(codes[:first_active] == GateState.REST.value)
    # the sample that switched the gate is at or past the trigger level
    assert wave.voltage("Z")[first_active] >= -55.0
    assert np.all(wave.voltage("Z")[: first_active] < -55.0)


# ---------------------------------------------------------------------
# conservation-style properties
# ---------------------------------------------------------------------


@pytest.mark.parametrize("integrator", BOTH_INTEGRATORS)
def test_passive_network_energy_never_increases(integrator):
    topo = build_chain(5, passive_spec())
    caps = node_capacitances(topo, PARAMS)
    config = SimConfig(t_end=10e-3, integrator=integrator)
    wave = simulate(topo, (), config, initial_mv={"v(3)": -50.0})
    c = np.array([caps[node] for node in wave.node_ids])
    u = (wave.voltages_mv + 70.0) * 1e-3
    energy = 0.5 * np.sum(c * u * u, axis=1)
    assert np.all(np.diff(energy) <= 1e-24)


def test_capacitive_node_voltages_stay_inside_switching_bounds():
    # Switched sources can overshoot the cutoffs by at most one step's
    # worth of charging; 10 mV margin is generous.  Bare stimulus rails
    # are excluded: they sit wherever the series drop puts them.
    topo = build_chain(10)
    caps = node_capacitances(topo, PARAMS)
    wave = simulate(topo, [STIM], SimConfig(t_end=30e-3))
    for node in topo.node_ids:
        if caps[node] > 0.0:
            v = wave.voltage(node)
            assert float(v.min()) >= -105.0
            assert float(v.max()) <= 60.0


def test_simulation_is_bit_deterministic():
    config = SimConfig(t_end=10e-3)
    a = simulate(build_chain(5), [STIM], config)
    b = simulate(build_chain(5), [STIM], config)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.voltages_mv, b.voltages_mv)
    assert np.array_equal(a.phases, b.phases)


# ---------------------------------------------------------------------
# recording grid
# ---------------------------------------------------------------------


def test_recording_grid_and_stride():
    config = SimConfig(t_end=2e-3, record_stride=10)
    wave = simulate(build_chain(2), (), config)
    assert len(wave.times) == 201
    assert wave.times[0] == 0.0
    assert wave.times[-1] == pytest.approx(2e-3, rel=1e-12)
    assert np.allclose(np.diff(wave.times), 1e-5, rtol=1e-12)
    assert wave.voltages_mv.shape == (201, 3)
    assert wave.phases.shape == (201, 2)


# ---------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------


def test_isolated_bare_node_is_reported_as_degenerate():
    spec = SegmentSpec()
    topo = Topology(node_ids=(1, 2, 3), segments=(Segment(1, 2, spec),))
    with pytest.raises(TopologyError):
        simulate(topo, (), SimConfig(t_end=1e-3))


def test_overflowing_conductances_are_rejected():
    # every element is finite, but 1/r_axial at each node overflows to inf
    spec = SegmentSpec(length=1e-10, diameter=1.5e150)
    with pytest.raises(InvalidSpecError, match="overflow"):
        simulate(build_chain(2, spec), (), SimConfig(t_end=1e-3))


def test_non_finite_stimulus_raises_instability_with_step_index():
    stim = Stimulus(node="A", amplitude=float("inf"), t_start=0.0, duration=1e-3)
    with pytest.raises(InstabilityError) as err:
        simulate(build_chain(2), [stim], SimConfig(t_end=1e-3))
    assert err.value.step == 1


def test_stimulus_at_unknown_node_is_rejected():
    stim = Stimulus(node=99, amplitude=10e-9, t_start=0.0, duration=1e-3)
    with pytest.raises(TopologyError):
        simulate(build_chain(2), [stim], SimConfig(t_end=1e-3))


@pytest.mark.parametrize("node", ["nope", 99])
def test_initial_voltage_at_unknown_node_is_rejected(node):
    with pytest.raises(TopologyError):
        simulate(build_chain(2), (), SimConfig(t_end=1e-3), initial_mv={node: 0.0})


@pytest.mark.parametrize("mv", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_voltage_is_an_invalid_spec(mv):
    # a bad input, not a solver failure: no InstabilityError at step 1
    with pytest.raises(InvalidSpecError, match="initial voltage at 'A' must be finite"):
        simulate(build_chain(2), (), SimConfig(t_end=1e-3), initial_mv={"A": mv})


@pytest.mark.parametrize(
    "t_end,dt,stride,n_samples",
    [
        (1.5e-6, 1e-6, 1, 2),  # one step, not two to 2e-6
        (3e-3, 0.55e-6, 10, 546),  # 5454.5 steps
        (3e-3, 2.2e-6, 10, 137),  # 1363.6 steps
    ],
)
def test_off_grid_t_end_stops_at_t_end(t_end, dt, stride, n_samples):
    wave = simulate(build_chain(1), (), SimConfig(dt=dt, t_end=t_end, record_stride=stride))
    assert len(wave.times) == n_samples
    assert wave.times[-1] <= t_end
    assert wave.times[-1] + stride * dt > t_end


@pytest.mark.parametrize("t_end", [25e-3, math.nextafter(3e-3, 0.0), 0.3e-3])
def test_on_grid_t_end_keeps_its_last_step(t_end):
    # 25e-3 / 1e-6 is 25000.000000000004; the nextafter quotient falls a few ulps short of 3000
    wave = simulate(build_chain(1), (), SimConfig(dt=1e-6, t_end=t_end, record_stride=1))
    assert len(wave.times) == round(t_end / 1e-6) + 1


def test_waveform_lookup_errors():
    wave = simulate(build_chain(2), (), SimConfig(t_end=1e-3))
    with pytest.raises(NotApplicableError):
        wave.column("v(99)")
    with pytest.raises(NotApplicableError):
        wave.column(99)
    with pytest.raises(NotApplicableError):
        wave.phase(5)


@pytest.mark.parametrize(
    "n_segments,config",
    [
        (20_000, SimConfig()),  # the dense conductance matrix alone: 4e8 floats
        (2, SimConfig(dt=1e-12, t_end=1.0, record_stride=10**12)),  # 1e12 steps
        (2, SimConfig(dt=5e-324, t_end=1.0)),  # t_end / dt is inf
    ],
    ids=["nodes", "steps", "steps_overflow"],
)
def test_run_over_the_memory_budget_is_rejected_before_allocating(n_segments, config):
    with pytest.raises(InvalidSpecError, match="floats"):
        simulate(build_chain(n_segments), [STIM], config)
    # the largest run benchmarked, 161 nodes recorded at 5,001 steps, stays far below
    assert 100 * (161 * 161 + 5001 + 5001 * 161) < engine._MAX_RUN_FLOATS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"dt": -1e-6},
        {"t_end": 1e-6},
        {"record_stride": 0},
        {"dt": math.nan},
        {"dt": math.inf},
        {"t_end": math.nan},
        {"t_end": math.inf},
        {"record_stride": math.nan},
        {"record_stride": math.inf},
        {"record_stride": 2.5},
    ],
)
def test_sim_config_validation(kwargs):
    with pytest.raises(InvalidSpecError):
        SimConfig(**kwargs)


# ---------------------------------------------------------------------
# refinement check
# ---------------------------------------------------------------------


def test_refine_check_is_silent_at_equilibrium():
    report = refine_check(build_chain(3), (), SimConfig(t_end=2e-3))
    assert report.max_discrepancy_mv == 0.0
    assert report.firing_shift_s == 0.0
    assert report.events_diverged is False


def test_refine_check_flags_a_grossly_coarse_step():
    config = SimConfig(dt=1e-3, t_end=20e-3, record_stride=1)
    report = refine_check(build_chain(1), [STIM], config)
    assert report.events_diverged or report.max_discrepancy_mv > 10.0


def test_refine_check_reports_small_discrepancy_at_default_step():
    config = SimConfig(t_end=8e-3, record_stride=1)
    report = refine_check(build_chain(1), [STIM], config)
    assert isinstance(report, ConvergenceReport)
    assert report.max_discrepancy_mv < 1.0
    assert not report.events_diverged


# ---------------------------------------------------------------------
# block propagator against the step-by-step reference
# ---------------------------------------------------------------------


def scenario_run(name: str, **config_changes):
    scenario = load_bundled_scenario(name)
    config = replace(scenario.config, **config_changes)
    return build_topology(scenario), scenario.stimuli, config, scenario.params


def assert_matches_reference(wave: Waveform, reference) -> None:
    times, voltages_mv, phases = reference
    assert np.array_equal(wave.times, times)
    assert np.array_equal(wave.phases, phases)
    assert float(np.abs(wave.voltages_mv - voltages_mv).max()) < 1e-9


@pytest.mark.parametrize("integrator", BOTH_INTEGRATORS)
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_match_step_by_step_reference(name, integrator):
    run = scenario_run(name, record_stride=1, integrator=integrator)
    assert_matches_reference(simulate(*run), reference_simulate(*run))


def test_long_chain_matches_step_by_step_reference():
    # 161 nodes: blocks of at most 25 steps, many gate events per block
    stimuli = [
        Stimulus(node="A", amplitude=10e-9, t_start=0.1e-3, duration=0.2e-3),
        Stimulus(node="v(81)", amplitude=12e-9, t_start=0.4e-3, duration=0.2e-3),
    ]
    run = (build_chain(160), stimuli, SimConfig(t_end=2.5e-3, record_stride=1), PARAMS)
    assert_matches_reference(simulate(*run), reference_simulate(*run))


def floating_node_chain() -> Topology:
    # a capacitive node that no segment touches: a zero-conductance mode
    chain = build_chain(4)
    return Topology(
        node_ids=chain.node_ids + (99,),
        segments=chain.segments,
        labels={**chain.labels, "F": 99},
        extra_c={99: 30e-12},
    )


def railless_chain() -> Topology:
    # shunt capacitance on the input node too: no bare rail is left
    chain = build_chain(4)
    return replace(chain, extra_c={chain.resolve("A"): 10e-12})


def rail_feeding_two_branches() -> Topology:
    # one bare rail tails two segments: K couples the two branch heads
    wiring = ((1, 2), (2, 3), (1, 4), (4, 5))
    segments = tuple(Segment(tail, head, SegmentSpec()) for tail, head in wiring)
    return Topology(node_ids=(1, 2, 3, 4, 5), segments=segments, labels={"A": 1})


EDGE_CASES = {
    "initial_beside_rail": (build_chain(4), [STIM], {"v(2)": -50.0}),
    "initial_at_rail": (build_chain(4), [STIM], {"A": -20.0}),
    "rail_stimulus_at_zero": (build_chain(4), [replace(STIM, t_start=0.0)], None),
    "no_rails": (railless_chain(), [replace(STIM, t_start=0.0)], {"A": -60.0}),
    "floating_node": (
        floating_node_chain(),
        [STIM, Stimulus(node="F", amplitude=5e-9, t_start=0.5e-3, duration=0.5e-3)],
        {"F": -60.0},
    ),
    "rail_feeding_two_branches": (rail_feeding_two_branches(), [STIM], None),
}


@pytest.mark.parametrize("integrator", BOTH_INTEGRATORS)
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_step_by_step_reference(case, integrator):
    topology, stimuli, initial_mv = EDGE_CASES[case]
    config = SimConfig(t_end=4e-3, record_stride=1, integrator=integrator)
    wave = simulate(topology, stimuli, config, PARAMS, initial_mv)
    assert_matches_reference(wave, reference_simulate(topology, stimuli, config, PARAMS, initial_mv))
    assert np.any(wave.phases != GateState.REST.value)


@pytest.mark.parametrize("name", ["fig7_chain", "fig11_or"])
def test_one_step_blocks_give_the_same_run(monkeypatch, name):
    run = scenario_run(name)
    wave = simulate(*run)
    monkeypatch.setattr(engine, "_BLOCK_FLOATS", 0)
    single = simulate(*run)
    assert np.array_equal(single.times, wave.times)
    assert np.array_equal(single.phases, wave.phases)
    assert float(np.abs(single.voltages_mv - wave.voltages_mv).max()) < 1e-9


@st.composite
def small_runs(draw):
    """A chain or junction of 1-8 segments, 1-3 stimuli, either integrator."""
    if draw(st.booleans()):
        topology = build_chain(draw(st.integers(1, 8)))
    else:
        branch = draw(st.integers(1, 3))
        topology = build_junction(branch, draw(st.integers(1, 8 - 2 * branch)))
    dt = draw(st.sampled_from([1e-6, 2e-6]))
    t_end = draw(st.integers(2, int(round(2e-3 / dt)))) * dt
    stimuli = [
        Stimulus(
            node=draw(st.sampled_from(topology.node_ids)),
            amplitude=draw(st.floats(-5e-9, 30e-9)),
            t_start=draw(st.one_of(st.just(0.0), st.floats(0.0, t_end))),
            duration=draw(st.floats(dt / 2, 0.5e-3)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    config = SimConfig(
        dt=dt,
        t_end=t_end,
        record_stride=draw(st.integers(1, 3)),
        integrator=draw(st.sampled_from(BOTH_INTEGRATORS)),
    )
    return topology, stimuli, config, PARAMS


# a reference run of 2 ms costs about 55 ms; 150 drawn runs take about 2 s
@settings(max_examples=150, deadline=None)
@given(run=small_runs())
def test_random_small_nets_match_step_by_step_reference(run):
    assert_matches_reference(simulate(*run), reference_simulate(*run))


def test_transition_on_a_recorded_row_with_stride():
    topology, stimuli, config, params = scenario_run("fig1_patch", record_stride=1)
    fine = simulate(topology, stimuli, config, params)
    event_steps = np.flatnonzero(np.diff(fine.phases[:, 0]) != 0) + 1
    stride = next(s for s in range(2, 50) if np.any(event_steps % s == 0))
    coarse_config = replace(config, record_stride=stride)
    coarse = simulate(topology, stimuli, coarse_config, params)
    # the recorded row of the transition step already shows the new phase
    row = int(event_steps[event_steps % stride == 0][0]) // stride
    assert coarse.phases[row, 0] != coarse.phases[row - 1, 0]
    assert np.array_equal(coarse.phases, fine.phases[::stride])
    assert np.array_equal(coarse.voltages_mv, fine.voltages_mv[::stride])
    assert_matches_reference(coarse, reference_simulate(topology, stimuli, coarse_config, params))
