"""Feature-extraction tests against hand-built waveforms.

The synthetic traces are piecewise linear with breakpoints chosen so every
interpolated crossing, width, and slope has a closed-form value; those
values are frozen into the assertions.  Simulator-backed cases (truth
tables, translation invariance) sit at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from solitonsim import (
    GateState,
    NotApplicableError,
    SimConfig,
    Stimulus,
    TopologyError,
    analysis,
    build_chain,
    build_junction,
    detect_pulses,
    dispersion_metric,
    first_phase_time,
    logic_output,
    rising_edge_slope,
    simulate,
    truth_table,
)
from solitonsim.engine import Waveform

MS = 1e-3


def make_waveform(times_ms, volts_by_node, labels=None, phases=None, rest_mv=-70.0):
    times = np.asarray(times_ms, dtype=float) * MS
    node_ids = tuple(volts_by_node)
    voltages = np.column_stack(
        [np.asarray(volts_by_node[n], dtype=float) for n in node_ids]
    )
    if phases is None:
        phases = np.zeros((len(times), 1), dtype=np.uint8)
    return Waveform(
        times=times,
        voltages_mv=voltages,
        node_ids=node_ids,
        phases=np.asarray(phases, dtype=np.uint8),
        labels=dict(labels or {}),
        rest_mv=rest_mv,
    )


# ---------------------------------------------------------------------------
# pulse detection on synthetic traces
# ---------------------------------------------------------------------------

# Symmetric triangle: 25 mV/ms up to +30 at t = 6 ms, 25 mV/ms down.
# The -20 mV samples at t = 4 and 8 ms sit exactly on the default
# threshold and on the half level (30 - 70)/2 = -20, so onset and both
# half-crossings land on whole milliseconds.
TRIANGLE = [-70.0, -70.0, -70.0, -45.0, -20.0, 5.0, 30.0, 5.0, -20.0, -45.0, -70.0]

# Asymmetric: 30 mV/ms rise to +20 at t = 5 ms, 15 mV/ms fall.
# Onset (level -20 between -40 and -10): t = 3 + 20/30 ms.
# Half level (20 - 70)/2 = -25: left crossing 3.5 ms, right exactly 8 ms.
SAWTOOTH = [-70.0, -70.0, -70.0, -40.0, -10.0, 20.0, 5.0, -10.0, -25.0, -40.0, -55.0, -70.0, -70.0]


def test_triangle_pulse_exact_features():
    wave = make_waveform(range(11), {7: TRIANGLE}, labels={"out": 7})
    events = detect_pulses(wave, "out")
    assert len(events) == 1
    ev = events[0]
    assert ev.node == 7
    assert ev.t_onset == pytest.approx(4.0 * MS, rel=1e-12)
    assert ev.t_peak == pytest.approx(6.0 * MS, rel=1e-12)
    assert ev.v_peak == pytest.approx(30.0, rel=1e-12)
    assert ev.fwhm == pytest.approx(4.0 * MS, rel=1e-12)


def test_sawtooth_pulse_interpolated_features():
    wave = make_waveform(range(13), {1: SAWTOOTH})
    (ev,) = detect_pulses(wave, 1)
    assert ev.t_onset == pytest.approx((3.0 + 20.0 / 30.0) * MS, rel=1e-12)
    assert ev.t_peak == pytest.approx(5.0 * MS, rel=1e-12)
    assert ev.v_peak == pytest.approx(20.0, rel=1e-12)
    assert ev.fwhm == pytest.approx((8.0 - 3.5) * MS, rel=1e-12)


def test_detection_threshold_is_strict_and_configurable():
    wave = make_waveform(range(11), {7: TRIANGLE})
    # samples equal to the level do not count as above it, and a run whose
    # previous sample sits on the level starts at that sample's time
    assert detect_pulses(wave, 7, threshold_mv=30.0) == []
    on_level = make_waveform(range(4), {1: [-70.0, -20.0, 30.0, -70.0]})
    assert [ev.t_onset for ev in detect_pulses(on_level, 1)] == [on_level.times[1]]
    # a raised threshold moves the onset but not the half-height width
    (ev,) = detect_pulses(wave, 7, threshold_mv=0.0)
    assert ev.t_onset == pytest.approx(4.8 * MS, rel=1e-12)
    assert ev.fwhm == pytest.approx(4.0 * MS, rel=1e-12)


def test_flat_and_subthreshold_traces_yield_nothing():
    flat = make_waveform(range(6), {1: [-70.0] * 6})
    assert detect_pulses(flat, 1) == []
    blip = make_waveform(range(5), {1: [-70.0, -50.0, -30.0, -50.0, -70.0]})
    assert detect_pulses(blip, 1) == []
    assert not logic_output(blip, 1)


def test_two_pulses_reported_in_time_order():
    v = TRIANGLE + [-70.0] + TRIANGLE
    wave = make_waveform(range(len(v)), {4: v})
    events = detect_pulses(wave, 4)
    assert len(events) == 2
    assert events[0].t_onset == pytest.approx(4.0 * MS, rel=1e-12)
    assert events[1].t_onset == pytest.approx(16.0 * MS, rel=1e-12)
    assert events[0].fwhm == pytest.approx(events[1].fwhm, rel=1e-12)
    assert logic_output(wave, 4)


def test_pulse_clipped_by_record_end():
    # still rising at the final sample: width runs to the record edge
    v = [-70.0, -70.0, -40.0, -10.0, 20.0]
    wave = make_waveform(range(5), {1: v})
    (ev,) = detect_pulses(wave, 1)
    assert ev.t_peak == pytest.approx(4.0 * MS, rel=1e-12)
    # half level -25 crossed between t = 2 and 3 at 2.5 ms
    assert ev.fwhm == pytest.approx((4.0 - 2.5) * MS, rel=1e-12)


def test_pulse_starting_at_first_sample_uses_record_start():
    v = [20.0, 5.0, -10.0, -25.0, -40.0, -70.0]
    wave = make_waveform(range(6), {1: v})
    (ev,) = detect_pulses(wave, 1)
    assert ev.t_onset == 0.0
    assert ev.t_peak == 0.0


def features_by_loop(wave, node, event, threshold):
    """Onset and FWHM found by walking from the peak one sample at a time."""
    v, t = wave.voltage(node), wave.times

    def between(j, level):  # v[j] and v[j + 1] straddle the level
        return t[j] + (level - v[j]) / (v[j + 1] - v[j]) * (t[j + 1] - t[j])

    peak = int(np.flatnonzero(t == event.t_peak)[0])
    j = peak
    while j > 0 and v[j - 1] > threshold:
        j -= 1
    t_onset = t[0] if j == 0 else between(j - 1, threshold)
    half = 0.5 * (event.v_peak + wave.rest_mv)
    j = peak
    while j > 0 and v[j - 1] > half:
        j -= 1
    t_left = t[0] if j == 0 else between(j - 1, half)
    j, last = peak, len(v) - 1
    while j < last and v[j + 1] > half:
        j += 1
    t_right = t[last] if j == last else between(j, half)
    return float(t_onset), float(t_right - t_left)


@pytest.mark.parametrize(
    "v",
    [
        TRIANGLE,  # half height -20 equals two samples
        SAWTOOTH,
        [-70.0, -10.0, 30.0, 30.0, 30.0, -10.0, -70.0],  # flat top
        [-70.0, -20.0, -20.0, 30.0, -20.0, -20.0, -70.0],  # plateaus at half height
        [-70.0, -10.0, -10.0, -10.0, 30.0, -10.0, -10.0, -70.0],  # plateaus above it
        [30.0, 5.0, -30.0, -70.0],  # clipped by the record start
        [-70.0, -30.0, 5.0, 30.0],  # clipped by the record end
        [10.0, 20.0, 30.0, 20.0],  # above half height from end to end
        # the low second pulse's half height (-40) lies before the first pulse
        [-70.0, -50.0, 30.0, -30.0, -10.0, -30.0, -70.0],
        TRIANGLE + [-70.0] + TRIANGLE,
        [-70.0, -20.0, 30.0, -70.0],  # the sample before the run sits on the threshold
    ],
)
def test_half_height_search_matches_the_sample_walk(v):
    wave = make_waveform(range(len(v)), {1: v})
    events = detect_pulses(wave, 1, threshold_mv=-20.0)
    assert events
    assert [(ev.t_onset, ev.fwhm) for ev in events] == [
        features_by_loop(wave, 1, ev, -20.0) for ev in events
    ]


def test_unknown_node_rejected():
    wave = make_waveform(range(6), {1: [-70.0] * 6}, labels={"A": 1})
    with pytest.raises(NotApplicableError):
        detect_pulses(wave, "B")
    with pytest.raises(NotApplicableError):
        detect_pulses(wave, 99)


# ---------------------------------------------------------------------------
# dispersion metric
# ---------------------------------------------------------------------------


def test_dispersion_same_node_is_zero():
    wave = make_waveform(range(11), {7: TRIANGLE})
    assert dispersion_metric(wave, 7, 7) == 0.0


def test_dispersion_between_synthetic_widths():
    pad = [-70.0, -70.0]
    wave = make_waveform(
        range(13), {1: TRIANGLE + pad, 2: SAWTOOTH}
    )
    # widths 4.0 ms and 4.5 ms -> |4.5 - 4| / 4
    assert dispersion_metric(wave, 1, 2) == pytest.approx(0.125, rel=1e-12)


def test_dispersion_requires_exactly_one_pulse():
    v2 = TRIANGLE + [-70.0] + TRIANGLE
    wave = make_waveform(
        range(23),
        {1: TRIANGLE + [-70.0] * 12, 2: v2, 3: [-70.0] * 23},
    )
    with pytest.raises(NotApplicableError):
        dispersion_metric(wave, 1, 3)  # zero pulses late
    with pytest.raises(NotApplicableError):
        dispersion_metric(wave, 2, 1)  # two pulses early


# ---------------------------------------------------------------------------
# rising-edge slope
# ---------------------------------------------------------------------------


def test_rising_edge_slope_exact_on_synthetics():
    tri = make_waveform(range(11), {7: TRIANGLE})
    assert rising_edge_slope(tri, 7) == pytest.approx(25.0 / MS, rel=1e-12)
    saw = make_waveform(range(13), {1: SAWTOOTH})
    assert rising_edge_slope(saw, 1) == pytest.approx(30.0 / MS, rel=1e-12)


def test_rising_edge_slope_needs_a_pulse():
    flat = make_waveform(range(6), {1: [-70.0] * 6})
    with pytest.raises(NotApplicableError):
        rising_edge_slope(flat, 1)


# ---------------------------------------------------------------------------
# phase lookup
# ---------------------------------------------------------------------------


def test_first_phase_time_reads_phase_column():
    phases = np.zeros((6, 2), dtype=np.uint8)
    phases[3:, 0] = GateState.FIRING.value
    phases[5, 0] = GateState.FALLING.value
    wave = make_waveform(range(6), {1: [-70.0] * 6}, phases=phases)
    assert first_phase_time(wave, 0, GateState.FIRING) == pytest.approx(3.0 * MS)
    assert first_phase_time(wave, 0, GateState.FALLING) == pytest.approx(5.0 * MS)
    assert first_phase_time(wave, 1, GateState.FIRING) is None
    with pytest.raises(NotApplicableError):
        first_phase_time(wave, 2, GateState.FIRING)


# ---------------------------------------------------------------------------
# simulator-backed properties
# ---------------------------------------------------------------------------

GATE_CONFIG = SimConfig(t_end=30e-3)


def stim(node, amplitude=10e-9, t_start=1e-3):
    return Stimulus(node=node, amplitude=amplitude, t_start=t_start, duration=0.2e-3)


def test_detection_is_time_translation_invariant():
    chain = build_chain(3)
    early = simulate(chain, [stim("A", t_start=1e-3)], SimConfig(t_end=12e-3))
    late = simulate(chain, [stim("A", t_start=3e-3)], SimConfig(t_end=14e-3))
    for node in ("v(2)", "v(3)", "v(4)"):
        a = detect_pulses(early, node)
        b = detect_pulses(late, node)
        assert len(a) == len(b) == 1
        assert b[0].t_onset - a[0].t_onset == pytest.approx(2e-3, abs=1e-9)
        assert b[0].t_peak - a[0].t_peak == pytest.approx(2e-3, abs=1e-9)
        assert b[0].v_peak == pytest.approx(a[0].v_peak, abs=1e-9)
        assert b[0].fwhm == pytest.approx(a[0].fwhm, abs=1e-9)


def test_or_junction_truth_table():
    table = truth_table(build_junction(5, 5), ["A", "B"], "Z", config=GATE_CONFIG)
    assert table == {
        (): False,
        ("A",): True,
        ("B",): True,
        ("A", "B"): True,
    }


def test_or_gate_input_symmetry():
    top = build_junction(5, 5)
    table = truth_table(
        top, ["A", "B"], "Z", combinations=[("A",), ("B",)], config=GATE_CONFIG
    )
    assert table[("A",)] == table[("B",)]


def test_or_gate_amplitude_monotone_inside_window():
    top = build_junction(5, 5)
    outputs = [
        truth_table(
            top,
            ["A", "B"],
            "Z",
            combinations=[("A",)],
            amplitude=amp,
            config=GATE_CONFIG,
        )[("A",)]
        for amp in (4e-9, 6e-9, 10e-9)
    ]
    assert outputs == [True, True, True]


def test_truth_table_explicit_combinations():
    top = build_junction(5, 5)
    table = truth_table(
        top, ["A", "B"], "Z",
        combinations=[(), ("A", "B")],
        config=GATE_CONFIG,
    )
    assert set(table) == {(), ("A", "B")}
    assert table[()] is False
    assert table[("A", "B")] is True


def test_truth_table_unknown_input_is_a_topology_error(monkeypatch):
    monkeypatch.setattr(analysis, "simulate", lambda *a, **k: pytest.fail("simulated a row"))
    with pytest.raises(TopologyError, match="unknown node label 'Q'"):
        truth_table(build_junction(5, 5), ["A", "Q"], "Z")


def test_truth_table_unknown_output_is_a_topology_error(monkeypatch):
    monkeypatch.setattr(analysis, "simulate", lambda *a, **k: pytest.fail("simulated a row"))
    with pytest.raises(TopologyError, match="truth table output: unknown node label 'Q'"):
        truth_table(build_junction(5, 5), ["A", "B"], "Q")


def test_truth_table_skew_delays_one_input():
    # a 2 ms skew between OR inputs still produces an output pulse
    table = truth_table(
        build_junction(5, 5),
        ["A", "B"],
        "Z",
        combinations=[("A", "B")],
        skew={"B": 2e-3},
        config=GATE_CONFIG,
    )
    assert table[("A", "B")] is True
