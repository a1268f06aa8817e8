"""Metamorphic relations: the engine against itself under a transformation
whose effect on the output is known exactly, so no second implementation is
needed (Chen et al., ACM Comput. Surv. 51(1), 2018).

Two relations hold bit for bit:

* time shift: delaying every stimulus by a multiple of the record stride
  delays the recorded voltages and phases by that many samples, and leaves
  the run at exactly rest before it;
* doubling: two identical stimuli at one node are one stimulus of twice the
  amplitude.

Two hold up to rounding (``rounding_bound``):

* splitting: a stimulus cut at a step into two adjacent pieces gives the
  same phases, as the cut adds only a span boundary at which no forcing
  changes;
* superposition below threshold: while every gate stays at REST the line is
  linear, so deviations from rest add, and doubling an amplitude doubles
  its deviation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonsim.engine import Integrator, SimConfig, simulate
from solitonsim.membrane import GateState, MembraneParams
from solitonsim.network import Stimulus, build_chain, build_junction

PARAMS = MembraneParams()


@st.composite
def small_nets(draw):
    """A chain or junction of 1-8 segments, a step, a stride and an integrator,
    drawn as the engine tests' random small runs draw them, except that a
    quarter of the runs last at most 8 steps: shorter than many a net's
    node count, which cuts its table short."""
    if draw(st.booleans()):
        topology = build_chain(draw(st.integers(1, 8)))
    else:
        branch = draw(st.integers(1, 3))
        topology = build_junction(branch, draw(st.integers(1, 8 - 2 * branch)))
    dt = draw(st.sampled_from([1e-6, 2e-6]))
    longest = 8 if draw(st.integers(0, 3)) == 0 else int(round(2e-3 / dt))
    config = SimConfig(
        dt=dt,
        t_end=draw(st.integers(2, longest)) * dt,
        record_stride=draw(st.integers(1, 3)),
        integrator=draw(st.sampled_from([Integrator.TRAPEZOIDAL, Integrator.BACKWARD_EULER])),
    )
    return topology, config


def stimulus(
    draw, topology, config: SimConfig, low: float = -5e-9, high: float = 30e-9, least: int = 1, longest: float = 0.5e-3
) -> Stimulus:
    # on within the run for ``least`` steps to ``longest`` seconds, and on and
    # off half a step before a grid time: every float rounding of the start,
    # the duration, a shift or a cut of them lands on the same step
    dt = config.dt
    start = draw(st.integers(1, round(config.t_end / dt)))
    return Stimulus(
        node=draw(st.sampled_from(topology.node_ids)),
        amplitude=draw(st.floats(low, high)),
        t_start=(start - 0.5) * dt,
        duration=draw(st.integers(least, round(longest / dt))) * dt,
    )


def rounding_bound(topology, config: SimConfig, *waves) -> float:
    """How far (mV) a linear relation among ``waves``, runs of one net, may miss by rounding alone.

    A run's voltages are products over its n_c <= n modes of tables whose
    column j carries at most about 2j ulp (R_j is a cumulative sum of
    cumulative products; r^j is one power), and every block or span start
    rounds the modal state once more, so no voltage carries more than about
    n_steps * n ulp of the largest magnitude |v| met.  An error once made
    never grows: |r| <= 1 in every mode, and the nets drawn here put one
    capacitance on every capacitive node, so their modal map is orthogonal up
    to one scale.  A relation among k runs misses by at most k such errors.
    """
    magnitude = max(float(np.abs(wave.voltages_mv).max()) for wave in waves)
    n_steps = round(config.t_end / config.dt)
    return len(waves) * n_steps * len(topology.node_ids) * float(np.finfo(float).eps) * magnitude


# 80 drawn nets, each run twice: about 0.5 s
@settings(max_examples=80, deadline=None)
@given(net=small_nets(), data=st.data())
def test_delaying_every_stimulus_by_whole_samples_delays_the_record(net, data):
    topology, config = net
    # the first stimulus is strong enough to fire a segment in most runs
    stimuli = [stimulus(data.draw, topology, config, low=8e-9)]
    stimuli += [stimulus(data.draw, topology, config) for _ in range(data.draw(st.integers(0, 2)))]
    samples = data.draw(st.integers(1, 150))
    shift = samples * config.record_stride  # steps
    base = simulate(topology, stimuli, config, PARAMS)
    later = simulate(
        topology,
        [replace(s, t_start=s.t_start + shift * config.dt) for s in stimuli],
        replace(config, t_end=config.t_end + shift * config.dt),
        PARAMS,
    )
    assert len(later.times) == len(base.times) + samples
    assert np.array_equal(later.voltages_mv[samples:], base.voltages_mv)
    assert np.array_equal(later.phases[samples:], base.phases)
    # nothing is driven before the first stimulus: the run sits exactly at rest
    assert np.all(later.voltages_mv[: samples + 1] == PARAMS.v_rest)
    assert np.all(later.phases[: samples + 1] == GateState.REST.value)


# 40 drawn nets, each run twice: about 0.5 s
@settings(max_examples=40, deadline=None)
@given(net=small_nets(), data=st.data())
def test_two_equal_stimuli_at_a_node_are_one_of_twice_the_amplitude(net, data):
    topology, config = net
    pair = stimulus(data.draw, topology, config, low=4e-9)
    others = [stimulus(data.draw, topology, config) for _ in range(data.draw(st.integers(0, 2)))]
    initial_mv = None
    if data.draw(st.booleans()):
        node = data.draw(st.sampled_from(("A",) + topology.node_ids))
        initial_mv = {node: data.draw(st.floats(-100.0, 60.0))}
    # the pair comes first, so each node sums its currents in the same order
    twice = simulate(topology, [pair, pair, *others], config, PARAMS, initial_mv)
    double = simulate(topology, [replace(pair, amplitude=2.0 * pair.amplitude), *others], config, PARAMS, initial_mv)
    assert np.array_equal(twice.voltages_mv, double.voltages_mv)
    assert np.array_equal(twice.phases, double.phases)


# 30 drawn nets, each run twice: about 0.15 s
@settings(max_examples=30, deadline=None)
@given(net=small_nets(), data=st.data())
def test_a_stimulus_cut_in_two_adjacent_pieces_gives_the_same_run(net, data):
    topology, config = net
    whole = stimulus(data.draw, topology, config, low=8e-9, least=2)
    others = [stimulus(data.draw, topology, config) for _ in range(data.draw(st.integers(0, 2)))]
    cut = data.draw(st.integers(1, round(whole.duration / config.dt) - 1)) * config.dt
    later = replace(whole, t_start=whole.t_start + cut, duration=whole.duration - cut)
    pieces = [replace(whole, duration=cut), later]
    base = simulate(topology, [whole, *others], config, PARAMS)
    split = simulate(topology, [*pieces, *others], config, PARAMS)
    assert np.array_equal(split.phases, base.phases)
    deviation = float(np.abs(split.voltages_mv - base.voltages_mv).max())
    assert deviation <= rounding_bound(topology, config, base, split)


# 30 drawn nets, each run four times: about 0.15 s
@settings(max_examples=30, deadline=None)
@given(net=small_nets(), data=st.data())
def test_below_threshold_deviations_from_rest_add_and_scale(net, data):
    topology, config = net
    # no run injects more than 0.2 pC, which lifts a segment's 31 pF head by
    # 6.4 mV at most: less than the 15 mV from rest to the trigger
    first, second = (stimulus(data.draw, topology, config, -1e-9, 1e-9, longest=0.1e-3) for _ in range(2))
    runs = ([first], [second], [first, second], [replace(first, amplitude=2.0 * first.amplitude)])
    waves = [simulate(topology, stimuli, config, PARAMS) for stimuli in runs]
    assert all(np.all(wave.phases == GateState.REST.value) for wave in waves)
    one, two, both, double = (wave.voltages_mv - PARAMS.v_rest for wave in waves)
    bound = rounding_bound(topology, config, *waves)
    assert float(np.abs(both - (one + two)).max()) <= bound
    assert float(np.abs(double - 2.0 * one).max()) <= bound
