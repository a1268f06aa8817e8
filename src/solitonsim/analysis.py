"""Waveform feature extraction and logic classification.

A "pulse" is a maximal interval where a node's voltage sits above the
detection threshold (default -20 mV, far above rest and far below peak, so
the classification is insensitive to the exact value).  The onset and both
edges at half height (midway from rest to the recorded peak) are interpolated
linearly between the samples around each crossing; they clamp to the record's ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import SimConfig, Waveform, simulate
from .errors import NotApplicableError, TopologyError
from .membrane import GateState, MembraneParams
from .network import NodeId, Stimulus, Topology

DEFAULT_THRESHOLD_MV = -20.0


@dataclass(frozen=True)
class PulseEvent:
    """One detected pulse at one node.

    Attributes:
        node: node id the pulse was seen at.
        t_onset: first upward crossing of the detection threshold, seconds.
        t_peak: time of the maximum, seconds.
        v_peak: maximum voltage, millivolts.
        fwhm: full width at half maximum, seconds; half height is midway
            between v_peak and the resting level.
    """

    node: NodeId
    t_onset: float
    t_peak: float
    v_peak: float
    fwhm: float


def _crossing(t: np.ndarray, v: np.ndarray, i: int, level: float) -> float:
    """Time ``v`` crosses ``level``, linear between samples i - 1 and i; i = 0 or len(v) clamps."""
    if i == 0:
        return float(t[0])
    if i == len(v):
        return float(t[-1])
    return float(t[i - 1] + (level - v[i - 1]) / (v[i] - v[i - 1]) * (t[i] - t[i - 1]))


def detect_pulses(
    waveform: Waveform,
    node: NodeId | str,
    threshold_mv: float = DEFAULT_THRESHOLD_MV,
) -> list[PulseEvent]:
    """Find every pulse at a node, in time order.

    Args:
        waveform: recorded transient.
        node: node id or label.
        threshold_mv: detection level; a pulse is a maximal run of samples
            strictly above it.

    Returns:
        One PulseEvent per run, possibly empty.  A run truncated by the
        end of the record is still reported, with its width measured to
        the last sample.
    """
    col = waveform.column(node)
    v = waveform.voltages_mv[:, col]
    t = waveform.times
    above = np.flatnonzero(v > threshold_mv)
    if len(above) == 0:
        return []
    run_breaks = np.flatnonzero(np.diff(above) > 1)
    runs = np.split(above, run_breaks + 1)

    events = []
    for run in runs:
        i0, i1 = int(run[0]), int(run[-1])
        peak = i0 + int(np.argmax(v[i0 : i1 + 1]))
        v_peak = float(v[peak])
        # left: one past the last sample at or below half before the peak; right: the first after
        half = 0.5 * (v_peak + waveform.rest_mv)
        below = np.flatnonzero(v[:peak] <= half)
        left = int(below[-1]) + 1 if len(below) else 0
        below = np.flatnonzero(v[peak + 1 :] <= half)
        right = peak + 1 + int(below[0]) if len(below) else len(v)
        events.append(
            PulseEvent(
                node=waveform.node_ids[col],
                t_onset=_crossing(t, v, i0, threshold_mv),
                t_peak=float(t[peak]),
                v_peak=v_peak,
                fwhm=_crossing(t, v, right, half) - _crossing(t, v, left, half),
            )
        )
    return events


def logic_output(
    waveform: Waveform,
    output_node: NodeId | str,
    threshold_mv: float = DEFAULT_THRESHOLD_MV,
) -> bool:
    """True when at least one pulse reached the output node."""
    return bool(np.any(waveform.voltage(output_node) > threshold_mv))


def dispersion_metric(
    waveform: Waveform,
    early_node: NodeId | str,
    late_node: NodeId | str,
    threshold_mv: float = DEFAULT_THRESHOLD_MV,
) -> float:
    """Relative width change between two probe nodes.

    Both nodes must carry exactly one pulse; a soliton-like line keeps
    this number small.

    Raises:
        NotApplicableError: a node has zero or several pulses.
    """
    early = detect_pulses(waveform, early_node, threshold_mv)
    late = detect_pulses(waveform, late_node, threshold_mv)
    if len(early) != 1 or len(late) != 1:
        raise NotApplicableError(
            "dispersion needs exactly one pulse per node, got "
            f"{len(early)} at {early_node!r} and {len(late)} at {late_node!r}"
        )
    return abs(late[0].fwhm - early[0].fwhm) / early[0].fwhm


def rising_edge_slope(
    waveform: Waveform,
    node: NodeId | str,
    threshold_mv: float = DEFAULT_THRESHOLD_MV,
) -> float:
    """Steepest sample-to-sample slope on the first pulse's rise, mV/s.

    Measured between the pulse onset and its peak.

    Raises:
        NotApplicableError: no pulse, or the rise spans fewer than two
            samples.
    """
    pulses = detect_pulses(waveform, node, threshold_mv)
    if not pulses:
        raise NotApplicableError(f"no pulse at {node!r}")
    first = pulses[0]
    t = waveform.times
    v = waveform.voltage(node)
    lo = int(np.searchsorted(t, first.t_onset, side="left"))
    hi = int(np.searchsorted(t, first.t_peak, side="right"))
    if hi - lo < 2:
        raise NotApplicableError(f"rise at {node!r} spans fewer than two samples")
    return float(np.max(np.diff(v[lo:hi]) / np.diff(t[lo:hi])))


def first_phase_time(
    waveform: Waveform, segment_index: int, phase: GateState, *, after: float = -math.inf
) -> float | None:
    """Time of the first sample later than ``after`` where a segment's gate shows ``phase``."""
    hits = np.flatnonzero((waveform.phase(segment_index) == phase) & (waveform.times > after))
    if len(hits) == 0:
        return None
    return float(waveform.times[hits[0]])


def truth_table(
    topology: Topology,
    inputs: Sequence[str],
    output: NodeId | str,
    combinations: Sequence[Sequence[str]] | None = None,
    *,
    amplitude: float = 10e-9,
    t_start: float = Stimulus.t_start,
    skew: Mapping[str, float] | None = None,
    config: SimConfig = SimConfig(),
    params: MembraneParams | None = None,
    threshold_mv: float = DEFAULT_THRESHOLD_MV,
) -> dict[tuple[str, ...], bool]:
    """Drive every input combination and classify the output node.

    One simulation per combination.  Each selected input receives an
    identical rectangular stimulus starting at ``t_start`` (shifted by its
    ``skew`` entry, if any) and lasting Stimulus's default duration, so
    unskewed inputs pulse simultaneously.

    Args:
        topology: gate network.
        inputs: input node labels.
        output: node whose pulses define the logic value.
        combinations: rows to evaluate; defaults to the full power set of
            the inputs in (size, position) order.
        skew: per-input start delay, seconds.

    Returns:
        Map from the tuple of driven input names to the output boolean.

    Raises:
        TopologyError: an input or output label the topology lacks,
            before any row is simulated.
    """
    if combinations is None:
        combinations = [
            combo
            for size in range(len(inputs) + 1)
            for combo in itertools.combinations(inputs, size)
        ]
    skew = dict(skew or {})
    roles = dict.fromkeys([*inputs, *itertools.chain.from_iterable(combinations)], "input")
    for label, role in [*roles.items(), (output, "output")]:
        try:
            topology.resolve(label)
        except KeyError as exc:
            raise TopologyError(f"truth table {role}: {exc.args[0]}") from None

    table: dict[tuple[str, ...], bool] = {}
    for combo in combinations:
        stimuli = [
            Stimulus(node=name, amplitude=amplitude, t_start=t_start + skew.get(name, 0.0))
            for name in combo
        ]
        waveform = simulate(topology, stimuli, config, params)
        table[tuple(combo)] = logic_output(waveform, output, threshold_mv)
    return table
