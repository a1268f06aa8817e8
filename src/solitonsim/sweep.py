"""One-parameter sweeps over a base scenario.

A sweep reruns one scenario across a range of values for a single
parameter and reduces each run to one scalar metric, producing a
two-column CSV (``<parameter>,<metric>``, 9 significant digits).  This
is how operating windows are mapped: amplitude ranges that still launch
a pulse, junction loadings that flip a gate between logic functions,
step sizes that keep the integration converged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .analysis import detect_pulses, logic_output, truth_table
from .engine import Waveform, refine_check, simulate
from .errors import ScenarioError
from .network import Topology
from .scenario import Scenario, _check_out_dir, _csv_rows, analysis_entry, build_topology


@dataclass(frozen=True)
class SweepPoint:
    value: float
    metric: float


# Points one sweep may ask for.  Each point is at least one full simulation,
# milliseconds to seconds, so 2**16 points is already hours of work, while a
# mistyped 10**9 would build a 32 GB grid before the first run.
_MAX_SWEEP_STEPS = 1 << 16


def sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """Inclusive evenly spaced grid; steps is the number of points."""
    if not (isinstance(steps, numbers.Integral) and 1 <= steps <= _MAX_SWEEP_STEPS):
        raise ScenarioError(
            f"sweep steps must be a whole number in 1..{_MAX_SWEEP_STEPS}, got {steps!r}"
        )
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ScenarioError(f"sweep bounds must be finite, got {start} and {stop}")
    if steps == 1:
        return [float(start)]
    span = float(stop) - float(start)
    return [float(start) + span * i / (steps - 1) for i in range(steps)]


def _amplitude(scenario: Scenario, value: float) -> Scenario:
    if not scenario.stimuli:
        raise ScenarioError("amplitude sweep needs at least one stimulus")
    return replace(scenario, stimuli=tuple(replace(s, amplitude=value) for s in scenario.stimuli))


def _builder_arg(kind: str, arg: str, derive: Callable[[Mapping, float], Any] = lambda args, v: v):
    """Applier that sets builder argument ``arg`` to derive(builder_args, value)."""

    def apply(scenario: Scenario, value: float) -> Scenario:
        args = scenario.builder_args
        if scenario.builder_kind != kind:
            raise ScenarioError(
                f"sweeping builder.{arg} needs a {kind} builder, got {scenario.builder_kind!r}"
            )
        return replace(scenario, builder_args={**args, arg: derive(args, value)})

    return apply


def _end_diameter(args: Mapping, ratio: float) -> float:
    if not ratio > 0.0:
        raise ScenarioError(f"taper_ratio must be positive, got {ratio}")
    return args["d_start"] / ratio


# parameter -> function (scenario, value) -> swept scenario
_APPLIERS = {
    "amplitude": _amplitude,
    "junction_c_scale": _builder_arg("junction", "junction_c_scale"),
    "taper_ratio": _builder_arg("taper", "d_end", _end_diameter),
    "dt": lambda scenario, value: replace(scenario, config=replace(scenario.config, dt=value)),
    # not a scenario field: run_sweep passes it to the metric as skew_s
    "skew": lambda scenario, value: scenario,
}


def _on_waveform(reduce: Callable[[Scenario, Topology, Waveform], float]):
    """Metric that simulates the scenario once and reduces the waveform."""

    def metric(scenario: Scenario, topology: Topology, _skew_s: float) -> float:
        waveform = simulate(topology, scenario.stimuli, scenario.config, scenario.params)
        return reduce(scenario, topology, waveform)

    return metric


def _dispersion(scenario: Scenario, topology: Topology, waveform: Waveform) -> float:
    entry = analysis_entry(scenario, topology, waveform, "dispersion")
    return entry["value"] if entry["applicable"] else math.nan


def _truth_ab(scenario: Scenario, topology: Topology, skew_s: float) -> float:
    if scenario.truth is None:
        raise ScenarioError("truth_ab metric needs an analysis.truth_table request")
    req = scenario.truth
    table = truth_table(
        topology,
        req.inputs,
        req.output,
        combinations=[req.inputs],
        skew={req.inputs[-1]: skew_s} if skew_s else None,
        config=scenario.config,
        params=scenario.params,
        threshold_mv=scenario.threshold_mv,
    )
    return 1.0 if table[req.inputs] else 0.0


# metric -> function (scenario, topology, skew_s) -> float
_METRICS = {
    "logic": _on_waveform(
        lambda s, _t, w: 1.0 if logic_output(w, s.probes[-1], s.threshold_mv) else 0.0
    ),
    "output_pulses": _on_waveform(
        lambda s, _t, w: float(len(detect_pulses(w, s.probes[-1], s.threshold_mv)))
    ),
    "peak_mv": _on_waveform(lambda s, _t, w: float(w.voltage(s.probes[-1]).max())),
    "dispersion": _on_waveform(_dispersion),
    "truth_ab": _truth_ab,
    "refine_discrepancy": lambda s, topology, _skew_s: refine_check(
        topology, s.stimuli, s.config, s.params
    ).max_discrepancy_mv,
}

SWEEP_PARAMS = tuple(_APPLIERS)
SWEEP_METRICS = tuple(_METRICS)


def _lookup(table: dict[str, Callable], what: str, name: str) -> Callable:
    if name not in table:
        raise ScenarioError(f"unknown sweep {what} {name!r}; expected one of {', '.join(table)}")
    return table[name]


def apply_param(scenario: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept parameter set.

    ``skew`` is not a scenario field: it offsets the last truth-table
    input at metric time, so here it leaves the scenario unchanged.
    """
    return _lookup(_APPLIERS, "parameter", param)(scenario, value)


def _check_pair(param: str, metric: str) -> None:
    """Refuse a sweep whose metric would never see the swept value."""
    if param == "skew" and metric != "truth_ab":
        raise ScenarioError(
            f"a skew sweep needs the truth_ab metric, got {metric!r}: "
            "skew only offsets a truth-table input"
        )
    if param == "amplitude" and metric == "truth_ab":
        raise ScenarioError(
            "truth_ab drives its inputs at truth_table's fixed 10 nA: "
            "it cannot follow an amplitude sweep"
        )


def compute_metric(scenario: Scenario, metric: str, *, skew_s: float = 0.0) -> float:
    """Reduce one scenario run to a scalar.

    logic: 1.0 when the last probe sees at least one pulse.
    output_pulses: pulse count at the last probe.
    peak_mv: highest voltage at the last probe.
    dispersion: the analysis.dispersion entry's value; NaN where it is not applicable.
    truth_ab: 1.0 when the all-inputs-driven truth-table row is true.
    refine_discrepancy: worst dt versus dt/2 voltage gap, millivolts.

    A non-zero ``skew_s`` reaches only truth_ab; with any other metric it
    raises ScenarioError.
    """
    measure = _lookup(_METRICS, "metric", metric)
    if skew_s:
        _check_pair("skew", metric)
    return measure(scenario, build_topology(scenario), skew_s)


def run_sweep(
    scenario: Scenario,
    param: str,
    values: Sequence[float],
    metric: str,
    out_path: str | Path | None = None,
) -> list[SweepPoint]:
    """Evaluate the metric at every value; optionally write the CSV.

    Raises ScenarioError before any run for a pair whose metric ignores the
    swept value: ``skew`` with any metric but ``truth_ab``, and
    ``amplitude`` with ``truth_ab``, and OSError before any run for an
    ``out_path`` whose directory cannot be created or written, or whose
    name is longer than the file system allows.
    """
    apply = _lookup(_APPLIERS, "parameter", param)
    _lookup(_METRICS, "metric", metric)
    _check_pair(param, metric)
    if out_path is not None:
        _check_out_dir(Path(out_path).parent, [Path(out_path).name])
    points = []
    for value in values:
        skew_s = value if param == "skew" else 0.0
        result = compute_metric(apply(scenario, value), metric, skew_s=skew_s)
        points.append(SweepPoint(value=float(value), metric=result))
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        table = np.array([(p.value, p.metric) for p in points], dtype=float).reshape(-1, 2)
        path.write_bytes(f"{param},{metric}\n".encode() + _csv_rows(table))
    return points
