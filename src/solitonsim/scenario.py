"""Declarative scenario files: load, validate, run, serialize.

A scenario is one YAML document describing a topology builder, stimuli,
probes, solver settings, and requested analyses.  Loading validates the
whole document and reports the first offending field by its path
(``stimuli[1].amplitude: expected a number``).  Running produces two
files: ``<name>.csv`` with the probed waveforms (seconds and volts, 9
significant digits) and ``<name>.summary.json`` with the resolved
parameter set and analysis results.  Both outputs are byte-deterministic
for a given scenario and package version.

The schema is read from the code rather than written out here: each
section's fields, types and defaults come from the dataclass it becomes
(``SegmentSpec``, ``MembraneParams``, ``SimConfig``, ``Stimulus``, the
analysis requests), and each builder kind's arguments from the signature
of ``network.build_<kind>``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np
import yaml

from . import network
from .analysis import DEFAULT_THRESHOLD_MV, detect_pulses, dispersion_metric, truth_table
from .engine import SimConfig, Waveform, simulate
from .errors import InvalidSpecError, NotApplicableError, ScenarioError
from .membrane import MembraneParams, SegmentSpec
from .network import NodeId, Stimulus, Topology

BUILDER_KINDS = ("chain", "junction", "and_gate", "taper")


@dataclass(frozen=True)
class DispersionRequest:
    early: str
    late: str


@dataclass(frozen=True)
class ReflectionRequest:
    node: str


@dataclass(frozen=True)
class TruthTableRequest:
    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario document."""

    name: str
    builder_kind: str
    builder_args: Mapping[str, Any]
    segment: SegmentSpec
    params: MembraneParams
    stimuli: tuple[Stimulus, ...]
    probes: tuple[str, ...]
    config: SimConfig
    threshold_mv: float = DEFAULT_THRESHOLD_MV
    pulses: bool = True
    dispersion: DispersionRequest | None = None
    reflection: ReflectionRequest | None = None
    truth: TruthTableRequest | None = None
    sha256: str = ""


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of evaluating a scenario in memory."""

    scenario: Scenario
    topology: Topology
    waveform: Waveform
    summary: dict[str, Any]


# ---------------------------------------------------------------------------
# schema: field name -> (type, required), read from the code
# ---------------------------------------------------------------------------

FieldTable = Mapping[str, tuple[Any, bool]]


def _field_table(target: Any) -> FieldTable:
    """A dataclass's fields or a builder's arguments (less ``spec``), with
    their type hints; those without a default are required."""
    hints = get_type_hints(target)
    return {
        name: (hints[name], param.default is param.empty)
        for name, param in inspect.signature(target).parameters.items()
        if name != "spec"
    }


# Both tables are read once, here, from the real classes and builders: a
# profiler that later swaps a builder for a (*args, **kwargs) wrapper must
# not change the schema.  build_topology looks the builder up at call time.
_SECTIONS = {
    cls: _field_table(cls)
    for cls in (SegmentSpec, MembraneParams, SimConfig, Stimulus)
    + (DispersionRequest, ReflectionRequest, TruthTableRequest)
}
_BUILDERS = {kind: _field_table(getattr(network, f"build_{kind}")) for kind in BUILDER_KINDS}

_DOCUMENT: FieldTable = {
    "name": (str, True),
    "builder": (Mapping, True),  # its fields depend on builder.kind
    "segment": (SegmentSpec, False),
    "params": (MembraneParams, False),
    "stimuli": (list, False),
    "probes": (tuple[str, ...], True),
    "config": (SimConfig, False),
    "analysis": (Mapping, False),
}

_ANALYSIS: FieldTable = {
    "threshold_mv": (float, False),
    "pulses": (bool, False),
    "dispersion": (DispersionRequest, False),
    "reflection": (ReflectionRequest, False),
    "truth_table": (TruthTableRequest, False),
}


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


# plain field type -> (accepted Python types, what the document must hold);
# bool is an int to Python but never a number here, and "" is never a label
_ACCEPTS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a non-empty string"),
    bool: (bool, "true/false"),
    NodeId | str: ((int, str), "a label or node id"),
    list: (list, "a list"),
    Mapping: (Mapping, "a mapping"),
}


def _read_value(value: Any, typ: Any, path: str) -> Any:
    """Check one document value against a field type; return it typed."""
    if typ in _ACCEPTS:
        accepted, what = _ACCEPTS[typ]
        bool_as_number = typ is not bool and isinstance(value, bool)
        if not isinstance(value, accepted) or bool_as_number or value == "":
            raise _fail(path, f"expected {what}, got {value!r}")
        if typ is float:
            if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float range
                raise _fail(path, f"expected a finite number, got {value!r}")
            return float(value)
        return value
    if typ in _SECTIONS:
        try:
            return typ(**_read(value, _SECTIONS[typ], path))
        except InvalidSpecError as exc:
            raise _fail(path, str(exc)) from exc
    if typ == tuple[str, ...]:
        if not isinstance(value, list) or not value:
            raise _fail(path, "expected a non-empty list of labels")
        return tuple(_read_value(item, str, f"{path}[{i}]") for i, item in enumerate(value))
    choices = [member.value for member in typ]  # the one field type left is an Enum
    if value not in choices:
        raise _fail(path, f"expected one of {', '.join(choices)}, got {value!r}")
    return typ(value)


def _read(section: Any, table: FieldTable, path: str) -> dict[str, Any]:
    """Check a mapping against a field table; return the present fields, typed."""
    section = _read_value(section, Mapping, path or "document")
    prefix = f"{path}." if path else ""
    for key in section:
        if key not in table:
            raise _fail(f"{prefix}{key}", "unknown field")
    values = {}
    for name, (typ, required) in table.items():
        if name in section:
            values[name] = _read_value(section[name], typ, prefix + name)
        elif required:
            raise _fail(prefix + name, "required field is missing")
    return values


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_scenario(document: Any, *, sha256: str = "") -> Scenario:
    """Validate a decoded scenario document.

    Args:
        document: the decoded YAML value (must be a mapping).
        sha256: content hash recorded in summaries; filled by
            load_scenario.

    Raises:
        ScenarioError: any schema violation, naming the field path.
    """
    doc = _read(document, _DOCUMENT, "")
    name = doc["name"]
    if not all(ch.isalnum() or ch in "_.-" for ch in name):
        raise _fail("name", f"must be filesystem-safe (letters, digits, '_.-'), got {name!r}")

    builder = dict(doc["builder"])
    kind = _read_value(builder.pop("kind", None), str, "builder.kind")
    if kind not in _BUILDERS:
        raise _fail("builder.kind", f"expected one of {', '.join(BUILDER_KINDS)}, got {kind!r}")
    stimuli = tuple(
        _read_value(item, Stimulus, f"stimuli[{i}]")
        for i, item in enumerate(doc.get("stimuli", []))
    )
    analysis = _read(doc.get("analysis", {}), _ANALYSIS, "analysis")

    scenario = Scenario(
        name=name,
        builder_kind=kind,
        builder_args=_read(builder, _BUILDERS[kind], "builder"),
        segment=doc.get("segment", SegmentSpec()),
        params=doc.get("params", MembraneParams()),
        stimuli=stimuli,
        probes=doc["probes"],
        config=doc.get("config", SimConfig()),
        threshold_mv=analysis.get("threshold_mv", DEFAULT_THRESHOLD_MV),
        pulses=analysis.get("pulses", True),
        dispersion=analysis.get("dispersion"),
        reflection=analysis.get("reflection"),
        truth=analysis.get("truth_table"),
        sha256=sha256,
    )
    # build once here so label mistakes surface at load time, with paths
    try:
        topology = build_topology(scenario)
    except InvalidSpecError as exc:
        raise _fail("builder", str(exc)) from exc
    labels = [(f"probes[{i}]", probe) for i, probe in enumerate(scenario.probes)]
    labels += [(f"stimuli[{i}].node", stim.node) for i, stim in enumerate(stimuli)]
    for key in ("dispersion", "reflection", "truth_table"):
        for value in vars(analysis[key]).values() if key in analysis else ():
            for label in value if isinstance(value, tuple) else (value,):
                labels.append((f"analysis.{key}", label))
    for path, label in labels:
        try:
            topology.resolve(label)
        except KeyError:
            raise _fail(path, f"label {label!r} does not exist in the topology") from None
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"{path}: not readable: {exc}") from exc
    return _parse_bytes(raw, str(path))


def _parse_bytes(raw: bytes, source: str) -> Scenario:
    try:
        document = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: not valid YAML: {exc}") from exc
    try:
        return parse_scenario(document, sha256=hashlib.sha256(raw).hexdigest())
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------


def bundled_scenario_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    root = resources.files("solitonsim.scenarios")
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_bundled_scenario(name: str) -> Scenario:
    """Load a shipped scenario by its name (no path, no extension)."""
    root = resources.files("solitonsim.scenarios")
    resource = root / f"{name}.yaml"
    if not resource.is_file():
        known = ", ".join(bundled_scenario_names())
        raise ScenarioError(f"no bundled scenario {name!r}; bundled: {known}")
    return _parse_bytes(resource.read_bytes(), f"bundled:{name}")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def build_topology(scenario: Scenario) -> Topology:
    """Construct the scenario's network with ``network.build_<kind>``."""
    build = getattr(network, f"build_{scenario.builder_kind}")
    return build(spec=scenario.segment, **scenario.builder_args)


def _pulse_record(event) -> dict[str, float]:
    return {
        "t_onset_s": event.t_onset,
        "t_peak_s": event.t_peak,
        "v_peak_mv": event.v_peak,
        "fwhm_s": event.fwhm,
    }


def evaluate_scenario(scenario: Scenario) -> ScenarioRun:
    """Simulate a scenario and compute its requested analyses."""
    topology = build_topology(scenario)
    waveform = simulate(topology, scenario.stimuli, scenario.config, scenario.params)

    analysis: dict[str, Any] = {}
    if scenario.pulses:
        analysis["pulses"] = {
            probe: [
                _pulse_record(ev)
                for ev in detect_pulses(waveform, probe, scenario.threshold_mv)
            ]
            for probe in scenario.probes
        }
    if scenario.dispersion is not None:
        req = scenario.dispersion
        try:
            value = dispersion_metric(waveform, req.early, req.late, scenario.threshold_mv)
        except NotApplicableError as exc:
            analysis["dispersion"] = {"applicable": False, "reason": str(exc)}
        else:
            analysis["dispersion"] = {
                "applicable": True, "early": req.early, "late": req.late, "value": value
            }
    if scenario.reflection is not None:
        count = len(detect_pulses(waveform, scenario.reflection.node, scenario.threshold_mv))
        analysis["reflection"] = {
            "node": scenario.reflection.node,
            "pulse_count": count,
            "reflected": count >= 2,
        }
    if scenario.truth is not None:
        table = truth_table(
            topology,
            scenario.truth.inputs,
            scenario.truth.output,
            config=scenario.config,
            params=scenario.params,
            threshold_mv=scenario.threshold_mv,
        )
        analysis["truth_table"] = {
            "inputs": list(scenario.truth.inputs),
            "output": scenario.truth.output,
            "rows": [
                {"driven": list(combo), "value": result}
                for combo, result in table.items()
            ],
        }

    summary = {
        "scenario": {"name": scenario.name, "sha256": scenario.sha256},
        "resolved": {
            "builder": {"kind": scenario.builder_kind, **dict(scenario.builder_args)},
            "segment": asdict(scenario.segment),
            "params": asdict(scenario.params),
            "config": {**asdict(scenario.config), "integrator": scenario.config.integrator.value},
            "stimuli": [asdict(stim) for stim in scenario.stimuli],
            "probes": list(scenario.probes),
            "threshold_mv": scenario.threshold_mv,
        },
        "analysis": analysis,
    }
    return ScenarioRun(scenario=scenario, topology=topology, waveform=waveform, summary=summary)


# Rows formatted per write: one "%.9g,..." template over a chunk keeps the
# formatting in C while holding only this many rows of text at a time.  At
# 161 columns 256 rows held 2.4 MB and wrote no faster than 32 rows.
_CSV_CHUNK_ROWS = 32


def write_waveform_csv(path: Path, waveform: Waveform, probes: tuple[str, ...]) -> None:
    """Write probed node voltages as CSV: seconds and volts, 9 digits."""
    columns = [waveform.column(p) for p in probes]
    line = "%.9g," + ",".join(["%.9g"] * len(columns)) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s," + ",".join(probes) + "\n")
        for start in range(0, len(waveform.times), _CSV_CHUNK_ROWS):
            stop = start + _CSV_CHUNK_ROWS
            volts = waveform.voltages_mv[start:stop, columns] * 1e-3
            table = np.column_stack((waveform.times[start:stop], volts))
            fh.write(line * len(table) % tuple(table.ravel().tolist()))


def write_outputs(run: ScenarioRun, out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Write a run's CSV and summary files; returns (csv_path, summary_path)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{run.scenario.name}.csv"
    summary_path = out / f"{run.scenario.name}.summary.json"
    write_waveform_csv(csv_path, run.waveform, run.scenario.probes)
    summary_path.write_text(
        json.dumps(run.summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return csv_path, summary_path


def run_scenario(scenario: Scenario, out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Evaluate a scenario and write its two output files.

    Returns:
        (csv_path, summary_path).
    """
    return write_outputs(evaluate_scenario(scenario), out_dir)
