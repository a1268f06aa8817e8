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

import errno
import hashlib
import inspect
import json
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np
import yaml

from . import network
from .analysis import (
    DEFAULT_THRESHOLD_MV,
    _power_set,
    _row_stimuli,
    detect_pulses,
    dispersion_metric,
    logic_output,
    truth_table,
)
from .engine import SimConfig, Waveform, simulate
from .errors import InvalidSpecError, NotApplicableError, ScenarioError, SolitonsimError
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
    requests: Mapping[str, Any] = field(default_factory=dict)  # analysis key -> request
    sha256: str = ""

    @property
    def truth(self) -> TruthTableRequest | None:
        """The ``analysis.truth_table`` request, if any."""
        return self.requests.get("truth_table")


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of evaluating a scenario in memory."""

    scenario: Scenario
    topology: Topology
    waveform: Waveform
    summary: dict[str, Any]


# ---------------------------------------------------------------------------
# analyses: one entry per analysis key; pulse lists are always computed
# ---------------------------------------------------------------------------


def _dispersion(scenario, topology, waveform, req: DispersionRequest) -> dict[str, Any]:
    try:
        value = dispersion_metric(waveform, req.early, req.late, scenario.threshold_mv)
    except NotApplicableError as exc:
        return {"applicable": False, "reason": str(exc)}
    return {"applicable": True, "early": req.early, "late": req.late, "value": value}


def _reflection(scenario, topology, waveform, req: ReflectionRequest) -> dict[str, Any]:
    count = len(detect_pulses(waveform, req.node, scenario.threshold_mv))
    return {"node": req.node, "pulse_count": count, "reflected": count >= 2}


def _resolved(topology: Topology, stimuli) -> list[Stimulus] | None:
    """Stimuli with every node as its id; None if a node is unknown."""
    try:
        return [replace(stim, node=topology.resolve(stim.node)) for stim in stimuli]
    except KeyError:
        return None


def _truth_rows(
    scenario, topology, combinations=None, skew=None, waveform=None
) -> dict[tuple[str, ...], bool]:
    """The scenario's truth-table request, run at its config, params and threshold.

    ``waveform``, if given, is the scenario's own run: the row whose
    resolved stimuli equal the scenario's is read from it, not simulated
    again.
    """
    inputs, output = scenario.truth.inputs, scenario.truth.output
    combos = _power_set(inputs) if combinations is None else [tuple(c) for c in combinations]
    own = _resolved(topology, scenario.stimuli) if waveform is not None else None
    served = [c for c in combos if own is not None and _resolved(topology, _row_stimuli(c, skew)) == own]
    table = truth_table(
        topology,
        inputs,
        output,
        [c for c in combos if c not in served],
        skew=skew,
        config=scenario.config,
        params=scenario.params,
        threshold_mv=scenario.threshold_mv,
    )
    table.update((c, logic_output(waveform, output, scenario.threshold_mv)) for c in served)
    return {c: table[c] for c in combos}


def _truth_table(scenario, topology, waveform, req: TruthTableRequest) -> dict[str, Any]:
    table = _truth_rows(scenario, topology, waveform=waveform)
    rows = [{"driven": list(combo), "value": result} for combo, result in table.items()]
    return {"inputs": list(req.inputs), "output": req.output, "rows": rows}


# analysis key -> (request dataclass, (scenario, topology, waveform, request) -> summary entry)
_ANALYSES = {
    "dispersion": (DispersionRequest, _dispersion),
    "reflection": (ReflectionRequest, _reflection),
    "truth_table": (TruthTableRequest, _truth_table),
}


def analysis_entry(
    scenario: Scenario, topology: Topology, waveform: Waveform, key: str
) -> dict[str, Any]:
    """The summary entry of the scenario's ``analysis.<key>`` request.

    ``waveform`` is the scenario's own run, as ``evaluate_scenario`` makes
    it: a truth-table request reads its matching row from it.
    """
    if key not in scenario.requests:
        raise ScenarioError(f"scenario {scenario.name!r} has no analysis.{key} request")
    return _ANALYSES[key][1](scenario, topology, waveform, scenario.requests[key])


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
    + tuple(request for request, _ in _ANALYSES.values())
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
    **{key: (request, False) for key, (request, _) in _ANALYSES.items()},
}


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


# Characters of a repr an error message quotes at most
_SHOWN_CHARS = 60


def _show(value: Any) -> str:
    """An offending value as a message quotes it: a list or mapping by its
    type and length, anything else by its repr cut to _SHOWN_CHARS.  A
    nested repr can be exponentially long (each alias repeats its anchor's
    value) or deep enough to exhaust the recursion limit."""
    if isinstance(value, (list, Mapping)):
        return f"a {type(value).__name__} of length {len(value)}"
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


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
            raise _fail(path, f"expected {what}, got {_show(value)}")
        if typ is float:
            if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float range
                raise _fail(path, f"expected a finite number, got {_show(value)}")
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
        raise _fail(path, f"expected one of {', '.join(choices)}, got {_show(value)}")
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
    requests = _read(doc.get("analysis", {}), _ANALYSIS, "analysis")
    threshold_mv = requests.pop("threshold_mv", DEFAULT_THRESHOLD_MV)
    params = doc.get("params", MembraneParams())
    # at or below rest, a node that never leaves rest would read as one pulse
    if not threshold_mv > params.v_rest:
        raise _fail(
            "analysis.threshold_mv",
            f"must lie above params.v_rest ({params.v_rest}), got {threshold_mv}",
        )

    scenario = Scenario(
        name=name,
        builder_kind=kind,
        builder_args=_read(builder, _BUILDERS[kind], "builder"),
        segment=doc.get("segment", SegmentSpec()),
        params=params,
        stimuli=stimuli,
        probes=doc["probes"],
        config=doc.get("config", SimConfig()),
        threshold_mv=threshold_mv,
        requests=requests,
        sha256=sha256,
    )
    # build once here so label mistakes surface at load time, with paths
    try:
        topology = build_topology(scenario)
    except InvalidSpecError as exc:
        raise _fail("builder", str(exc)) from exc
    labels = [(f"probes[{i}]", probe) for i, probe in enumerate(scenario.probes)]
    labels += [(f"stimuli[{i}].node", stim.node) for i, stim in enumerate(stimuli)]
    for key, request in requests.items():
        for value in vars(request).values():
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


# libyaml's safe loader where PyYAML was built with it: the same documents
# and error classes as yaml.SafeLoader, about ten times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Lists and mappings a document may nest, one inside the other.  A scenario
# nests 4 (the document, analysis, truth_table, inputs).  Loading recurses
# once per level, in C (libyaml's composer crashes the process near 30,000)
# and in the reader above, so deeper documents are refused first, from the
# event stream, which yaml.parse yields without recursing.
_MAX_DEPTH = 64


def _parse_bytes(raw: bytes, source: str) -> Scenario:
    try:
        depth = 0
        for event in yaml.parse(raw, Loader=_YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_DEPTH:
                    raise ScenarioError(f"{source}: lists and mappings nest deeper than {_MAX_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        document = yaml.load(raw, Loader=_YAML_LOADER)
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


def evaluate_scenario(scenario: Scenario) -> ScenarioRun:
    """Simulate a scenario and compute its requested analyses."""
    topology = build_topology(scenario)
    waveform = simulate(topology, scenario.stimuli, scenario.config, scenario.params)

    analysis: dict[str, Any] = {"pulses": {}}
    for probe in scenario.probes:
        analysis["pulses"][probe] = [
            {"t_onset_s": e.t_onset, "t_peak_s": e.t_peak, "v_peak_mv": e.v_peak, "fwhm_s": e.fwhm}
            for e in detect_pulses(waveform, probe, scenario.threshold_mv)
        ]
    for key in scenario.requests:
        analysis[key] = analysis_entry(scenario, topology, waveform, key)

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


# ---------------------------------------------------------------------------
# CSV encoding: %.9g, vectorized where the digits can be proven
# ---------------------------------------------------------------------------


def _ascii_word(text: str) -> int:
    """Up to four ASCII characters as one little-endian uint32, NUL-padded."""
    return int.from_bytes(text.encode("ascii").ljust(4, b"\0"), "little")


def _digit_words() -> np.ndarray:
    """n = 0..9999 as four digits, then the same with trailing zeros as NULs."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    chars = digits + ord("0")
    both = np.concatenate([chars, np.where(trailing, 0, chars)]).astype(np.uint8)
    return both.view("<u4").ravel()  # each row's four bytes, first digit lowest


_DIGITS = _digit_words()
# A cell's bin counts the bounds |x| reaches: bins 1-4 are the decades
# [1e-4, 1e-3) .. [0.1, 1), of exponent e = bin - 5.  Each bound's double
# lies above 10^-k and the next double down below it, so the bin is exact.
_DECADE_BOUNDS = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
# bin -> 10^(8-e) (exact doubles), which scales |x| to 9 integer digits; 0
# outside the fast decades, so those cells fail the q >= 1e8 test
_DECADE_SCALE = np.array([0.0, 1e12, 1e11, 1e10, 1e9, 0.0])
# bin -> the zeros between "0." and the first digit, with that digit's '0'
_DECADE_ZEROS = np.array(
    [_ascii_word(z.rjust(3, "\0") + "0") for z in ("", "000", "00", "0", "", "")], dtype="<u4"
)
_SIGNS = np.array([_ascii_word("\0" "0."), _ascii_word("-0.")], dtype="<u4")

# Values encoded per chunk (rows = this // columns, so narrow tables take few
# chunks).  A cell's temporaries take about 110 bytes, so a chunk stays in
# cache: the 162-column long_line table writes fastest at 8192, and 4096 or
# 16384 cells are 10-35% slower.  Peak RSS on long_line is 0.45 MB above
# the template writer's (median of 10 runs, 74.0 -> 74.4 MB).
_CSV_CHUNK_CELLS = 8192


def _csv_rows(table: np.ndarray) -> bytes:
    """CSV rows of a 2-D float table, each value exactly as ``"%.9g" % x``.

    Every cell is laid out in five little-endian words: sign-or-NUL "0."
    NUL; up to three zeros and the first digit; digits 2-5; digits 6-9; three
    NULs and the separator.  Dropping every NUL gives the text.

    The fast path takes 1e-4 <= |x| < 1, decimal exponent e = -4..-1, where
    %.9g uses fixed notation: "0.", -e-1 zeros and the 9-digit significand
    q = round(|x| 10^(8-e)) without its trailing zeros.  The product's rounding error is at most half an ulp (6e-8 below
    1e9), so rint gives the correctly rounded q unless the product lies
    within 1e-6 of a half.  Such near-ties, q reaching 1e9 (x rounds up to
    the next decade), and everything outside the decades (0, |x| >= 1,
    |x| < 1e-4, inf, nan) are formatted by "%.9g" itself, at most 16
    characters, into the first four words.
    """
    a = np.abs(table)
    bins = np.searchsorted(_DECADE_BOUNDS, a, side="right")  # NaN sorts last, into bin 5
    with np.errstate(invalid="ignore"):  # inf * 0 and nan casts: fallback cells
        p = a * _DECADE_SCALE[bins]
        q = np.rint(p)
        fast = (np.abs(p - q) < 0.5 - 1e-6) & (q >= 1e8) & (q < 1e9)
        q = q.astype(np.uint32)
    # floor division by a scalar is a SIMD pass; np.divmod and % on uint32 run
    # about 14x slower per cell (numpy 2.4), so the remainders are subtracted
    high = q // np.uint32(10_000)
    low = q - high * np.uint32(10_000)
    first = high // np.uint32(10_000)
    middle = high - first * np.uint32(10_000)

    words = np.empty(table.shape + (5,), dtype="<u4")
    words[..., 0] = _SIGNS[np.signbit(table).view(np.uint8)]
    words[..., 1] = _DECADE_ZEROS[bins] + (first << np.uint32(24))
    words[..., 2] = _DIGITS[middle + (low == 0) * np.uint32(10_000)]  # stripped if 6-9 are 0
    words[..., 3] = _DIGITS[low + np.uint32(10_000)]
    words[..., 4] = ord(",") << 24
    words[:, -1, 4] = ord("\n") << 24
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array(["%.9g" % x for x in table.ravel()[slow].tolist()], dtype="S16")
        words.reshape(-1, 5)[slow, :4] = text.view("<u4").reshape(-1, 4)
    return words.tobytes().translate(None, b"\0")


def write_waveform_csv(path: Path, waveform: Waveform, probes: tuple[str, ...]) -> None:
    """Write probed node voltages as CSV: seconds and volts, 9 digits.

    Every value is written as ``"%.9g" % x`` would write it, byte for byte
    (see ``_csv_rows``), a chunk of rows at a time.
    """
    columns = [waveform.column(p) for p in probes]
    rows = max(1, _CSV_CHUNK_CELLS // (len(columns) + 1))
    with path.open("wb") as fh:
        fh.write(("t_s," + ",".join(probes) + "\n").encode("utf-8"))
        for start in range(0, len(waveform.times), rows):
            stop = start + rows
            volts = waveform.voltages_mv[start:stop, columns] * 1e-3
            fh.write(_csv_rows(np.column_stack((waveform.times[start:stop], volts))))


def _check_out_dir(out_dir: str | Path, names: Sequence[str] = ()) -> None:
    """Raise the OSError that creating or writing ``out_dir`` would, creating nothing.

    ``names`` are the files the run will write there; one longer than the
    file system allows raises ENAMETOOLONG.  Runs call it before
    simulating: an unusable directory fails at once, and a run refused
    later leaves no directory behind.
    """
    path = Path(out_dir).absolute()
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    name_max = os.pathconf(path, "PC_NAME_MAX")
    for name in names:
        if len(os.fsencode(name)) > name_max:
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), name)


def _output_names(scenario: Scenario) -> tuple[str, str]:
    return f"{scenario.name}.csv", f"{scenario.name}.summary.json"


def write_outputs(run: ScenarioRun, out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Write a run's CSV and summary files; returns (csv_path, summary_path).

    Raises SolitonsimError, writing nothing, for a summary that holds a NaN
    or an infinity, which JSON cannot represent.
    """
    try:
        summary = json.dumps(run.summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        name = run.scenario.name
        raise SolitonsimError(f"scenario {name!r}: summary is not valid JSON: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, summary_path = (out / name for name in _output_names(run.scenario))
    write_waveform_csv(csv_path, run.waveform, run.scenario.probes)
    summary_path.write_text(summary, encoding="utf-8")
    return csv_path, summary_path


def run_scenario(scenario: Scenario, out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Evaluate a scenario and write its two output files.

    Returns:
        (csv_path, summary_path).
    """
    _check_out_dir(out_dir, _output_names(scenario))
    return write_outputs(evaluate_scenario(scenario), out_dir)
