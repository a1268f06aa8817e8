"""Scenario loading, output files, and the command-line front end."""

from __future__ import annotations

import copy
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

from solitonsim import analysis as analysis_module
from solitonsim import cli, network
from solitonsim import scenario as scenario_module
from solitonsim import sweep as sweep_module
from solitonsim.analysis import truth_table
from solitonsim.cli import main
from solitonsim.engine import SimConfig, Waveform
from solitonsim.errors import NotApplicableError, ScenarioError, SolitonsimError
from solitonsim.membrane import MembraneParams, SegmentSpec
from solitonsim.network import NodeId, Stimulus
from solitonsim.scenario import (
    BUILDER_KINDS,
    analysis_entry,
    build_topology,
    bundled_scenario_names,
    evaluate_scenario,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    write_outputs,
    write_waveform_csv,
)
from solitonsim.sweep import SWEEP_METRICS, SWEEP_PARAMS, compute_metric

# Small chain, short run: enough to produce one pulse at v(2) quickly.
BASE_DOC = {
    "name": "probe_run",
    "builder": {"kind": "chain", "n_segments": 2},
    "stimuli": [
        {"node": "A", "amplitude": 6.0e-9, "t_start": 0.5e-3, "duration": 0.2e-3}
    ],
    "probes": ["v(2)", "v(3)"],
    "config": {"t_end": 5.0e-3},
}


def make_doc(**overrides):
    doc = copy.deepcopy(BASE_DOC)
    doc.update(overrides)
    return doc


# =====================================================================
# Schema validation: every violation names its field path
# =====================================================================


def test_parse_accepts_base_document():
    scenario = parse_scenario(make_doc())
    assert scenario.name == "probe_run"
    assert scenario.builder_kind == "chain"
    assert scenario.builder_args["n_segments"] == 2
    assert scenario.probes == ("v(2)", "v(3)")
    assert scenario.config.t_end == pytest.approx(5.0e-3)
    assert scenario.stimuli[0].amplitude == pytest.approx(6.0e-9)
    # timing left out takes the Stimulus defaults
    short = parse_scenario(make_doc(stimuli=[{"node": "A", "amplitude": 6.0e-9}]))
    assert (short.stimuli[0].t_start, short.stimuli[0].duration) == (1e-3, 0.2e-3)


def broken_documents():
    cases = []

    doc = make_doc()
    del doc["name"]
    cases.append(("missing_name", doc, "name:"))

    doc = make_doc(name="bad/name")
    cases.append(("unsafe_name", doc, "name:"))

    doc = make_doc()
    doc["frob"] = 1
    cases.append(("unknown_top_level", doc, "frob: unknown field"))

    doc = make_doc(builder={"kind": "ring", "n_segments": 2})
    cases.append(("unknown_builder_kind", doc, "builder.kind:"))

    doc = make_doc(builder={"kind": "chain"})
    cases.append(("missing_builder_arg", doc, "builder.n_segments: required"))

    doc = make_doc(builder={"kind": "chain", "n_segments": 2, "twist": 1})
    cases.append(("unknown_builder_arg", doc, "builder.twist: unknown field"))

    doc = make_doc(builder={"kind": "chain", "n_segments": 0})
    cases.append(("unbuildable_chain", doc, "builder:"))

    doc = make_doc(stimuli={"node": "A"})
    cases.append(("stimuli_not_list", doc, "stimuli: expected a list"))

    doc = make_doc()
    doc["stimuli"][0]["amplitude"] = "1e-6"  # a string, as unquoted YAML 1.1 yields
    cases.append(("string_amplitude", doc, "stimuli[0].amplitude: expected a number"))

    doc = make_doc()
    doc["stimuli"][0]["amplitude"] = True
    cases.append(("bool_amplitude", doc, "stimuli[0].amplitude: expected a number"))

    doc = make_doc()
    doc["stimuli"][0]["duration"] = -1.0e-3
    cases.append(("negative_duration", doc, "stimuli[0]:"))

    doc = make_doc()
    doc["stimuli"].append({"node": "Q9", "amplitude": 1.0e-9})
    cases.append(("unknown_stimulus_node", doc, "stimuli[1].node:"))

    doc = make_doc(probes=[])
    cases.append(("empty_probes", doc, "probes: expected a non-empty list"))

    doc = make_doc(probes=["v(2)", "v(99)"])
    cases.append(("unknown_probe", doc, "probes[1]:"))

    doc = make_doc(config={"t_end": 5.0e-3, "integrator": "rk4"})
    cases.append(("unknown_integrator", doc, "config.integrator:"))

    doc = make_doc(config={"dt": -1.0e-6})
    cases.append(("negative_dt", doc, "config:"))

    doc = make_doc(analysis={"truth_table": {"inputs": ["A", "Z"]}})
    cases.append(("truth_table_no_output", doc, "analysis.truth_table.output:"))

    doc = make_doc(analysis={"dispersion": {"early": "v(2)", "late": "v(77)"}})
    cases.append(("dispersion_bad_label", doc, "analysis.dispersion:"))

    # non-finite numbers, as YAML's .nan and .inf decode
    doc = make_doc(segment={"diameter": math.nan})
    cases.append(("nan_segment_diameter", doc, "segment.diameter: expected a finite number"))

    doc = make_doc(params={"c_mem": math.nan})
    cases.append(("nan_params_c_mem", doc, "params.c_mem: expected a finite number"))

    doc = make_doc(builder={"kind": "chain", "n_segments": 2, "terminal_extra_c": math.nan})
    cases.append(("nan_terminal_extra_c", doc, "builder.terminal_extra_c: expected a finite number"))

    doc = make_doc()
    doc["stimuli"][0]["duration"] = math.inf
    cases.append(("inf_duration", doc, "stimuli[0].duration: expected a finite number"))

    doc = make_doc(analysis={"threshold_mv": math.nan})
    cases.append(("nan_threshold", doc, "analysis.threshold_mv: expected a finite number"))

    # at or below rest, a node that never leaves rest would read as one pulse
    doc = make_doc(analysis={"threshold_mv": -70.0})
    cases.append(("threshold_at_rest", doc, "analysis.threshold_mv: must lie above params.v_rest"))

    doc = make_doc(params={"v_rest": -60.0, "v_trigger": -40.0}, analysis={"threshold_mv": -65.0})
    message = "analysis.threshold_mv: must lie above params.v_rest (-60.0), got -65.0"
    cases.append(("threshold_below_rest", doc, message))

    # pulse lists are always computed: there is no switch for them
    doc = make_doc(analysis={"pulses": False})
    cases.append(("analysis_pulses_removed", doc, "analysis.pulses: unknown field"))

    return cases


@pytest.mark.parametrize(
    "doc,fragment",
    [pytest.param(doc, frag, id=name) for name, doc, frag in broken_documents()],
)
def test_schema_violations_name_the_field(doc, fragment):
    with pytest.raises(ScenarioError, match=re.escape(fragment)):
        parse_scenario(doc)


def test_non_finite_yaml_numbers_exit_2(tmp_path, capsys):
    path = tmp_path / "nan_diameter.yaml"
    path.write_text(
        "name: nan_diameter\n"
        "builder: {kind: chain, n_segments: 2}\n"
        "segment: {diameter: .nan}\n"
        "probes: [v(2)]\n"
    )
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "segment.diameter: expected a finite number" in capsys.readouterr().err


def test_builder_schema_survives_wrapped_builders(monkeypatch):
    """A profiler may swap each network.build_<kind> for a (*args, **kwargs)
    wrapper; scenarios must still reach the builder through it, with their
    builder arguments checked against the real signature."""
    calls = []

    def wrap(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    for kind in BUILDER_KINDS:
        monkeypatch.setattr(network, f"build_{kind}", wrap(getattr(network, f"build_{kind}")))
    for name in bundled_scenario_names():
        build_topology(load_bundled_scenario(name))
    assert set(calls) == {f"build_{kind}" for kind in BUILDER_KINDS}
    with pytest.raises(ScenarioError, match=re.escape("builder.n_segments: required")):
        parse_scenario(make_doc(builder={"kind": "chain"}))
    with pytest.raises(ScenarioError, match=re.escape("builder.d_end: expected a number")):
        parse_scenario(
            make_doc(builder={"kind": "taper", "n_segments": 2, "d_start": 1e-4, "d_end": "x"})
        )


def test_readme_scenario_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        parse_scenario(yaml.safe_load(block))


def test_readme_sweep_lists_match_the_sweep_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for heading, names in (("Sweep parameters:", SWEEP_PARAMS), ("Sweep metrics:", SWEEP_METRICS)):
        listed = re.search(re.escape(heading) + r"(.*?)\.", readme, re.DOTALL)
        assert listed, heading
        assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == names


# every key the schema knows, at any level, so random documents reach deep fields
SCHEMA_KEYS = sorted(
    {*scenario_module._DOCUMENT, *scenario_module._ANALYSIS, "kind"}
    | {
        key
        for table in (*scenario_module._SECTIONS.values(), *scenario_module._BUILDERS.values())
        for key in table
    }
)
NUMBERS = st.one_of(
    st.integers(-3, 40), st.sampled_from([0.0, -1e-3, 2**16, 10**9, 2**70]), st.floats()
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.text(max_size=8),
    st.sampled_from(["A", "B", "Z", "J", "v(2)", "trapezoidal", *BUILDER_KINDS]),
    st.dates(),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.integers(0, 3), inner, max_size=5),
    max_leaves=10,
)
BUNDLED_DOCUMENTS = {
    name: yaml.safe_load(
        (Path(scenario_module.__file__).parent / "scenarios" / f"{name}.yaml").read_text()
    )
    for name in bundled_scenario_names()
}


def value_paths(node, path=()):
    """Key paths to every value inside a decoded document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from value_paths(child, (*path, key))


@st.composite
def scenario_documents(draw):
    """A mapping of schema keys to arbitrary values, or a bundled document
    with one value somewhere inside it replaced by an arbitrary one."""
    if draw(st.booleans()):
        return draw(st.dictionaries(st.sampled_from(SCHEMA_KEYS), VALUES, max_size=8))
    document = copy.deepcopy(BUNDLED_DOCUMENTS[draw(st.sampled_from(sorted(BUNDLED_DOCUMENTS)))])
    *parents, key = draw(st.sampled_from(list(value_paths(document))))
    node = document
    for parent in parents:
        node = node[parent]
    node[key] = draw(NUMBERS | VALUES)
    return document


@settings(max_examples=150, deadline=None)
@given(document=scenario_documents())
def test_parsing_gives_a_scenario_or_a_scenario_error(document):
    try:
        parsed = parse_scenario(document)
    except ScenarioError:
        return
    assert parsed.builder_kind in BUILDER_KINDS


# Scales of the numbers the field tables require without a default
REQUIRED_SCALES = {"amplitude": 6e-9, "d_start": 1e-4, "d_end": 1e-4}
FACTORS = [0.5, 0.9, 1.0, 1.1, 2.0]
VOLTAGE_FACTORS = [0.9, 1.0, 1.1]  # the membrane's voltages keep their order


def field_value(draw, name, typ, default, labels):
    """A value of the field's type: a number near its default, a label of the topology."""
    if typ is bool:
        return draw(st.booleans())
    if typ is int:
        return draw(st.integers(1, 4))
    if typ is float:
        factors = VOLTAGE_FACTORS if name.startswith("v_") else FACTORS
        return REQUIRED_SCALES.get(name, default) * draw(st.sampled_from(factors))
    if typ == tuple[str, ...]:
        return draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2, unique=True))
    if typ in (str, NodeId | str):
        return draw(st.sampled_from(labels))
    return draw(st.sampled_from([member.value for member in typ]))  # the Enum


def section(draw, table, defaults, labels=()):
    """A mapping of a field table's required fields and some of its optional ones."""
    return {
        name: field_value(draw, name, typ, defaults.get(name), labels)
        for name, (typ, required) in table.items()
        if required or draw(st.booleans())
    }


def dataclass_section(draw, cls, labels=()):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return section(draw, scenario_module._SECTIONS[cls], defaults, labels)


@st.composite
def valid_documents(draw):
    """A document of the right shape and types throughout, read from the
    schema's own field tables, with probes and analyses on the topology's
    labels and at most 2 ms simulated."""
    kind = draw(st.sampled_from(BUILDER_KINDS))
    build = getattr(network, f"build_{kind}")
    defaults = {name: p.default for name, p in inspect.signature(build).parameters.items()}
    builder = section(draw, scenario_module._BUILDERS[kind], defaults)
    segment = dataclass_section(draw, SegmentSpec)
    try:
        labels = sorted(build(spec=SegmentSpec(**segment), **builder).labels)
    except SolitonsimError:
        labels = ["A"]  # the builder refuses its arguments: parse_scenario will too
    params = dataclass_section(draw, MembraneParams)
    config = dataclass_section(draw, SimConfig)
    config["t_end"] = draw(st.sampled_from([0.5e-3, 1e-3, 2e-3]))
    rest = params.get("v_rest", MembraneParams.v_rest)
    analysis = {"threshold_mv": rest + draw(st.sampled_from([-10.0, 0.0, 15.0, 35.0, 50.0, 90.0]))}
    for key, (request, _) in scenario_module._ANALYSES.items():
        if draw(st.booleans()):
            analysis[key] = dataclass_section(draw, request, labels)
    stimuli = [dataclass_section(draw, Stimulus, labels) for _ in range(draw(st.integers(0, 2)))]
    return {
        "name": "valid",
        "builder": {"kind": kind, **builder},
        "segment": segment,
        "params": params,
        "stimuli": stimuli,
        "probes": field_value(draw, "probes", tuple[str, ...], None, labels),
        "config": config,
        "analysis": analysis,
    }


@settings(max_examples=200, deadline=None)
@given(document=valid_documents())
def test_schema_valid_documents_give_strict_json_or_a_typed_error(document):
    try:
        run = evaluate_scenario(parse_scenario(document))
    except SolitonsimError as exc:
        event(type(exc).__name__)
        return
    event("ran")
    json.dumps(run.summary, allow_nan=False)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "probe_run.yaml"
    path.write_text(
        "name: probe_run\n"
        "builder: {kind: chain, n_segments: 2}\n"
        "stimuli:\n"
        "  - {node: A, amplitude: 6.0e-9, t_start: 0.5e-3, duration: 0.2e-3}\n"
        "probes: [v(2), v(3)]\n"
        "config: {t_end: 5.0e-3}\n"
    )
    scenario = load_scenario(path)
    assert scenario.name == "probe_run"
    assert len(scenario.sha256) == 64
    # error messages carry the source path
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nbuilder: {kind: nope}\n")
    with pytest.raises(ScenarioError, match="bad.yaml"):
        load_scenario(bad)


def test_load_scenario_rejects_non_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("{unbalanced: [\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(path)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not readable"):
        load_scenario(tmp_path / "absent.yaml")


HOSTILE_HEAD = "name: hostile\nbuilder: {kind: chain, n_segments: 2}\n"


def nested_probes(depth):
    """A scenario whose probes value is a list nested ``depth`` deep."""
    return HOSTILE_HEAD + "probes: " + "[" * depth + "]" * depth + "\n"


def alias_chain(levels):
    """Anchored lists of ten, each anchor's items the previous anchor: the
    last one holds 10**levels scalars through a document of a few hundred bytes."""
    lists = ["&a0 [" + ", ".join(["x"] * 10) + "]"]
    lists += [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, levels)]
    return HOSTILE_HEAD + "probes: [[" + ", ".join(lists) + "]]\n"


def test_load_scenario_bounds_the_nesting_depth(tmp_path):
    path = tmp_path / "deep.yaml"
    bound = scenario_module._MAX_DEPTH
    path.write_text(nested_probes(bound - 1))  # the document mapping is one more level
    with pytest.raises(ScenarioError, match=re.escape("probes[0]: expected a non-empty string")):
        load_scenario(path)
    path.write_text(nested_probes(bound))
    with pytest.raises(ScenarioError, match=f"nest deeper than {bound}$"):
        load_scenario(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(nested_probes(1_000), id="nested_1000"),  # past Python's recursion limit
        pytest.param(nested_probes(30_000), id="nested_30000"),  # past libyaml's C stack
        pytest.param(alias_chain(6), id="alias_chain_6"),  # a million scalars to quote
    ],
)
def test_cli_refuses_a_hostile_document_with_exit_2(tmp_path, text):
    # a fresh interpreter: a crash or a runaway message must not take the test run with it
    path = tmp_path / "hostile.yaml"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "solitonsim.cli", "run", str(path), "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    message = done.stderr.replace(str(path), "<path>")
    assert done.returncode == 2, message[:1000]
    assert message.startswith("error: <path>: ") and "Traceback" not in message
    assert len(message) < 200, message[:1000]


# =====================================================================
# Bundled scenarios
# =====================================================================


def test_bundled_names():
    assert bundled_scenario_names() == [
        "fig11_or",
        "fig13_xor",
        "fig14_and",
        "fig16_taper",
        "fig1_patch",
        "fig7_chain",
        "fig8_reflection",
        "fig9_collision",
    ]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_validate(name):
    scenario = load_bundled_scenario(name)
    assert scenario.name == name
    assert len(scenario.sha256) == 64


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        load_bundled_scenario("fig99_missing")


# =====================================================================
# Output files
# =====================================================================


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    scenario = parse_scenario(make_doc())
    csv_path, summary_path = run_scenario(scenario, out)
    return scenario, csv_path, summary_path


def test_csv_header_and_shape(written):
    scenario, csv_path, _ = written
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_s,v(2),v(3)"
    run = evaluate_scenario(scenario)
    assert len(lines) - 1 == len(run.waveform.times)
    for line in lines[1:]:
        assert len(line.split(",")) == 3


def test_csv_units_and_precision(written):
    _, csv_path, _ = written
    first = csv_path.read_text().splitlines()[1].split(",")
    # rest state at t=0, written in volts with 9 significant digits
    assert first[0] == "0"
    assert first[1] == "-0.07"
    # all values re-render identically under the same format
    for line in csv_path.read_text().splitlines()[1:]:
        for fieldtext in line.split(","):
            assert "%.9g" % float(fieldtext) == fieldtext


def test_summary_structure(written):
    scenario, _, summary_path = written
    summary = json.loads(summary_path.read_text())
    assert set(summary) == {"scenario", "resolved", "analysis"}
    assert summary["scenario"]["name"] == "probe_run"
    resolved = summary["resolved"]
    assert resolved["builder"] == {"kind": "chain", "n_segments": 2}
    assert set(resolved["params"]) == {
        "v_rest",
        "v_trigger",
        "v_na_cutoff",
        "v_k_cutoff",
        "j_na",
        "j_k",
        "c_mem",
        "g_mem",
        "rho_internal",
    }
    assert resolved["config"]["integrator"] == "trapezoidal"
    assert resolved["stimuli"][0]["node"] == "A"
    assert resolved["probes"] == ["v(2)", "v(3)"]
    # pulse lists exist for every probe; the driven node fired
    pulses = summary["analysis"]["pulses"]
    assert set(pulses) == {"v(2)", "v(3)"}
    assert len(pulses["v(2)"]) == 1
    assert pulses["v(2)"][0]["v_peak_mv"] > 40.0


def test_outputs_are_byte_deterministic(tmp_path):
    scenario = parse_scenario(make_doc())
    csv_a, json_a = run_scenario(scenario, tmp_path / "a")
    csv_b, json_b = run_scenario(scenario, tmp_path / "b")
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert json_a.read_bytes() == json_b.read_bytes()


# rows per chunk of the 5-column tables below
CSV_CHUNK_ROWS = scenario_module._CSV_CHUNK_CELLS // 5


@pytest.mark.parametrize(
    "n_rows", [0, 1, 255, 256, 257, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]
)
def test_csv_writer_matches_per_float_formatting(tmp_path, n_rows):
    # chunk edges of the writer, and values of every sign and magnitude
    rng = np.random.default_rng(n_rows)
    magnitudes = np.array([1e-300, 1e-12, 1.0, 70.0, 1e12, 1e300])
    voltages = rng.standard_normal((n_rows, 4)) * rng.choice(magnitudes, size=(n_rows, 4))
    voltages[:, 3] = -70.0
    wave = Waveform(
        times=np.arange(n_rows) * 1e-6,
        voltages_mv=voltages,
        node_ids=(1, 2, 3, 4),
        phases=np.zeros((n_rows, 1), dtype=np.uint8),
        labels={"a": 1, "b": 2, "c": 3, "d": 4},
        rest_mv=-70.0,
    )
    probes = ("c", "a", "d", "a")
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, wave, probes)
    columns = [wave.column(p) for p in probes]
    expected = "t_s,c,a,d,a\n" + "".join(
        "%.9g," % t + ",".join("%.9g" % (voltages[row, col] * 1e-3) for col in columns) + "\n"
        for row, t in enumerate(wave.times)
    )
    assert path.read_bytes() == expected.encode()


# mostly the fast decades [1e-4, 1) and their edges
POWERS_OF_TEN = (st.integers(-5, 0) | st.integers(-12, 12)).map(lambda k: float(f"1e{k}"))
CSV_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and both zeros included
    st.floats(min_value=-1.0, max_value=1.0),  # the encoder's fast decades
    POWERS_OF_TEN,
    # the doubles next to them; %.9g rounds the one below up to the power
    st.tuples(POWERS_OF_TEN, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: float(np.nextafter(*pair))
    ),
    # d.dddddddd5e(k+9): a tie at the 10th significant digit, as near as a
    # double gets, mostly in the fast decades [1e-4, 1)
    st.tuples(
        st.integers(10**8, 10**9 - 1),
        st.integers(-13, -10) | st.integers(-16, 3),
        st.sampled_from([-1.0, 1.0]),
    ).map(lambda d: d[2] * float(f"{d[0]}5e{d[1]}")),
)


def per_float_csv(table):
    return "".join(",".join("%.9g" % x for x in row) + "\n" for row in table.tolist())


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(CSV_FLOATS, min_size=1, max_size=32),
    n_probes=st.integers(1, 6),
    edge=st.sampled_from(["0", "1", "chunk-1", "chunk", "chunk+1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_encoder_writes_any_float_as_per_float_formatting(csv_dir, pool, n_probes, edge, seed):
    chunk = scenario_module._CSV_CHUNK_CELLS // (n_probes + 1)
    n_rows = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[edge]
    table = np.random.default_rng(seed).choice(np.array(pool), size=(n_rows, n_probes + 1))
    assert scenario_module._csv_rows(table).decode() == per_float_csv(table)

    # through the writer: times as drawn, volts scaled from millivolts
    labels = {f"n{i}": i for i in range(n_probes)}
    wave = Waveform(
        times=table[:, 0],
        voltages_mv=table[:, 1:],
        node_ids=tuple(labels.values()),
        phases=np.zeros((n_rows, 1), dtype=np.uint8),
        labels=labels,
        rest_mv=-70.0,
    )
    # a fresh directory per example: overwriting one file costs a truncate each time
    path = Path(tempfile.mkdtemp(dir=csv_dir)) / "wave.csv"
    write_waveform_csv(path, wave, tuple(labels))
    expected = np.column_stack((table[:, 0], table[:, 1:] * 1e-3))
    assert path.read_text() == "t_s," + ",".join(labels) + "\n" + per_float_csv(expected)


def test_digit_table_matches_its_string_form():
    # the encoder's four-digit words, built one string at a time as the reference
    word = scenario_module._ascii_word
    expected = [word(f"{n:04d}") for n in range(10_000)]
    expected += [word(f"{n:04d}".rstrip("0")) for n in range(10_000)]
    assert scenario_module._DIGITS.dtype == np.dtype("<u4")
    assert scenario_module._DIGITS.tolist() == expected


def test_dispersion_entry_shapes_shared_with_the_sweep_metric():
    doc = make_doc(analysis={"dispersion": {"early": "v(2)", "late": "v(3)"}})
    scenario = parse_scenario(doc)
    entry = evaluate_scenario(scenario).summary["analysis"]["dispersion"]
    assert entry["applicable"] is True
    assert (entry["early"], entry["late"]) == ("v(2)", "v(3)")
    assert compute_metric(scenario, "dispersion") == entry["value"]

    # six segments, stopped before the pulse reaches the far end
    doc = make_doc(
        builder={"kind": "chain", "n_segments": 6},
        probes=["v(2)", "v(7)"],
        config={"t_end": 2.0e-3},
        analysis={"dispersion": {"early": "v(2)", "late": "v(7)"}},
    )
    scenario = parse_scenario(doc)
    run = evaluate_scenario(scenario)
    assert [len(run.summary["analysis"]["pulses"][p]) for p in ("v(2)", "v(7)")] == [1, 0]
    entry = run.summary["analysis"]["dispersion"]
    assert set(entry) == {"applicable", "reason"} and entry["applicable"] is False
    assert "0 at 'v(7)'" in entry["reason"]
    assert entry == analysis_entry(scenario, run.topology, run.waveform, "dispersion")
    assert math.isnan(compute_metric(scenario, "dispersion"))


def truth_rows_simulated(monkeypatch) -> list[tuple]:
    """Record the driven nodes of every truth-table row that truth_table simulates."""
    rows = []
    real = analysis_module.simulate

    def simulate(topology, stimuli, *args):
        rows.append(tuple(stim.node for stim in stimuli))
        return real(topology, stimuli, *args)

    monkeypatch.setattr(analysis_module, "simulate", simulate)
    return rows


def every_row_simulated(scenario) -> dict[tuple[str, ...], bool]:
    truth = scenario.truth
    return truth_table(
        build_topology(scenario),
        truth.inputs,
        truth.output,
        config=scenario.config,
        params=scenario.params,
        threshold_mv=scenario.threshold_mv,
    )


@pytest.mark.parametrize(
    "name,own_row", [("fig11_or", ("A",)), ("fig13_xor", ("A", "B")), ("fig14_and", ("A", "B"))]
)
def test_gate_scenario_run_serves_its_matching_truth_row(monkeypatch, name, own_row):
    scenario = load_bundled_scenario(name)
    expected = every_row_simulated(scenario)
    simulated = truth_rows_simulated(monkeypatch)
    rows = evaluate_scenario(scenario).summary["analysis"]["truth_table"]["rows"]
    assert [(tuple(row["driven"]), row["value"]) for row in rows] == list(expected.items())
    assert simulated == [combo for combo in expected if combo != own_row]


def test_truth_rows_match_the_run_on_resolved_stimuli(monkeypatch):
    scenario = load_bundled_scenario("fig11_or")
    expected = every_row_simulated(scenario)
    node_a = build_topology(scenario).resolve("A")
    simulated = truth_rows_simulated(monkeypatch)
    # the input named by its node id is the same stimulus as the label's
    by_id = dataclasses.replace(scenario, stimuli=(dataclasses.replace(scenario.stimuli[0], node=node_a),))
    rows = evaluate_scenario(by_id).summary["analysis"]["truth_table"]["rows"]
    assert [(tuple(row["driven"]), row["value"]) for row in rows] == list(expected.items())
    assert simulated == [(), ("B",), ("A", "B")]
    # at 8 nA the run drives A differently from the rows' 10 nA: no row is served
    simulated.clear()
    weaker = dataclasses.replace(scenario, stimuli=(dataclasses.replace(scenario.stimuli[0], amplitude=8e-9),))
    evaluate_scenario(weaker)
    assert simulated == list(expected)


def test_reflection_analysis_block(tmp_path):
    doc = make_doc(analysis={"reflection": {"node": "v(2)"}})
    scenario = parse_scenario(doc)
    run = evaluate_scenario(scenario)
    block = run.summary["analysis"]["reflection"]
    assert block["node"] == "v(2)"
    assert block["pulse_count"] == 1
    assert block["reflected"] is False


# =====================================================================
# Command line
# =====================================================================


def write_base_yaml(tmp_path, name="cli_case"):
    path = tmp_path / f"{name}.yaml"
    path.write_text(
        f"name: {name}\n"
        "builder: {kind: chain, n_segments: 2}\n"
        "stimuli:\n"
        "  - {node: A, amplitude: 6.0e-9, t_start: 0.5e-3, duration: 0.2e-3}\n"
        "probes: [v(2), v(3)]\n"
        "config: {t_end: 5.0e-3}\n"
    )
    return path


def test_cli_run_explicit_path(tmp_path, capsys):
    path = write_base_yaml(tmp_path)
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "cli_case.csv").is_file()
    assert (tmp_path / "out" / "cli_case.summary.json").is_file()
    printed = capsys.readouterr().out
    assert "cli_case.csv" in printed


def test_cli_run_path_without_suffix(tmp_path):
    path = write_base_yaml(tmp_path)
    stem = str(path)[: -len(".yaml")]
    assert main(["run", stem, "--out-dir", str(tmp_path / "out")]) == 0


def test_cli_run_bundled_name(tmp_path):
    assert main(["run", "fig1_patch", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig1_patch.csv").is_file()


def test_cli_run_missing_scenario(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: bad\nbuilder: {kind: chain}\nprobes: [v(2)]\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "builder.n_segments" in capsys.readouterr().err


def test_cli_run_solver_failure_exit_code(tmp_path, capsys):
    # an absurd drive overflows the transient solve on the first steps
    path = tmp_path / "blowup.yaml"
    path.write_text(
        "name: blowup\n"
        "builder: {kind: chain, n_segments: 2}\n"
        "stimuli:\n"
        "  - {node: A, amplitude: 1.0e+300, t_start: 0.1e-3, duration: 1.0e-3}\n"
        "probes: [v(2)]\n"
        "config: {t_end: 2.0e-3}\n"
    )
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_run_over_the_memory_budget_exits_2(tmp_path, capsys):
    # 20,001 nodes: the dense conductance matrix alone would take 3.2 GB
    path = tmp_path / "huge.yaml"
    path.write_text("name: huge\nbuilder: {kind: chain, n_segments: 20000}\nprobes: [v(2)]\n")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run needs about") and "floats" in err
    assert not (tmp_path / "out").exists()


CHAIN = "{kind: chain, n_segments: 2}"


@pytest.mark.parametrize(
    "builder,segment,fragment",
    [
        (CHAIN, "{diameter: 1.0e-200}", "error: segment"),  # cross-section underflows
        (CHAIN, "{diameter: 1.0e+200}", "error: segment"),  # cross-section overflows
        (CHAIN, "{length: 1.0e-160, diameter: 1.0e-160}", "error: segment"),  # c_shunt is 0
        # refused before the builder allocates anything per segment
        ("{kind: chain, n_segments: 1000000000}", "{}", "nodes, more than 65536"),
        ("{kind: junction, branch_len: 1000000000, trunk_len: 5}", "{}", "nodes, more than 65536"),
    ],
    ids=["area_underflow", "area_overflow", "capacitance_underflow", "chain_bound", "junction_bound"],
)
def test_cli_run_unbuildable_documents_exit_2(tmp_path, capsys, builder, segment, fragment):
    path = tmp_path / "unbuildable.yaml"
    path.write_text(f"name: unbuildable\nbuilder: {builder}\nsegment: {segment}\nprobes: [v(2)]\n")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err


def test_cli_run_into_an_unusable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "fig1_patch", "--out-dir", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def no_runs(*_args, **_kwargs):
    raise AssertionError("an unusable --out-dir must be refused before simulating")


def test_cli_run_refuses_an_unusable_out_dir_before_simulating(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(scenario_module, "simulate", no_runs)
    assert main(["run", "fig1_patch", "--out-dir", str(blocker / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_sweep_refuses_an_unusable_out_dir_before_simulating(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(sweep_module, "simulate", no_runs)
    argv = ["sweep", "fig1_patch", "--param", "amplitude", "--from", "1e-9", "--to", "2e-8"]
    argv += ["--steps", "3", "--metric", "logic", "--out-dir", str(blocker / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def write_named_yaml(tmp_path, name):
    """write_base_yaml's document under ``name``, in a file with a short name."""
    path = tmp_path / "named.yaml"
    path.write_text(write_base_yaml(tmp_path).read_text().replace("cli_case", name))
    return path


def test_cli_run_refuses_a_name_too_long_before_simulating(tmp_path, capsys, monkeypatch):
    # the CSV's name fits in 255 bytes, the summary's does not
    path = write_named_yaml(tmp_path, "n" * 250)
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(scenario_module, "simulate", no_runs)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert os.strerror(errno.ENAMETOOLONG) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_sweep_refuses_a_name_too_long_before_simulating(tmp_path, capsys, monkeypatch):
    path = write_named_yaml(tmp_path, "n" * 240)
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(sweep_module, "simulate", no_runs)
    argv = ["sweep", str(path), "--param", "amplitude", "--from", "1e-9", "--to", "2e-8"]
    argv += ["--steps", "3", "--metric", "logic", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert os.strerror(errno.ENAMETOOLONG) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_run_refuses_a_threshold_at_or_below_rest_before_simulating(
    tmp_path, capsys, monkeypatch
):
    # below rest, an idle probe read as one pulse of NaN width, and the
    # summary held NaN, which is not JSON
    path = tmp_path / "idle.yaml"
    path.write_text(
        "name: idle\nbuilder: {kind: chain, n_segments: 2}\nstimuli: []\n"
        "probes: [A, v(2)]\nanalysis: {threshold_mv: -80.0}\n"
    )
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(scenario_module, "simulate", no_runs)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "analysis.threshold_mv: must lie above params.v_rest (-70.0), got -80.0" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_write_outputs_refuses_a_summary_that_is_not_json(tmp_path):
    run = evaluate_scenario(parse_scenario(make_doc()))
    run.summary["analysis"]["pulses"]["v(2)"][0]["fwhm_s"] = math.nan
    with pytest.raises(SolitonsimError, match="scenario 'probe_run': summary is not valid JSON"):
        write_outputs(run, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_cli_run_refuses_a_read_only_out_dir_before_simulating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario_module, "simulate", no_runs)
    monkeypatch.setattr(scenario_module.os, "access", lambda *_args: False)
    assert main(["run", "fig1_patch", "--out-dir", str(tmp_path / "x")]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_paper_suite_refuses_a_read_only_out_dir_before_simulating(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(scenario_module, "simulate", no_runs)
    monkeypatch.setattr(scenario_module.os, "access", lambda *_args: False)
    assert main(["paper-suite", "--out-dir", str(tmp_path / "x")]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_maps_any_solitonsim_error_to_exit_2(tmp_path, capsys, monkeypatch):
    def fail(*_args):
        raise NotApplicableError("no pulse at 'Z'")

    monkeypatch.setattr(cli, "run_scenario", fail)
    assert main(["run", str(write_base_yaml(tmp_path))]) == 2
    assert capsys.readouterr().err == "error: no pulse at 'Z'\n"


def test_cli_sweep_writes_csv(tmp_path, capsys):
    path = write_base_yaml(tmp_path)
    code = main(
        [
            "sweep",
            str(path),
            "--param",
            "amplitude",
            "--from",
            "2e-9",
            "--to",
            "6e-9",
            "--steps",
            "2",
            "--metric",
            "logic",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    csv_path = tmp_path / "cli_case_sweep_amplitude_logic.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "amplitude,logic"
    assert lines[1] == "2e-09,0"
    assert lines[2] == "6e-09,1"


def test_cli_sweep_unknown_param(tmp_path, capsys):
    path = write_base_yaml(tmp_path)
    code = main(
        ["sweep", str(path), "--param", "bogus", "--from", "1", "--to", "2", "--steps", "2", "--metric", "logic"]
    )
    assert code == 2
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_cli_sweep_unknown_metric(tmp_path, capsys):
    path = write_base_yaml(tmp_path)
    code = main(
        ["sweep", str(path), "--param", "amplitude", "--from", "1", "--to", "2", "--steps", "2", "--metric", "sparkle"]
    )
    assert code == 2
    assert "unknown sweep metric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario,param",
    [("fig16_taper", "taper_ratio"), ("fig13_xor", "junction_c_scale"), ("fig13_xor", "skew")],
)
def test_cli_sweep_non_finite_bounds(scenario, param, tmp_path, capsys):
    code = main(
        ["sweep", scenario, "--param", param, "--from", "nan", "--to", "nan", "--steps", "1",
         "--metric", "logic", "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "sweep bounds must be finite" in err
    assert "Traceback" not in err


def test_cli_sweep_pair_that_ignores_the_value_exits_2(tmp_path, capsys):
    code = main(
        ["sweep", "fig11_or", "--param", "amplitude", "--from", "1e-12", "--to", "1e-8",
         "--steps", "3", "--metric", "truth_ab", "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "cannot follow an amplitude sweep" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_requires_a_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Words the CLI property test draws from.  "<...>" tokens stand for paths the
# test makes; swept values are chosen so that no sweep point runs long (a
# dt of 1e-9 would step a bundled scenario 3e7 times).
SCENARIO_REFS = st.sampled_from(
    [*bundled_scenario_names(), "<mutated>", "<mutated-stem>", "<broken>", "<invalid>",
     "<missing>", "<directory>", "no_such_scenario", ""]
)
USABLE_OUT_DIRS = ["<out>", "<out>", None]  # None: the flag is left out
UNUSABLE_OUT_DIRS = ["<under-file>", "<file>", "<long-name>"]
GARBAGE_VALUES = ["nan", "-inf", "abc"]
SWEEP_VALUES = {
    "amplitude": ["6e-9", "1e-8", "0", "-1e-9", "1e300"],
    "junction_c_scale": ["0.5", "2", "0", "-1"],
    "taper_ratio": ["0.5", "2", "0", "-1", "1e-300"],
    "dt": ["1e-6", "2e-6", "0", "-1e-6", "1e308"],
    "skew": ["0", "1e-3", "-1e-3"],
}
REPLACEMENTS = [None, "x", [], {}, True, -1, 0, 1e308, "v(2)"]


@st.composite
def cli_cases(draw):
    """CLI words, and the document that "<mutated>" holds: a bundled one cut
    to at most 2 ms, perhaps with one value replaced."""
    document = copy.deepcopy(BUNDLED_DOCUMENTS[draw(st.sampled_from(sorted(BUNDLED_DOCUMENTS)))])
    document.setdefault("config", {})["t_end"] = draw(st.sampled_from([1e-3, 2e-3]))
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(list(value_paths(document))))
        node = document
        for parent in parents:
            node = node[parent]
        node[key] = draw(st.sampled_from(REPLACEMENTS))

    # repeated entries weight a draw toward the words that reach a run
    command = draw(st.sampled_from(["run", "run", "sweep", "sweep", "sweep", "paper-suite", "bogus"]))
    argv = [command]
    if command in ("run", "sweep"):
        argv.append(draw(SCENARIO_REFS))
    options = {}
    if command == "sweep":
        param = draw(st.sampled_from([*SWEEP_PARAMS, "bogus"]))
        values = st.sampled_from(SWEEP_VALUES.get(param, ["1"]) + GARBAGE_VALUES)
        options = {
            "--param": param,
            "--from": draw(values),
            "--to": draw(values),
            "--steps": draw(st.sampled_from(["1", "2", "3", "1", "2", "0", "-1", "65537", "x"])),
            "--metric": draw(st.sampled_from([*SWEEP_METRICS, "sparkle"])),
        }
        if draw(st.integers(0, 4)) == 0:
            del options[draw(st.sampled_from(sorted(options)))]  # a required flag left out
    # a usable --out-dir would run the whole suite (the acceptance tests do)
    out_dirs = UNUSABLE_OUT_DIRS if command == "paper-suite" else USABLE_OUT_DIRS + UNUSABLE_OUT_DIRS
    out_dir = draw(st.sampled_from(out_dirs))
    if out_dir is not None:
        options["--out-dir"] = out_dir
    argv += [f"{flag}={value}" for flag, value in options.items()]  # "--from=-1" is no flag
    argv += draw(st.sampled_from([[], [], [], [], ["--bogus"], ["--out-dir"], ["-h"]]))
    return argv, document


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """The paths every example shares: none of them is ever written."""
    root = tmp_path_factory.mktemp("cli")
    (root / "broken.yaml").write_text("name: [unclosed\n")
    (root / "invalid.yaml").write_text("name: bad\nbuilder: {kind: chain}\nprobes: [v(2)]\n")
    (root / "file").write_text("")
    return {
        "<broken>": str(root / "broken.yaml"),
        "<invalid>": str(root / "invalid.yaml"),
        "<missing>": str(root / "ghost.yaml"),
        "<directory>": str(root),
        "<under-file>": str(root / "file" / "out"),
        "<file>": str(root / "file"),
        "<long-name>": str(root / ("x" * 300)),
    }


def fresh_paths(root):
    """The paths an example writes, in a new directory: overwriting a file
    costs tens of milliseconds on some file systems, creating one does not."""
    fresh = Path(tempfile.mkdtemp(dir=root))
    (fresh / "cwd").mkdir()
    return {
        "<mutated>": str(fresh / "mutated.yaml"),
        "<mutated-stem>": str(fresh / "mutated"),
        "<out>": str(fresh / "out"),
        "<cwd>": str(fresh / "cwd"),
    }


@settings(max_examples=150, deadline=None)
@given(case=cli_cases())
def test_cli_exits_0_to_3_without_a_traceback(cli_paths, case):
    argv, document = case
    paths = {**cli_paths, **fresh_paths(cli_paths["<directory>"])}
    Path(paths["<mutated>"]).write_text(yaml.safe_dump(document))
    words = [re.sub("<[a-z-]+>", lambda token: paths[token[0]], word) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(paths["<cwd>"])  # where a run without --out-dir writes
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(words)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for -h
        code = exc.code
    finally:
        os.chdir(cwd)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
