"""Seeded workload generators and the operations they issue.

A workload is a list of operations (``Op``) plus the scenario files they
read.  ``generate(workload, seed)`` builds both from the seed alone; the
package under test only ever sees the generated YAML text and the call
arguments.  Every generated value is drawn from a small fixed grid, so the
set of inputs any seed can produce is finite: ``make_refs.py`` runs each
of them once on the reference code and stores the outputs in ``refs/``,
and a run compares its outputs against that store.  Seeds change which
grid points are run and in what order, not how much work a pass does, so
the timing of different seeds stays comparable.

Workloads:

* ``paper_suite`` - one ``run_paper_suite`` per pass, the run users and
  the acceptance tests pay for.  It has no free inputs, so every seed
  runs the same suite.
* ``gate_batch`` - truth tables of the three bundled gate networks plus
  skew and amplitude sweeps.  Every simulation shares its topology with
  several others, which is where a batched engine would work.
* ``topology_sweep`` - many short scenarios on different topologies plus
  sweeps that change the topology or dt at every point.  Per-topology
  set-up is a large share and nothing can be batched.
* ``long_line`` - one run on a 160-segment chain with many stimulus
  sites, recorded at stride 1 with every node probed and written.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

import solitonsim as S

WORKLOADS = ("paper_suite", "gate_batch", "topology_sweep", "long_line")

# Outputs within this many millivolts of the reference count as unchanged.
REF_TOL_MV = 1e-3

# Rows and voltage columns kept from each CSV for the reference comparison.
SAMPLE_ROWS = 48
SAMPLE_COLS = 12


@dataclass(frozen=True)
class Op:
    """One top-level call into the package.

    kind is "scenario" (load_scenario + evaluate_scenario + write_outputs),
    "truth" (load_scenario + truth_table), "sweep" (load_scenario +
    run_sweep) or "suite" (run_paper_suite).  ``key`` names the reference
    entry; it identifies the inputs, so two seeds that draw the same grid
    point share it.
    """

    key: str
    kind: str
    file: str = ""
    args: tuple = ()


@dataclass
class Inputs:
    files: dict[str, str]  # file stem -> YAML text
    ops: list[Op]


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


def _stim(node: str, amplitude: float, t_start: float, duration: float = 0.2e-3) -> dict:
    return {"node": node, "amplitude": amplitude, "t_start": t_start, "duration": duration}


def _doc(name, builder, stimuli, probes, config, analysis=None, segment=None) -> dict:
    doc = {"name": name, "builder": builder, "stimuli": stimuli, "probes": probes, "config": config}
    if segment:
        doc["segment"] = segment
    if analysis:
        doc["analysis"] = analysis
    return doc


def _yaml(doc: dict) -> str:
    # PyYAML writes floats as 1.0e-08, which YAML 1.1 reads back as a float.
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# gate_batch
# ---------------------------------------------------------------------------

GATES = {
    "or": {"kind": "junction", "branch_len": 5, "trunk_len": 5, "junction_c_scale": 1.0},
    "xor": {"kind": "junction", "branch_len": 5, "trunk_len": 5, "junction_c_scale": 0.67},
    "and": {"kind": "and_gate"},
}
GATE_AMPLITUDES = (8e-9, 10e-9, 12e-9, 15e-9)
GATE_STARTS = (0.5e-3, 1.0e-3)
SKEW_GRID = tuple(round(0.1e-3 * i, 10) for i in range(13))
AMPLITUDE_GRID = (1e-9, 2e-9, 2.5e-9, 3e-9, 4e-9, 5e-9, 6e-9, 8e-9, 10e-9, 12e-9, 15e-9, 20e-9)
GATE_T_END = 25e-3  # the slowest single-input row reaches Z near 21.5 ms
PATCH_T_END = 8e-3
TAPER_T_END = 20e-3


def _gate_files() -> dict[str, str]:
    files = {}
    for gate, builder in GATES.items():
        files[f"gate_{gate}"] = _yaml(
            _doc(
                f"gate_{gate}",
                builder,
                [_stim("A", 10e-9, 1e-3)],
                ["J", "Z"],
                {"t_end": GATE_T_END},
                analysis={"truth_table": {"inputs": ["A", "B"], "output": "Z"}},
            )
        )
    files["patch"] = _yaml(
        _doc("patch", {"kind": "chain", "n_segments": 1}, [_stim("A", 10e-9, 1e-3)], ["v(2)"],
             {"t_end": PATCH_T_END})
    )
    taper = {"kind": "taper", "n_segments": 10, "d_start": 1.0e-4, "d_end": 0.5e-4}
    files["taper_fwd"] = _yaml(
        _doc("taper_fwd", taper, [_stim("A", 4e-9, 1e-3)], ["v(2)", "v(11)"], {"t_end": TAPER_T_END})
    )
    files["taper_rev"] = _yaml(
        _doc("taper_rev", taper, [_stim("Z", 4e-9, 1e-3)], ["v(11)", "v(2)"], {"t_end": TAPER_T_END})
    )
    return files


def _gate_truth_op(gate: str, ai: int, ti: int) -> Op:
    return Op(f"truth_{gate}_a{ai}_t{ti}", "truth", f"gate_{gate}", (GATE_AMPLITUDES[ai], GATE_STARTS[ti]))


def _sweep_op(file: str, param: str, metric: str, values) -> Op:
    return Op(f"sweep_{file}_{param}", "sweep", file, (param, tuple(values), metric))


def _gate_batch(seed: int) -> Inputs:
    rng = random.Random(seed)
    ops = [
        _gate_truth_op(gate, rng.randrange(len(GATE_AMPLITUDES)), rng.randrange(len(GATE_STARTS)))
        for gate in GATES
    ]
    # Four skews cost about what a truth table does, so the median call is one
    # of four alike rather than a lone one.
    ops.append(_sweep_op("gate_xor", "skew", "truth_ab", sorted(rng.sample(SKEW_GRID, 4))))
    ops.append(_sweep_op("patch", "amplitude", "logic", sorted(rng.sample(AMPLITUDE_GRID, 3))))
    for file in ("taper_fwd", "taper_rev"):
        ops.append(_sweep_op(file, "amplitude", "logic", sorted(rng.sample(AMPLITUDE_GRID, 2))))
    rng.shuffle(ops)
    return Inputs(_gate_files(), ops)


def _gate_batch_space() -> Inputs:
    ops = [
        _gate_truth_op(gate, ai, ti)
        for gate in GATES
        for ai in range(len(GATE_AMPLITUDES))
        for ti in range(len(GATE_STARTS))
    ]
    ops.append(_sweep_op("gate_xor", "skew", "truth_ab", SKEW_GRID))
    ops += [_sweep_op(file, "amplitude", "logic", AMPLITUDE_GRID) for file in ("patch", "taper_fwd", "taper_rev")]
    return Inputs(_gate_files(), ops)


# ---------------------------------------------------------------------------
# topology_sweep
# ---------------------------------------------------------------------------

# (builder kind, builder size arguments, analysis to request)
TOPOLOGY_SLOTS = (
    ("chain", {"n_segments": 1}, None),
    ("chain", {"n_segments": 2}, None),
    ("chain", {"n_segments": 4}, None),
    ("chain", {"n_segments": 6}, None),
    ("chain", {"n_segments": 8}, "reflection"),
    ("chain", {"n_segments": 10}, "dispersion"),
    ("chain", {"n_segments": 12}, None),
    ("chain", {"n_segments": 16}, None),
    ("chain", {"n_segments": 20}, None),
    ("chain", {"n_segments": 24}, None),
    ("chain", {"n_segments": 30}, None),
    ("junction", {"branch_len": 2, "trunk_len": 2}, None),
    ("junction", {"branch_len": 3, "trunk_len": 3}, "truth_table"),
    ("junction", {"branch_len": 4, "trunk_len": 2}, None),
    ("junction", {"branch_len": 2, "trunk_len": 5}, None),
    ("junction", {"branch_len": 5, "trunk_len": 5}, None),
    ("junction", {"branch_len": 3, "trunk_len": 6}, None),
    ("and_gate", {}, "truth_table"),
    ("and_gate", {}, None),
    ("taper", {"n_segments": 6}, None),
    ("taper", {"n_segments": 10}, None),
    ("taper", {"n_segments": 14}, None),
)
TOPOLOGY_VARIANTS = 3
SHORT_T_END = (2e-3, 3e-3)


def _last_node(kind: str, size: dict) -> int:
    if kind in ("chain", "taper"):
        return size["n_segments"] + 1
    if kind == "and_gate":
        return 11
    return size["branch_len"] + size["trunk_len"] + 1


def _topology_doc(slot: int, variant: int) -> dict:
    """Scenario of one slot.  The slot fixes everything that sets the cost
    (network size, dt, t_end, integrator, stimulus count); the variant
    draws the values (geometry, loading, amplitudes, timing, driven nodes)."""
    kind, size, analysis_kind = TOPOLOGY_SLOTS[slot]
    shape = random.Random(f"topology_sweep:{slot}")
    config = {
        "dt": shape.choice((1e-6, 2e-6)),
        "t_end": shape.choice(SHORT_T_END),
        "integrator": shape.choice(("trapezoidal", "backward_euler")),
    }
    n_stimuli = shape.choice((1, 1, 2))
    rng = random.Random(f"topology_sweep:{slot}:{variant}")
    builder = {"kind": kind, **size}
    if kind == "chain" and analysis_kind == "reflection":
        builder["terminal_extra_c"] = rng.choice((30e-12, 60e-12))
    if kind == "junction":
        builder["junction_c_scale"] = rng.choice((0.6, 0.8, 1.0))
    if kind == "taper":
        builder["d_start"] = 1.0e-4
        builder["d_end"] = rng.choice((0.6e-4, 0.8e-4, 1.2e-4))
    segment = {"length": rng.choice((0.08, 0.1, 0.12)), "diameter": rng.choice((0.9e-4, 1.0e-4, 1.1e-4))}
    inputs = ["A", "B"] if kind in ("junction", "and_gate") else ["A", "Z"]
    stimuli = [
        _stim(node, rng.choice((6e-9, 8e-9, 10e-9, 14e-9)), rng.choice((0.2e-3, 0.4e-3, 0.6e-3)))
        for node in rng.sample(inputs, n_stimuli)
    ]
    last = _last_node(kind, size)
    probes = list(dict.fromkeys(["A", f"v({max(2, last // 2)})", "Z"]))
    analysis = None
    if analysis_kind == "reflection":
        analysis = {"reflection": {"node": "Z"}}
    elif analysis_kind == "dispersion":
        analysis = {"dispersion": {"early": "v(2)", "late": f"v({last - 1})"}}
    elif analysis_kind == "truth_table":
        analysis = {"truth_table": {"inputs": ["A", "B"], "output": "J"}}
    return _doc(f"ts_{slot:02d}_{variant}", builder, stimuli, probes, config, analysis, segment)


def _topology_sweep_files() -> dict[str, str]:
    junction = {"kind": "junction", "branch_len": 3, "trunk_len": 3, "junction_c_scale": 1.0}
    taper = {"kind": "taper", "n_segments": 8, "d_start": 1.0e-4, "d_end": 0.5e-4}
    chain = {"kind": "chain", "n_segments": 6}
    short = {"t_end": 3e-3}
    return {
        "sweep_junction": _yaml(_doc("sweep_junction", junction, [_stim("A", 10e-9, 0.2e-3), _stim("B", 10e-9, 0.2e-3)], ["A", "J"], short)),
        "sweep_taper": _yaml(_doc("sweep_taper", taper, [_stim("A", 10e-9, 0.2e-3)], ["A", "v(5)"], short)),
        "sweep_dt": _yaml(_doc("sweep_dt", chain, [_stim("A", 10e-9, 0.2e-3)], ["A", "v(4)"], short)),
    }


JUNCTION_SCALE_GRID = tuple(round(0.5 + 0.05 * i, 10) for i in range(11))
TAPER_RATIO_GRID = (0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
# dt is drawn once from each bin, so every seed's dt sweep costs about the same
DT_BINS = ((0.5e-6, 0.55e-6), (1e-6, 1.1e-6), (2e-6, 2.2e-6))
TOPOLOGY_SWEEPS = (
    ("sweep_junction", "junction_c_scale", JUNCTION_SCALE_GRID),
    ("sweep_taper", "taper_ratio", TAPER_RATIO_GRID),
)


def _topology_sweep(seed: int) -> Inputs:
    rng = random.Random(seed)
    files = _topology_sweep_files()
    ops = []
    for slot in range(len(TOPOLOGY_SLOTS)):
        variant = rng.randrange(TOPOLOGY_VARIANTS)
        doc = _topology_doc(slot, variant)
        files[doc["name"]] = _yaml(doc)
        ops.append(Op(doc["name"], "scenario", doc["name"]))
    for file, param, grid in TOPOLOGY_SWEEPS:
        ops.append(_sweep_op(file, param, "peak_mv", sorted(rng.sample(grid, 3))))
    ops.append(_sweep_op("sweep_dt", "dt", "peak_mv", [rng.choice(pair) for pair in DT_BINS]))
    rng.shuffle(ops)
    return Inputs(files, ops)


def _topology_sweep_space() -> Inputs:
    files = _topology_sweep_files()
    ops = []
    for slot in range(len(TOPOLOGY_SLOTS)):
        for variant in range(TOPOLOGY_VARIANTS):
            doc = _topology_doc(slot, variant)
            files[doc["name"]] = _yaml(doc)
            ops.append(Op(doc["name"], "scenario", doc["name"]))
    for file, param, grid in TOPOLOGY_SWEEPS:
        ops.append(_sweep_op(file, param, "peak_mv", grid))
    ops.append(_sweep_op("sweep_dt", "dt", "peak_mv", [dt for pair in DT_BINS for dt in pair]))
    return Inputs(files, ops)


# ---------------------------------------------------------------------------
# long_line
# ---------------------------------------------------------------------------

LONG_SEGMENTS = 160
LONG_SITE_SPACING = 16
LONG_SITES = 10
LONG_VARIANTS = 8


def _long_doc(variant: int) -> dict:
    rng = random.Random(f"long_line:{variant}")
    offset = rng.randrange(1, LONG_SEGMENTS + 2 - LONG_SITE_SPACING * (LONG_SITES - 1))
    stimuli = [
        _stim(f"v({offset + LONG_SITE_SPACING * i})", rng.choice((8e-9, 10e-9, 12e-9, 14e-9)),
              round(rng.choice(range(2, 10)) * 0.1e-3, 10))
        for i in range(LONG_SITES)
    ]
    probes = [f"v({k})" for k in range(1, LONG_SEGMENTS + 2)]
    config = {"dt": 1e-6, "t_end": 5e-3, "record_stride": 1}
    return _doc(f"long_{variant}", {"kind": "chain", "n_segments": LONG_SEGMENTS}, stimuli, probes, config)


def _long_line(seed: int) -> Inputs:
    doc = _long_doc(random.Random(seed).randrange(LONG_VARIANTS))
    return Inputs({doc["name"]: _yaml(doc)}, [Op(doc["name"], "scenario", doc["name"])])


def _long_line_space() -> Inputs:
    docs = [_long_doc(v) for v in range(LONG_VARIANTS)]
    return Inputs({d["name"]: _yaml(d) for d in docs}, [Op(d["name"], "scenario", d["name"]) for d in docs])


# ---------------------------------------------------------------------------
# paper_suite
# ---------------------------------------------------------------------------


def _paper_suite(_seed: int) -> Inputs:
    return Inputs({}, [Op("suite", "suite")])


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of one run: the same seed always gives the same inputs."""
    return {
        "paper_suite": _paper_suite,
        "gate_batch": _gate_batch,
        "topology_sweep": _topology_sweep,
        "long_line": _long_line,
    }[workload](seed)


def input_space(workload: str) -> Inputs:
    """Every operation any seed can draw, one grid point per op."""
    return {
        "paper_suite": lambda: _paper_suite(0),
        "gate_batch": _gate_batch_space,
        "topology_sweep": _topology_sweep_space,
        "long_line": _long_line_space,
    }[workload]()


def write_files(inputs: Inputs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, text in inputs.files.items():
        path = directory / f"{stem}.yaml"
        path.write_text(text, encoding="utf-8")
        paths[stem] = path
    return paths


# ---------------------------------------------------------------------------
# logical work, counted from the inputs
# ---------------------------------------------------------------------------


def _size(scenario) -> tuple[int, int]:
    """(segments, steps) of one simulation of the scenario."""
    n_segments = len(S.scenario.build_topology(scenario).segments)
    return n_segments, int(round(scenario.config.t_end / scenario.config.dt))


def _scenario_work(scenario) -> tuple[int, int]:
    """(runs, segment-steps) of evaluate_scenario: the waveform plus any truth-table rows."""
    n_seg, steps = _size(scenario)
    runs = 1 + (2 ** len(scenario.truth.inputs) if scenario.truth else 0)
    return runs, runs * n_seg * steps


def _suite_work() -> tuple[int, int]:
    """(runs, segment-steps) of run_paper_suite, following its documented structure."""
    runs = seg_steps = 0
    bundled = {name: S.load_bundled_scenario(name) for name in S.bundled_scenario_names()}
    for scenario in bundled.values():
        r, w = _scenario_work(scenario)
        runs, seg_steps = runs + r, seg_steps + w
    n_grid = len(S.suite.AMPLITUDE_GRID)
    extra = [
        # (scenario, runs, multiple of one run's segment-steps)
        (bundled["fig8_reflection"], 1, 1),  # criterion 4: unloaded control
        (bundled["fig16_taper"], 2 * n_grid, 2 * n_grid),  # criterion 8: both windows
        (bundled["fig7_chain"], 2, 3),  # criterion 9: refine_check at dt and at dt/2
        (bundled["fig7_chain"], 1, 1),  # criterion 9: bit-determinism rerun
    ]
    for scenario, count, multiple in extra:
        n_seg, steps = _size(scenario)
        runs += count
        seg_steps += multiple * n_seg * steps
    runs += 1  # criterion 9: quiet ten-segment chain, 5 ms at the default dt
    seg_steps += 10 * int(round(5e-3 / S.SimConfig().dt))
    return runs, seg_steps


def logical_work(inputs: Inputs, paths: dict[str, Path]) -> tuple[int, int]:
    """(runs, segment-steps) one pass of the workload asks for.

    Every scenario run, truth-table row and sweep point counts as one run
    of n_segments x round(t_end / dt) segment-steps, however the engine
    chooses to compute it.
    """
    runs = seg_steps = 0
    for op in inputs.ops:
        if op.kind == "suite":
            r, w = _suite_work()
        else:
            scenario = S.load_scenario(paths[op.file])
            if op.kind == "scenario":
                r, w = _scenario_work(scenario)
            elif op.kind == "truth":
                n_seg, steps = _size(scenario)
                r = 2 ** len(scenario.truth.inputs)
                w = r * n_seg * steps
            else:
                param, values, _metric = op.args
                r, w = 0, 0
                for value in values:
                    point = scenario if param == "skew" else S.sweep.apply_param(scenario, param, value)
                    n_seg, steps = _size(point)
                    r, w = r + 1, w + n_seg * steps
        runs, seg_steps = runs + r, seg_steps + w
    return runs, seg_steps


def topologies(inputs: Inputs, paths: dict[str, Path]) -> list[tuple[Any, Any]]:
    """(topology, scenario) for every distinct network a pass builds."""
    if any(op.kind == "suite" for op in inputs.ops):
        scenarios = [S.load_bundled_scenario(name) for name in S.bundled_scenario_names()]
    else:
        scenarios = []
        for op in inputs.ops:
            scenario = S.load_scenario(paths[op.file])
            if op.kind == "sweep" and op.args[0] in ("junction_c_scale", "taper_ratio", "dt"):
                scenarios += [S.sweep.apply_param(scenario, op.args[0], v) for v in op.args[1]]
            else:
                scenarios.append(scenario)
    return [(S.scenario.build_topology(s), s) for s in scenarios]


# ---------------------------------------------------------------------------
# executing an operation and fingerprinting its outputs
# ---------------------------------------------------------------------------


def execute(op: Op, paths: dict[str, Path], out_dir: Path) -> Any:
    """Issue one top-level call.  Functions are looked up at call time so a
    traced pass sees the wrapped versions."""
    if op.kind == "suite":
        return S.suite.run_paper_suite(out_dir / "suite")
    scenario = S.scenario.load_scenario(paths[op.file])
    if op.kind == "scenario":
        run = S.scenario.evaluate_scenario(scenario)
        S.scenario.write_outputs(run, out_dir)
        return run
    if op.kind == "truth":
        amplitude, t_start = op.args
        return S.analysis.truth_table(
            S.scenario.build_topology(scenario),
            scenario.truth.inputs,
            scenario.truth.output,
            amplitude=amplitude,
            t_start=t_start,
            config=scenario.config,
            params=scenario.params,
            threshold_mv=scenario.threshold_mv,
        )
    param, values, metric = op.args
    return S.sweep.run_sweep(scenario, param, list(values), metric, out_dir / f"{op.key}.csv")


@dataclass
class Fingerprint:
    """What a reference comparison looks at.

    exact: values that must match the reference exactly (verdicts, pulse
    counts, truth rows, logic sweep values).  samples: millivolt arrays
    compared within REF_TOL_MV.  hashes: sha256 of written files, reported
    but not required to match.
    """

    exact: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, np.ndarray] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sample_csv(path: Path) -> tuple[str, int, np.ndarray]:
    """(header, data rows, sampled voltages in mV) of a waveform CSV.

    Keeps SAMPLE_ROWS evenly spaced rows and SAMPLE_COLS evenly spaced
    voltage columns (the last one always included), streaming the file.
    """
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        n_rows = sum(1 for _ in fh)
    n_cols = header.count(",")
    cols = sorted(set(np.linspace(1, n_cols, min(SAMPLE_COLS, n_cols)).round().astype(int)))
    step = max(1, n_rows // SAMPLE_ROWS)
    rows = []
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        for i, line in enumerate(fh):
            if i % step == 0:
                cells = line.split(",")
                rows.append([float(cells[c]) * 1e3 for c in cols])
    return header, n_rows, np.array(rows)


def _csv_fingerprint(fp: Fingerprint, name: str, path: Path) -> None:
    header, n_rows, samples = sample_csv(path)
    fp.exact[f"{name}.header"] = header
    fp.exact[f"{name}.rows"] = n_rows
    fp.samples[name] = samples
    fp.hashes[name] = _sha256(path)


def fingerprint(op: Op, result: Any, out_dir: Path) -> dict[str, Fingerprint]:
    """Reference key -> fingerprint of one op's outputs.

    A sweep gives one entry per point, keyed by its value, so any subset
    of a sweep's grid can be checked against a reference made from the
    whole grid.
    """
    fp = Fingerprint()
    if op.kind == "suite":
        # the PASS/FAIL pattern must hold; the detail text may gain margins
        fp.exact["verdicts"] = [[r.name, r.passed] for r in result]
        fp.hashes["report"] = hashlib.sha256(S.suite.format_report(result).encode()).hexdigest()
        for path in sorted((out_dir / "suite").iterdir()):
            if path.suffix == ".csv" and path.read_text(encoding="utf-8").startswith("t_s,"):
                _csv_fingerprint(fp, path.stem, path)
            else:
                fp.hashes[path.name] = _sha256(path)
                if path.suffix == ".csv":
                    fp.exact[path.name] = path.read_text(encoding="utf-8")
        return {op.key: fp}
    if op.kind == "scenario":
        analysis = result.summary["analysis"]
        fp.exact["pulses"] = {probe: len(events) for probe, events in analysis.get("pulses", {}).items()}
        if "truth_table" in analysis:
            fp.exact["truth"] = [[row["driven"], row["value"]] for row in analysis["truth_table"]["rows"]]
        if "reflection" in analysis:
            fp.exact["reflection"] = analysis["reflection"]["pulse_count"]
        _csv_fingerprint(fp, "csv", out_dir / f"{result.scenario.name}.csv")
        fp.hashes["summary"] = _sha256(out_dir / f"{result.scenario.name}.summary.json")
        return {op.key: fp}
    if op.kind == "truth":
        fp.exact["rows"] = [[list(combo), value] for combo, value in result.items()]
        return {op.key: fp}
    param, _values, metric = op.args
    rows = (out_dir / f"{op.key}.csv").read_text(encoding="utf-8").splitlines()
    points = {}
    for point, row in zip(result, rows[1:]):
        fp = Fingerprint()
        fp.exact["value"] = point.value
        # the CSV must hold exactly what run_sweep returned
        fp.exact["csv_row"] = row == "%.9g,%.9g" % (point.value, point.metric)
        if metric == "peak_mv":
            fp.samples["metric"] = np.array([point.metric])
        else:
            fp.exact["metric"] = point.metric
        points[f"{op.key}@{point.value!r}"] = fp
    if rows[0] != f"{param},{metric}" or len(rows) != len(result) + 1:
        points[op.key] = Fingerprint(exact={"csv": "malformed"})
    return points
