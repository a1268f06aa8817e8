"""Benchmark of solitonsim, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in workloads.py.  A run generates its inputs from
the seed, then:

* ``--trace 0`` measures set-up in fresh interpreters, then runs whole
  passes of the workload, untraced, until the next pass would end after
  ``--seconds`` (always at least one pass), and reports the end-to-end
  metrics of BENCHMARK.json.  Every timed call sits between blocks of a
  fixed yardstick, long calls are cut by more blocks where simulate
  returns, and times are reported at the yardstick's reference speed (see
  yardstick.py); raw medians are printed beside them.
* ``--trace 1`` runs one untraced pass, then one traced pass, then a
  second traced pass if the run will still be under TRACE_REPEAT_BUDGET_S
  after it, checking that the deterministic counters repeat exactly; then
  the per-topology fixed-cost probe.  It reports the per-layer metrics of
  BENCHMARK.json.

Every output is compared with the reference outputs in refs/.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The package is imported from the
checkout's src/; a directory without it is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import env

SETUP_REPEATS = 5
TRACE_REPEAT_BUDGET_S = 100.0  # a second traced pass runs only if the run should still be this young after it
ORACLE_TOL_US = 30.0  # the engine tests' widest tolerance on the fig1 event times


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_note(values: list[float]) -> str:
    """The median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    tails = [q for q in (99, 95, 90, 75) if n * (100 - q) / 100 >= 10]
    note = f"median of n={n}"
    if tails:
        note += f", p{tails[0]} {quantile(values, tails[0]):.6g}"
    else:
        note += ", too few samples for a tail percentile"
    return note


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        # imported here: numpy must not load before env.cap_blas_threads() has run
        import reference
        import workloads as W
        import yardstick

        self.started = perf_counter()
        self.W = W
        self.inputs = W.generate(workload, seed)
        self.tmp = tmp
        self.paths = W.write_files(self.inputs, tmp / "inputs")
        self.checker = reference.Checker(workload)
        self.runs, self.seg_steps = W.logical_work(self.inputs, self.paths)
        self.passes = 0
        self.bracket = yardstick.Bracket()

    def one_pass(self) -> tuple[list[float], list[float]]:
        """Run every op once, each between yardstick blocks; check the outputs
        after the timed part.  Returns raw and rescaled seconds per op."""
        out = self.tmp / f"pass{self.passes}"
        self.passes += 1
        out.mkdir(parents=True)
        results, raw, scaled = [], [], []
        for op in self.inputs.ops:
            outcome, seconds, rescaled = self.bracket.time(lambda: self._attempt(op, out))
            results.append(outcome)
            raw.append(seconds)
            scaled.append(rescaled)
        for op, (result, error) in zip(self.inputs.ops, results):
            self.checker.check(op, result, out, error)
        shutil.rmtree(out)
        return raw, scaled

    def _attempt(self, op, out: Path) -> tuple:
        try:
            return self.W.execute(op, self.paths, out), None
        except Exception as exc:  # a failed op is counted, not fatal
            traceback.print_exc()
            return None, exc

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Raw and rescaled seconds of SETUP_REPEATS fresh-interpreter set-ups."""
        import subprocess

        if any(op.kind == "suite" for op in self.inputs.ops):
            refs = [f"bundled:{name}" for name in self.W.S.bundled_scenario_names()]
        else:
            refs = [str(p) for p in self.paths.values()]
        command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(env.SRC), *refs]
        raw, scaled = [], []
        for _ in range(SETUP_REPEATS):
            done, outer, rescaled = self.bracket.time(
                lambda: subprocess.run(command, cwd=env.ROOT, capture_output=True, text=True, timeout=60, check=True)
            )
            seconds = float(done.stdout.split()[-1])  # timed inside the child, from before its imports
            raw.append(seconds)
            scaled.append(seconds * rescaled / outer)
        return raw, scaled

    def fixed_ms(self) -> float:
        """Mean per-topology cost of a two-step simulate (median of three probes each)."""
        S = self.W.S
        per_topology = []
        for topology, scenario in self.W.topologies(self.inputs, self.paths):
            config = S.SimConfig(dt=scenario.config.dt, t_end=2 * scenario.config.dt, record_stride=1,
                                 integrator=scenario.config.integrator)
            probes = []
            for _ in range(3):
                t0 = perf_counter()
                S.simulate(topology, (), config, scenario.params)
                probes.append(perf_counter() - t0)
            per_topology.append(statistics.median(probes))
        return 1e3 * statistics.fmean(per_topology)

    def oracle_error_us(self) -> float:
        """Largest error of the fig1 patch's event times against tests/oracles.py."""
        import dataclasses
        import importlib.util

        import numpy as np

        S = self.W.S
        previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave tests/ untouched
        spec = importlib.util.spec_from_file_location("perfbench_oracles", env.ORACLES)
        oracles = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = oracles  # dataclasses look their module up here
        try:
            spec.loader.exec_module(oracles)
        finally:
            sys.dont_write_bytecode = previous
            del sys.modules[spec.name]
        scenario = S.load_bundled_scenario("fig1_patch")
        p = scenario.params
        el = S.derive_elements(scenario.segment, p)
        (stim,) = scenario.stimuli
        want = oracles.isolated_patch_times(
            c_shunt=el.c_shunt,
            r_loss=el.r_loss,
            i_firing=el.i_na - el.i_k,
            i_falling=-el.i_k,
            u_trigger=(p.v_trigger - p.v_rest) * 1e-3,
            u_na_cutoff=(p.v_na_cutoff - p.v_rest) * 1e-3,
            u_k_cutoff=(p.v_k_cutoff - p.v_rest) * 1e-3,
            stim_amplitude=stim.amplitude,
            stim_start=stim.t_start,
            stim_duration=stim.duration,
        )
        config = dataclasses.replace(scenario.config, record_stride=1)
        wave = S.simulate(S.scenario.build_topology(scenario), scenario.stimuli, config, p)
        codes, times = wave.phase(0), wave.times
        t_fire = S.first_phase_time(wave, 0, S.GateState.FIRING)
        t_na = S.first_phase_time(wave, 0, S.GateState.FALLING)
        if t_fire is None or t_na is None:
            return float("inf")
        rest_after = np.flatnonzero((codes == S.GateState.REST.value) & (times > t_na))
        if len(rest_after) == 0:
            return float("inf")
        t_k = float(times[rest_after[0]])
        return 1e6 * max(
            abs(t_fire - want.t_trigger), abs(t_na - want.t_na_cutoff), abs(t_k - want.t_k_cutoff)
        )


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict, bool]:
    import resource

    import tracer as T

    setup_raw, setup = run.setup_seconds()
    walls_raw, walls, op_s = [], [], []
    start = perf_counter()
    # each return from simulate may cut a long call for another yardstick block
    with T.patched([("solitonsim.engine", "simulate", run.bracket.splitting)]):
        while True:
            pass_start = perf_counter()
            raw, scaled = run.one_pass()
            walls_raw.append(sum(raw))
            walls.append(sum(scaled))
            op_s += scaled
            if perf_counter() - start + (perf_counter() - pass_start) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    op_ms = [1e3 * d for d in op_s]
    metrics = {
        "wall_s": wall_s,
        "seg_steps_per_s": run.seg_steps / wall_s,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": f"{tail_note(walls)}; raw median {statistics.median(walls_raw):.6g}",
        "seg_steps_per_s": f"{run.seg_steps} logical segment-steps per pass / wall_s",
        "op_ms_p50": tail_note(op_ms),
        "op_ms_p90": f"n={len(op_ms)} calls",
        "setup_s": f"{tail_note(setup)}; raw median {statistics.median(setup_raw):.6g}",
        "peak_rss_mb": "ru_maxrss of this process after the passes",
    }
    ok = True
    if any(op.kind == "suite" for op in run.inputs.ops):
        error = run.oracle_error_us()
        ok = error <= ORACLE_TOL_US
        print(f"check oracle_err_us {error!r} us (fig1 trigger/Na-off/K-off vs tests/oracles.py; "
              f"tolerance {ORACLE_TOL_US} us){'' if ok else ' FAILED'}")
    return metrics, notes, ok


def measure_layers(run: Run) -> tuple[dict, dict, bool]:
    import tracer as T

    untraced = sum(run.one_pass()[0])
    tr = T.Tracer()
    with T.traced(tr):
        traced_wall = sum(run.one_pass()[0])
    ok = True
    repeat_note = "not repeated: a second traced pass would not fit"
    if perf_counter() - run.started + traced_wall <= TRACE_REPEAT_BUDGET_S:
        again = T.Tracer()
        with T.traced(again):
            run.one_pass()
        ok = again.counts() == tr.counts()
        repeat_note = "counters repeated exactly" if ok else f"counters DIFFER: {tr.counts()} vs {again.counts()}"
    print(f"check deterministic counters: {repeat_note}")

    ms = 1e-6  # ns -> ms
    simulate_ns = tr.inclusive_ns("engine.simulate")
    steps = max(tr.steps, 1)
    metrics = {
        "scenario.parse_ms": ms * tr.inclusive_ns("scenario.parse"),
        "scenario.build_topology_ms": ms * tr.inclusive_ns("scenario.build_topology"),
        "network.build_ms": ms * tr.inclusive_ns("network.build"),
        "scenario.write_ms": ms * tr.inclusive_ns("scenario.write"),
        "scenario.evaluate_self_ms": ms * tr.self_ns("scenario.evaluate"),
        "engine.simulate_ms": ms * simulate_ns,
        "engine.us_per_step": 1e-3 * simulate_ns / steps,
        "engine.ns_per_seg_step": simulate_ns / max(tr.seg_steps, 1),
        "engine.runs_per_call": run.runs / max(tr.calls("engine.simulate"), 1),
        "engine.lu_solve_ms": ms * tr.hot_ns("engine.lu_solve"),
        "engine.fixed_ms": run.fixed_ms(),
        "engine.refine_check_self_ms": ms * tr.self_ns("engine.refine_check"),
        "membrane.step_gate_ms": ms * tr.hot_ns("membrane.step_gate"),
        "analysis.detect_pulses_ms": ms * tr.inclusive_ns("analysis.detect_pulses"),
        "analysis.truth_table_self_ms": ms * tr.self_ns("analysis.truth_table"),
        "sweep.run_sweep_self_ms": ms * tr.self_ns("sweep.run_sweep"),
        "suite.criteria_self_ms": ms * tr.self_ns("suite.criteria"),
        "trace.overhead_s": traced_wall - untraced,
        **tr.counts(),
    }
    notes = {
        "trace.overhead_s": f"traced pass {traced_wall:.6g} s - untraced pass {untraced:.6g} s",
        "engine.runs_per_call": f"{run.runs} logical runs per pass",
        "engine.ns_per_seg_step": f"{tr.seg_steps} segment-steps seen by simulate",
    }
    return metrics, notes, ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    missing = env.missing_sources()
    if missing:
        print(f"error: not a solitonsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env.cap_blas_threads()
    env.import_package()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = env.ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, tmp)
        print("stamp " + json.dumps(env.stamp(), sort_keys=True))
        if args.trace:
            metrics, notes, ok = measure_layers(run)
        else:
            metrics, notes, ok = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass

    checker = run.checker
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {run.passes} passes, "
          f"{len(run.inputs.ops)} calls per pass, {run.runs} logical runs, {run.seg_steps} segment-steps")
    for name, value in metrics.items():
        unit = units.get(name, "count" if isinstance(value, int) else "ms")
        marker = "" if name in units else "  (report only)"
        print(f"  {name:<30} {value:<22.10g} {unit:<6} {notes.get(name, '')}{marker}")
    print(f"  {'ops_failed_frac':<30} {checker.failed / max(checker.attempted, 1):<22.10g} {'1':<6} "
          f"{checker.failed} of {checker.attempted} calls")
    print(f"  {'ref_dev_mv':<30} {checker.ref_dev_mv:<22.10g} {'mV':<6} sampled voltages vs refs/")
    print(f"  {'files_identical':<30} {checker.files_identical:<22d} {'count':<6} "
          f"of {checker.files_compared} written files byte-identical to the reference")
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}")

    result = {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
