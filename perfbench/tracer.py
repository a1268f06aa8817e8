"""Traced pass: per-layer timings and counts measured from outside the package.

``traced(tracer)`` wraps public functions of the package for the length of
a ``with`` block.  Each wrapper replaces the function under its name in
every ``solitonsim`` module that bound it (``simulate`` is bound in
``engine``, ``scenario``, ``analysis``, ``sweep``, ``suite`` and the
package itself), so calls made inside the package are seen too.  The
originals are restored on exit.

Spans are kept in memory as ``[layer, parent, start_ns, end_ns, child_ns]``.
The two per-step functions, ``lu_solve`` and ``step_gate``, run millions
of times in a pass, so they are not stored one by one: their call count
and time are summed, and their time is added to the enclosing span's
child time.  A layer's inclusive time counts only its outermost spans;
its self time subtracts the time of everything it called that was traced.

The program is single-threaded, so nothing waits on anything else and no
wait time is recorded.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# (module, function name, layer) of every span-traced function
SPAN_TARGETS = (
    ("solitonsim.scenario", "load_scenario", "scenario.parse"),
    ("solitonsim.scenario", "load_bundled_scenario", "scenario.parse"),
    ("solitonsim.scenario", "parse_scenario", "scenario.parse"),
    ("solitonsim.scenario", "build_topology", "scenario.build_topology"),
    ("solitonsim.network", "build_chain", "network.build"),
    ("solitonsim.network", "build_junction", "network.build"),
    ("solitonsim.network", "build_and_gate", "network.build"),
    ("solitonsim.network", "build_taper", "network.build"),
    ("solitonsim.scenario", "evaluate_scenario", "scenario.evaluate"),
    ("solitonsim.scenario", "write_outputs", "scenario.write"),
    ("solitonsim.engine", "simulate", "engine.simulate"),
    ("solitonsim.engine", "refine_check", "engine.refine_check"),
    ("solitonsim.analysis", "detect_pulses", "analysis.detect_pulses"),
    ("solitonsim.analysis", "truth_table", "analysis.truth_table"),
    ("solitonsim.sweep", "run_sweep", "sweep.run_sweep"),
    ("solitonsim.suite", "run_paper_suite", "suite.run_paper_suite"),
) + tuple(
    ("solitonsim.suite", name, "suite.criteria")
    for name in (
        "criterion_1_elements",
        "criterion_2_patch",
        "criterion_3_propagation",
        "criterion_4_reflection",
        "criterion_5_annihilation",
        "criterion_6_truth_tables",
        "criterion_7_split",
        "criterion_8_taper_asymmetry",
        "criterion_9_numerics",
    )
)

# per-step functions: summed, not stored per call
HOT_TARGETS = (
    ("solitonsim.engine", "lu_solve", "engine.lu_solve"),
    ("solitonsim.engine", "step_gate", "membrane.step_gate"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hot: dict[str, list[int]] = {}  # layer -> [calls, ns, state changes]
        self.steps = 0
        self.seg_steps = 0
        self.csv_bytes = 0
        self._stack: list[list] = []
        self._outside = [None, None, 0, 0, 0]  # absorbs hot time spent outside any span

    def span(self, layer: str, fn):
        tracer = self
        on_return = _ON_RETURN.get(fn.__name__)
        signature = inspect.signature(fn) if on_return else None

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            record = [layer, parent, perf_counter_ns(), 0, 0]
            tracer.spans.append(record)
            tracer._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent[4] += record[3] - record[2]
            if on_return:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(tracer, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_call(self, layer: str, fn):
        # kept lean: these run once per step (lu_solve) or per segment-step (step_gate)
        totals = self.hot.setdefault(layer, [0, 0, 0])  # calls, ns, results differing from the input state
        stack, outside = self._stack, self._outside

        if fn.__name__ == "step_gate":

            def wrapper(state, v_prev, v_now, params):
                t0 = perf_counter_ns()
                result = fn(state, v_prev, v_now, params)
                elapsed = perf_counter_ns() - t0
                totals[0] += 1
                totals[1] += elapsed
                (stack[-1] if stack else outside)[4] += elapsed
                if result is not state:
                    totals[2] += 1
                return result

        else:

            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                elapsed = perf_counter_ns() - t0
                totals[0] += 1
                totals[1] += elapsed
                (stack[-1] if stack else outside)[4] += elapsed
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------

    def inclusive_ns(self, layer: str) -> int:
        """Time inside the layer, counting nested spans of the same layer once."""
        total = 0
        for record in self.spans:
            if record[0] != layer:
                continue
            parent = record[1]
            while parent is not None and parent[0] != layer:
                parent = parent[1]
            if parent is None:
                total += record[3] - record[2]
        return total

    def self_ns(self, layer: str) -> int:
        return sum(r[3] - r[2] - r[4] for r in self.spans if r[0] == layer)

    def calls(self, layer: str) -> int:
        if layer in self.hot:
            return self.hot[layer][0]
        return sum(1 for r in self.spans if r[0] == layer)

    def hot_ns(self, layer: str) -> int:
        return self.hot.get(layer, [0, 0, 0])[1]

    def counts(self) -> dict[str, int]:
        """The counters that must repeat exactly on identical inputs."""
        return {
            "engine.simulate_calls": self.calls("engine.simulate"),
            "engine.steps": self.steps,
            "engine.lu_solve_calls": self.calls("engine.lu_solve"),
            "membrane.step_gate_calls": self.calls("membrane.step_gate"),
            "membrane.gate_transitions": self.hot.get("membrane.step_gate", [0, 0, 0])[2],
            "scenario.csv_bytes": self.csv_bytes,
        }


def _after_simulate(tracer: Tracer, args: dict, _result) -> None:
    steps = int(round(args["config"].t_end / args["config"].dt))
    tracer.steps += steps
    tracer.seg_steps += steps * len(args["topology"].segments)


def _after_write(tracer: Tracer, _args: dict, result) -> None:
    csv_path, _summary_path = result
    tracer.csv_bytes += Path(csv_path).stat().st_size


_ON_RETURN = {"simulate": _after_simulate, "write_outputs": _after_write}


@contextmanager
def patched(replacements):
    """Install wrappers in every solitonsim module for the block.

    replacements: (module name, function name, make) triples; the function
    is replaced by make(original) wherever a solitonsim module bound it.
    """
    modules = [m for name, m in sys.modules.items() if name == "solitonsim" or name.startswith("solitonsim.")]
    replaced = []
    try:
        for module_name, attr, make in replacements:
            original = getattr(sys.modules[module_name], attr)
            wrapper = make(original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers in every solitonsim module for the block."""
    replacements = [
        (module_name, attr, lambda fn, make=make, layer=layer: make(layer, fn))
        for targets, make in ((SPAN_TARGETS, tracer.span), (HOT_TARGETS, tracer.hot_call))
        for module_name, attr, layer in targets
    ]
    with patched(replacements):
        yield tracer
