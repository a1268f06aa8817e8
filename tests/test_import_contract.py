"""What importing and running the package loads, and what the benchmark's tracer patches."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_run_loads_no_scipy(tmp_path):
    # A fresh interpreter: this test process has scipy loaded by the oracles.
    script = textwrap.dedent(
        """
        import sys
        from dataclasses import replace
        from pathlib import Path

        import solitonsim

        scenario = solitonsim.load_bundled_scenario("fig1_patch")
        scenario = replace(scenario, config=replace(scenario.config, t_end=1e-3))
        csv_path, _ = solitonsim.run_scenario(scenario, Path(sys.argv[1]))
        assert csv_path.stat().st_size > 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert list(tmp_path.glob("*.csv"))


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_resolves_to_a_callable():
    # a missing name would end the benchmark's traced pass in AttributeError
    tracer = _tracer()
    targets = tracer.SPAN_TARGETS + tracer.HOT_TARGETS
    assert targets
    for module_name, name, _layer in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
