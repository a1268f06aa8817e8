"""Checkout layout, BLAS thread cap and the environment stamp.

Imports only the standard library, so the thread cap can be set before
numpy is first imported.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def missing_sources() -> list[str]:
    """Files the benchmark needs from the checkout that are not there."""
    needed = (SRC / "solitonsim" / "__init__.py", ORACLES, ROOT / "BENCHMARK.json")
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def nproc() -> int:
    """CPUs this process may run on, as the nproc command counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads() -> dict[str, str]:
    """Limit BLAS threads to nproc, keeping any lower setting already made."""
    cap = nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), cap) if current.isdigit() and int(current) > 0 else cap
        os.environ[var] = str(value)
    return {var: os.environ[var] for var in BLAS_VARS}


def import_package():
    """Import solitonsim from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import solitonsim

    origin = Path(solitonsim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"solitonsim imported from {origin}, not from the checkout")
    return solitonsim


def stamp() -> dict:
    """Where and with what a result was measured."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
