"""Regenerate the reference outputs in refs/ from the current code.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every operation any seed can draw (workloads.input_space) once and
stores its fingerprint.  Run it only on code whose outputs are the
reference: a run's ref_dev_mv and failed-call count measure distance from
what this script saw.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import env


def main(argv: list[str]) -> int:
    env.cap_blas_threads()
    env.import_package()
    import reference
    import workloads as W

    for workload in argv or W.WORKLOADS:
        inputs = W.input_space(workload)
        tmp = Path(tempfile.mkdtemp(prefix=f"refs-{workload}-", dir=env.ROOT))
        try:
            paths = W.write_files(inputs, tmp / "inputs")
            entries = {}
            for op in inputs.ops:
                out = tmp / op.key
                out.mkdir()
                entries.update(W.fingerprint(op, W.execute(op, paths, out), out))
                print(f"{workload} {op.key}", flush=True)
            reference.save(workload, entries)
        finally:
            shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
