"""Reference outputs: storing them and checking a run against them.

``refs/<workload>.json`` holds, per operation key, the values that must
match exactly and the sha256 of each written file; ``refs/<workload>.npz``
holds the sampled millivolt arrays, named ``<key>:<sample name>``.  Both
are written by ``make_refs.py`` from the reference code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from workloads import REF_TOL_MV, Fingerprint, Op, fingerprint

REFS = Path(__file__).resolve().parent / "refs"


def _plain(value: Any) -> Any:
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def save(workload: str, entries: dict[str, Fingerprint]) -> None:
    REFS.mkdir(exist_ok=True)
    table = {key: {"exact": fp.exact, "hashes": fp.hashes} for key, fp in entries.items()}
    (REFS / f"{workload}.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    arrays = {f"{key}:{name}": a for key, fp in entries.items() for name, a in fp.samples.items()}
    np.savez_compressed(REFS / f"{workload}.npz", **arrays)


class Checker:
    """Compares each operation's outputs with the reference and keeps score.

    An operation fails when it raised, when an exact value differs, or
    when a sampled voltage is more than REF_TOL_MV from the reference.
    """

    def __init__(self, workload: str) -> None:
        self.table = json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))
        with np.load(REFS / f"{workload}.npz") as npz:
            self.samples = {name: npz[name] for name in npz.files}
        self.attempted = 0
        self.failed = 0
        self.ref_dev_mv = 0.0
        self.files_identical = 0
        self.files_compared = 0
        self.problems: list[str] = []

    def check(self, op: Op, result: Any, out_dir: Path, error: BaseException | None) -> bool:
        self.attempted += 1
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        else:
            problem = next(filter(None, (self._compare(k, fp) for k, fp in fingerprint(op, result, out_dir).items())), "")
        if problem:
            self.failed += 1
            self.problems.append(f"{op.key}: {problem}")
        return not problem

    def _compare(self, key: str, fp: Fingerprint) -> str:
        ref = self.table.get(key)
        if ref is None:
            return f"no reference entry {key}"
        problem = ""
        deviation = 0.0
        for stored in (n for n in self.samples if n.startswith(f"{key}:")):
            want = self.samples[stored]
            got = fp.samples.get(stored.split(":", 1)[1])
            if got is None or got.shape != want.shape:
                problem = problem or f"{stored} has shape {None if got is None else got.shape}, reference {want.shape}"
                continue
            both_nan = np.isnan(got) & np.isnan(want)
            diff = np.nan_to_num(np.where(both_nan, 0.0, np.abs(got - want)), nan=np.inf)
            deviation = max(deviation, float(np.max(diff, initial=0.0)))
        self.ref_dev_mv = max(self.ref_dev_mv, deviation)
        for name, digest in ref["hashes"].items():
            self.files_compared += 1
            self.files_identical += fp.hashes.get(name) == digest
        for name, want in ref["exact"].items():
            got = _plain(fp.exact.get(name))
            if got != want:
                problem = problem or f"{key} {name} differs from the reference: {str(got)[:200]}"
        if deviation > REF_TOL_MV:
            problem = problem or f"{key}: sampled voltage {deviation:.6g} mV from the reference (tolerance {REF_TOL_MV} mV)"
        return problem
