"""Print one digest per in-process benchmark workload, to compare two trees bit for bit.

    PYTHONPATH=<tree>/src python tests/solve_digest.py --seed N

For each workload of ``bench/workloads.py`` (``classical-zero``,
``pure-closed-form`` and ``noisy-discord``) it runs every solve once and
prints the solve count and one sha256 over each solve's kind, label, method,
``value.hex()``, ``argopt`` bytes and report arrays (restart values,
evaluations, iterations and flags, and the best unitary). The ``qfc`` package
solved is the one on ``PYTHONPATH``, so running this script against a copy
of another commit's ``src`` compares that commit's solves with this one's;
equal digests mean equal bits. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def solve_digest(solves) -> str:
    """sha256 over the method, value, basis and report of each solve, in order."""
    digest = hashlib.sha256()
    for solve in solves:
        result = solve.run()
        digest.update(f"{solve.kind}|{solve.label}|{result.method}|".encode())
        digest.update(float(result.value).hex().encode())
        digest.update(_array_bytes(result.argopt))
        report = result.report
        if report is None:
            digest.update(b"no report")
            continue
        for a in (report.restart_values, report.restart_evaluations,
                  report.restart_iterations, report.restart_converged, report.best_unitary):
            digest.update(_array_bytes(a))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, build in workloads.IN_PROCESS.items():
        solves = build(args.seed)
        print(f"{name} seed={args.seed} solves={len(solves)} sha256={solve_digest(solves)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
