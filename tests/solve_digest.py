"""Print one digest per in-process benchmark workload, one for the reach states and one for verify.

    PYTHONPATH=<tree>/src python tests/solve_digest.py --seed N

For each workload of ``bench/workloads.py`` (``classical-zero``,
``pure-closed-form`` and ``noisy-discord``) it runs every solve once and
prints the solve count and one sha256 over each solve's kind, label, method,
``value.hex()``, ``argopt`` bytes and report arrays (restart values,
evaluations, iterations and flags, and the best unitary). The ``reach`` line
hashes the same fields for the 20 states of ``tests/test_reach.py`` under
all four solvers, with the default config and with ``short_config(i)``, and
prints the total evaluations of each config; it does not depend on
``--seed``. On every searching solve of the workloads restart 0 is optimal
at its first evaluation, so the reach solves are the ones that run the
screen rounds. The ``verify`` line runs every criterion of
``qfc.verify.ALL_CRITERIA`` at ``OptimizerConfig(seed=N)``, as ``qfc verify
--seed N`` does, and hashes each criterion's number, name and margins
(label, ``value.hex()``, sense, bound), but not its seconds. The ``qfc``
package solved is the one on ``PYTHONPATH``, so running this script against
a copy of another commit's ``src`` compares that commit's solves with this
one's; equal digests mean equal bits. Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfc import verify
from qfc.optimize import OptimizerConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import test_reach  # noqa: E402
import workloads  # noqa: E402


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def digest_solves(digest, solves) -> int:
    """Add the method, value, basis and report of each solve, in order, to ``digest``.

    Returns the solves' total evaluations.
    """
    evaluations = 0
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
        evaluations += report.n_evaluations
    return evaluations


@dataclass(frozen=True)
class ReachSolve:
    """One solve of ``tests/test_reach.py``: a solver by name, a state and a config."""

    kind: str
    label: str
    state: object
    config: object

    def run(self):
        return test_reach.SOLVERS[self.kind](self.state, self.config)


def reach_solves(run: str) -> list:
    """The reach states under each solver, with the default config or with ``short_config(i)``."""
    return [
        ReachSolve(kind, f"{i}:{run}", state, None if run == "default" else test_reach.short_config(i))
        for i, state in enumerate(test_reach.reach_states())
        for kind in test_reach.SOLVERS
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, build in workloads.IN_PROCESS.items():
        solves, digest = build(args.seed), hashlib.sha256()
        digest_solves(digest, solves)
        print(f"{name} seed={args.seed} solves={len(solves)} sha256={digest.hexdigest()}")
    runs = {run: reach_solves(run) for run in ("default", "short")}
    digest = hashlib.sha256()
    evaluations = {run: digest_solves(digest, solves) for run, solves in runs.items()}
    print(f"reach solves={sum(map(len, runs.values()))} evaluations="
          + ",".join(f"{run}:{count}" for run, count in evaluations.items())
          + f" sha256={digest.hexdigest()}")
    config, digest = OptimizerConfig(seed=args.seed), hashlib.sha256()
    results = [check(config) for check in verify.ALL_CRITERIA]
    for result in results:
        digest.update(f"{result.number}|{result.name}|".encode())
        for label, value, sense, bound in result.margins:
            fields = (label, float(value).hex(), sense, float(bound).hex())
            digest.update(("|".join(fields) + "|").encode())
    print(f"verify seed={args.seed} criteria={len(results)} "
          f"passed={sum(r.passed for r in results)} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
