"""Print one digest per in-process benchmark workload, one for the reach states and one for verify.

    PYTHONPATH=<tree>/src python tests/solve_digest.py --seed N

For each workload of ``bench/workloads.py`` (``classical-zero``,
``pure-closed-form`` and ``noisy-discord``) it runs every solve once and
prints the solve count and two sha256 digests. ``sha256`` covers each
solve's kind, label, method, ``value.hex()``, ``argopt`` bytes and report
arrays (restart values, evaluations, iterations and flags, and the best
unitary). ``path`` covers only each solve's kind, label, method and its
restarts' evaluations and iterations: no value and no basis. A change that
moves values in their last bits on purpose keeps every ``path`` digest when
each solve took the same path. The ``reach`` line
hashes the same fields for the 20 states of ``tests/test_reach.py`` under
all four solvers, with the default config and with ``short_config(i)``, and
prints the total evaluations of each config; it does not depend on
``--seed``. On every searching solve of the workloads restart 0 is optimal
at its first evaluation, so the reach solves are the ones that run the
screen rounds. The ``verify`` line runs every criterion of
``qfc.verify.ALL_CRITERIA`` at ``OptimizerConfig(seed=N)``, as ``qfc verify
--seed N`` does, and hashes each criterion's number, name and margins
(label, ``value.hex()``, sense, bound), but not its seconds; its
``path`` digest covers each criterion's number, name and pass. The ``qfc``
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


def digest_solves(digest, path, solves) -> int:
    """Add each solve, in order, to ``digest`` (all fields) and to ``path`` (its path only).

    Returns the solves' total evaluations.
    """
    evaluations = 0
    for solve in solves:
        result = solve.run()
        head = f"{solve.kind}|{solve.label}|{result.method}|".encode()
        digest.update(head)
        path.update(head)
        digest.update(float(result.value).hex().encode())
        digest.update(_array_bytes(result.argopt))
        report = result.report
        if report is None:
            digest.update(b"no report")
            path.update(b"no report")
            continue
        for a in (report.restart_values, report.restart_evaluations,
                  report.restart_iterations, report.restart_converged, report.best_unitary):
            digest.update(_array_bytes(a))
        for a in (report.restart_evaluations, report.restart_iterations):
            path.update(_array_bytes(a))
        evaluations += report.n_evaluations
    return evaluations


def _digests() -> tuple:
    return hashlib.sha256(), hashlib.sha256()


def _hashes(digest, path) -> str:
    return f"sha256={digest.hexdigest()} path={path.hexdigest()}"


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
        solves, hashes = build(args.seed), _digests()
        digest_solves(*hashes, solves)
        print(f"{name} seed={args.seed} solves={len(solves)} {_hashes(*hashes)}")
    runs = {run: reach_solves(run) for run in ("default", "short")}
    hashes = _digests()
    evaluations = {run: digest_solves(*hashes, solves) for run, solves in runs.items()}
    print(f"reach solves={sum(map(len, runs.values()))} evaluations="
          + ",".join(f"{run}:{count}" for run, count in evaluations.items())
          + f" {_hashes(*hashes)}")
    config, (digest, path) = OptimizerConfig(seed=args.seed), _digests()
    results = [check(config) for check in verify.ALL_CRITERIA]
    for result in results:
        head = f"{result.number}|{result.name}|".encode()
        digest.update(head)
        path.update(head + f"{result.passed}|".encode())
        for label, value, sense, bound in result.margins:
            fields = (label, float(value).hex(), sense, float(bound).hex())
            digest.update(("|".join(fields) + "|").encode())
    print(f"verify seed={args.seed} criteria={len(results)} "
          f"passed={sum(r.passed for r in results)} {_hashes(digest, path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
