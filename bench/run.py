"""Layered benchmark for qfc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``--workload all``) in fresh worker processes and
prints every metric by name with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``. The line before it, starting with
``report``, holds the full result: per-solve values and evaluation counts,
the environment (Python, numpy, BLAS and its thread setting, cores), the
commit and the seed. The exit code is 0 only when every solve met its
reference. A worker that outlives its time limit is stopped and its workload
reported as one attempted, failed solve without metrics.

The workloads are a closed loop: one client, one process, one solve at a
time, with BLAS limited to one thread. The program under test is the ``qfc``
package in ``src/`` of the same checkout; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
#: Fresh processes that only set up, for the median ``setup_s``.
SETUP_RUNS = 5
#: BLAS and OpenMP thread variables set for every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: A worker's time limit is ``WORKER_FIXED_S + WORKER_PER_BUDGET_S * budget``, the
#: budget being ``max(S, MIN_BUDGET_S)``, plus ``MIN_BUDGET_S`` for the traced
#: pass and probes of a traced run. At least one pass (up to about 21 s at seed
#: 0) is always timed, so the limit leaves room for passes several times slower;
#: at ``S`` = 20 a run that times out still ends within 180 s.
WORKER_FIXED_S = 45.0
WORKER_PER_BUDGET_S = 3.0
MIN_BUDGET_S = 20.0
SETUP_TIMEOUT_S = 60.0


class WorkerTimeout(Exception):
    pass


def worker_timeout(args):
    budget = max(args.seconds, MIN_BUDGET_S)
    if args.trace:
        budget += MIN_BUDGET_S  # the traced pass and the layer probes
    return WORKER_FIXED_S + WORKER_PER_BUDGET_S * budget


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def source_identity():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qfc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return commit, digest.hexdigest()


def worker(args, env, tmp, timeout, *extra):
    """Run one worker process; its own children share its process group.

    On timeout the whole group is killed, so no CLI child outlives the run.
    """
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp, *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerTimeout(f"worker for {args.workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def run_workload(args, spec):
    env = child_env()
    tmp = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        setups = [worker(args, env, tmp, SETUP_TIMEOUT_S, "--setup-only")
                  for _ in range(SETUP_RUNS)]
        result = worker(args, env, tmp, worker_timeout(args))
    except WorkerTimeout as exc:
        final = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        return {"workload": args.workload, "seed": args.seed, "timeout": str(exc)}, final
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runs = setups + [result]
    result["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    result["setup_runs_raw_s"] = [r["setup_raw_s"] for r in runs]
    commit, digest = source_identity()
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, commit=commit, source_sha256=digest)

    group = "per_layer" if args.trace else "end_to_end"
    values = result["layers"] if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    correct = result["failed"] == 0 and not result["problems"]
    final = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}
    return result, final


def describe(result, final):
    if "timeout" in result:
        return (f"workload {result['workload']}  seed {result['seed']}\n"
                f"  FAILED {result['timeout']}; no metrics")
    n = result["solves_per_pass"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"commit {result['commit'] or 'unknown'}  source {result['source_sha256'][:12]}",
        f"  passes {result['passes']} x {n} solves, {result['evals_per_pass']} optimizer "
        f"evaluations per pass",
        f"  solve_p50_s {result['solve_p50_s']:.6g} s  solve_tail_s {result['solve_tail_s']:.6g} s "
        f"(p{result['tail_percentile']:.1f} of {n} solves; medians over passes, not gated)",
        f"  fail_frac {result['failed'] / result['attempted']:.4g} "
        f"({result['failed']} of {result['attempted']} solves failed)",
    ]
    for name, metric in final["metrics"].items():
        lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    for problem in result["problems"]:
        lines.append(f"  PROBLEM {problem}")
    if result.get("missing_entry_points"):
        lines.append("  MISSING entry points, their per-layer metrics read 0 (not a gain): "
                     + ", ".join(result["missing_entry_points"]))
    return "\n".join(lines)


def main(argv=None):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qfc", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print(f"error: no qfc source tree under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description="Layered benchmark for qfc.")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads if args.workload == "all" else [args.workload]
    finals = {}
    for name in names:
        result, final = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        print(describe(result, final))
        print("report " + json.dumps(result), flush=True)
        finals[name] = final
    print(json.dumps({"workloads": finals} if args.workload == "all" else finals[args.workload]))
    return 0 if all(f["correct"] for f in finals.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
