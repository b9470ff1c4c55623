"""One workload in a fresh process; ``run.py`` starts it and reads its last line.

``python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
--tmp DIR [--setup-only]`` times the import of ``qfc`` plus the building of the
workload's inputs, then repeats the workload's fixed solve list (one *pass*)
until about ``S`` seconds have passed, checking every solve against its
reference. With ``--trace 1`` it spends half of ``S`` on untraced passes, then
traces exactly one pass, so the per-layer counts are those of one pass;
both must give bit-identical values and counts. The layer probe follows. It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports qfc; timed as set-up)

import numpy as np  # noqa: E402
import qfc  # noqa: E402
import tracing  # noqa: E402

CLI_CHILD = os.path.join(BENCH, "cli_child.py")
TRACE_PREFIX = "BENCH_TRACE "
#: Extra share of ``--seconds`` a run may use to finish its last pass.
PASS_SLACK = 1.1
#: Fixed probe dims for the primitives (ROADMAP layer 1).
PROBE_DIMS = (2, 3, 4)
PROBE_REPEATS = 5
PROBE_BATCH_S = 0.01
CLI_PROBES = 3
#: One call of the host-speed kernel takes this long at the reference speed
#: (its typical time on the 2-vCPU x86_64 host the benchmark was written on).
SPEED_NOMINAL_S = 2e-3
SPEED_ITERATIONS = 30
SPEED_SETUP_CALLS = 20
#: The ``cli-cold`` speed reference: a cold process that imports numpy but not
#: qfc, run before every CLI invocation, and its typical time on that host.
COLD_REFERENCE = (sys.executable, "-c", "import numpy")
COLD_NOMINAL_S = 0.2


# -- host speed --------------------------------------------------------------
class SpeedProbe:
    """A fixed numpy kernel, independent of qfc, timed between solves.

    The host's speed wanders by tens of percent over minutes, for every kind
    of work alike; identical passes took from 3.0 s to 6.9 s within five
    minutes. A pass's time times ``SPEED_NOMINAL_S`` over the kernel's mean
    time during that pass is its time at the reference speed; over those
    passes its interquartile range was 0.10 of the median against 0.27 raw.
    """

    def __init__(self):
        rng = np.random.default_rng(20171107)
        self.mats = []
        for d in (4, 6, 9):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self.mats.append((g + g.conj().T) / 2)
        self.samples = []

    def tick(self) -> float:
        """Run the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        for k in range(SPEED_ITERATIONS):
            h = self.mats[k % len(self.mats)]
            w, v = np.linalg.eigh(h)
            e = np.einsum("ki,kl,lj->ij", v.conj(), h, v)
            float(np.sum(w[:, None] * (e.real**2 + e.imag**2)))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Factor from seconds measured since the probe started to reference seconds."""
        return SPEED_NOMINAL_S / statistics.mean(self.samples)


# -- passes ------------------------------------------------------------------
def solve_record(kind, label, seconds, value, evals, iters, ok, error=None):
    return {"kind": kind, "label": label, "seconds": seconds, "value": value,
            "evals": evals, "iters": iters, "ok": ok, "error": error}


def in_process_pass(solves, speed):
    records = []
    start = time.perf_counter()
    probe_s = 0.0
    for solve in solves:
        if records:
            probe_s += speed.tick()
        t0 = time.perf_counter()
        try:
            result = solve.run()
        except Exception as exc:  # a solve that raises counts as failed
            records.append(solve_record(solve.kind, solve.label, time.perf_counter() - t0,
                                        None, 0, 0, False, repr(exc)))
            continue
        seconds = time.perf_counter() - t0
        value = float(result.value)
        report = result.report
        records.append(solve_record(
            solve.kind, solve.label, seconds, value,
            int(report.n_evaluations) if report is not None else 0,
            int(report.n_iterations) if report is not None else 0,
            math.isfinite(value) and bool(solve.check(value))))
    probe_s += speed.tick()
    return time.perf_counter() - start - probe_s, records, speed.scale()


def cli_value(command, doc):
    values = doc["values"]
    key = {"discord": "entropic_discord"}.get(command, command)
    evals = iters = 0
    for section in ("optimizer", "optimizer_dq", "optimizer_dg"):
        if section in doc:
            evals += int(doc[section]["evaluations"])
            iters += int(doc[section]["iterations"])
    return float(values[key]), all(math.isfinite(v) for v in values.values()), evals, iters


def cli_pass(invocations, traced, snapshots):
    """One pass of CLI subprocesses, rescaled by ``COLD_REFERENCE`` processes.

    The work runs in cold child processes, which the speed kernel in this
    process does not track (rescaled by it, the ten-seed spread of the pass
    time grew from 0.08 to 0.13). A cold numpy import does the same kind of
    work as most of an invocation: over 49 blocks of 8 invocations, rescaling
    by it cut the interquartile range of the block time from 0.088 to 0.057
    of the median and its full range from 0.40 to 0.14.
    """
    records = []
    cold = []
    start = time.perf_counter()
    for command, label, tail in invocations:
        t0 = time.perf_counter()
        subprocess.run(COLD_REFERENCE, capture_output=True, check=True, timeout=60)
        cold.append(time.perf_counter() - t0)
        head = [sys.executable, CLI_CHILD] if traced else [sys.executable, "-m", "qfc.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(head + [command] + tail, capture_output=True, text=True,
                              timeout=120)
        seconds = time.perf_counter() - t0
        if traced:
            lines = [l for l in proc.stderr.splitlines() if l.startswith(TRACE_PREFIX)]
            if lines:
                snapshots.append(json.loads(lines[-1][len(TRACE_PREFIX):]))
        try:
            doc = json.loads(proc.stdout)
            value, finite, evals, iters = cli_value(command, doc)
        except (ValueError, KeyError, TypeError) as exc:
            records.append(solve_record(command, label, seconds, None, 0, 0, False,
                                        f"exit {proc.returncode}: {exc!r}"))
            continue
        rec = solve_record(command, label, seconds, value, evals, iters,
                           proc.returncode == 0 and finite,
                           None if proc.returncode == 0 else f"exit {proc.returncode}")
        rec["overhead_s"] = seconds - float(doc["wall_time_s"])
        records.append(rec)
    wall = time.perf_counter() - start - sum(cold)
    return wall, records, COLD_NOMINAL_S / statistics.mean(cold)


def measure(run_pass, seconds):
    """Repeat ``run_pass`` while the next pass is predicted to end within the budget.

    ``run_pass(speed)`` returns its seconds (speed-probe time excluded), its
    solve records and the speed factor measured during it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(SpeedProbe()))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > PASS_SLACK * seconds:
            return passes


# -- statistics ----------------------------------------------------------------
def tail(seconds_list):
    """Highest percentile with at least 10 solves beyond it: ``(percentile, value)``."""
    n = len(seconds_list)
    if n < 11:
        return 0.0, max(seconds_list)
    ordered = sorted(seconds_list)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def pass_summary(passes):
    """Medians over passes, in seconds at the reference speed, and the raw pass times."""
    p50 = [statistics.median(r["seconds"] for r in recs) * k for _, recs, k in passes]
    tails = [tail([r["seconds"] for r in recs]) for _, recs, _ in passes]
    n = len(passes[0][1])
    return {
        "wall_s": statistics.median(wall * k for wall, _, k in passes),
        "solve_p50_s": statistics.median(p50),
        "solve_tail_s": statistics.median(t * k for (_, t), (_, _, k) in zip(tails, passes)),
        "tail_percentile": tails[0][0],
        "solves_per_pass": n,
        "passes": len(passes),
        "pass_walls_raw_s": [wall for wall, _, _ in passes],
        "speed_scales": [k for _, _, k in passes],
        "evals_per_pass": sum(r["evals"] for r in passes[0][1]),
    }


def fingerprint(records):
    return [(r["kind"], r["label"], r["value"], r["evals"], r["iters"]) for r in records]


def environment():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb(is_cli):
    """Peak resident MB of this process or, for ``cli-cold``, of its largest CLI child.

    The ``COLD_REFERENCE`` children only import numpy, which every CLI child
    does too, so they never hold the maximum.
    """
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- probe ---------------------------------------------------------------------
def per_call_us(fn):
    """Median microseconds per call over ``PROBE_REPEATS`` timed batches."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= PROBE_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


class _Captured(Exception):
    pass


def captured_objective(kind, state):
    """The objective a solve hands to ``optimize_basis``, caught before optimizing.

    ``None`` when the solve returns without calling ``optimize_basis``.
    """
    holder = []

    def grab(objective, *args, **kwargs):
        holder.append(objective)
        raise _Captured

    saved = tracing.rebind(qfc.optimize.optimize_basis, grab)
    try:
        module, name = workloads.SOLVERS[kind]
        getattr(getattr(qfc, module), name)(state)
    except _Captured:
        pass
    finally:
        tracing.restore(saved)
    return holder[0] if holder else None


def primitives_probe():
    out = {}
    for d in PROBE_DIMS:
        rho = qfc.states.random_density(d, d, d)
        h = qfc.states.random_hermitian(d, d + 1)
        out[f"fisher.qfi_us.{d}"] = per_call_us(lambda: qfc.fisher.qfi(rho, h))
        out[f"fisher.sld_us.{d}"] = per_call_us(lambda: qfc.fisher.sld(rho, h))
        params = np.random.default_rng(d).normal(0.0, np.pi / 2, d * d)
        out[f"optimize.chart_us.{d}"] = per_call_us(
            lambda: qfc.optimize.unitary_from_params(params, d))
        state = qfc.states.BipartiteState(qfc.states.random_density(d * d, d * d, d + 2), d, d)
        u = qfc.states.haar_unitary(d, d + 3)
        for kind in ("qah", "qapi"):
            objective = captured_objective(kind, state)
            out[f"correlations.{kind}_obj_us.{d}x{d}"] = (
                per_call_us(lambda: objective(u)) if objective is not None else 0.0)
    return out


def baseline_probe():
    """ROADMAP item-1 baseline: criterion-3 state i=3 at seed 0, verify's optimizer."""
    state = workloads.classical_state(0, 3)
    config = qfc.optimize.OptimizerConfig(restarts=16, tolerance=1e-8, seed=0)
    out = {}
    for kind in ("qapi", "qah"):
        module, name = workloads.SOLVERS[kind]
        t0 = time.perf_counter()
        result = getattr(getattr(qfc, module), name)(state, config)
        out[f"optimize.baseline_{kind}_s"] = time.perf_counter() - t0
        out[f"optimize.baseline_{kind}_evals"] = int(result.report.n_evaluations)
    return out


def cli_probe(tmp):
    code = "import time; t = time.perf_counter(); import qfc; print(time.perf_counter() - t)"
    imports = []
    for _ in range(CLI_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        imports.append(float(proc.stdout))
    spec = os.path.join(tmp, "probe_state.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"kind": "random", "dims": [2, 2], "seed": 0, "rank": 4}, fh)
    overheads = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qfc.cli", "qah", "--state", spec,
                               "--format", "json"], capture_output=True, text=True,
                              check=True, timeout=60)
        overheads.append(time.perf_counter() - t0 - json.loads(proc.stdout)["wall_time_s"])
    return {"cli.import_s": statistics.median(imports),
            "cli.overhead_s": statistics.median(overheads)}


# -- per-layer metrics ---------------------------------------------------------
def layer_metrics(snap):
    calls, total = snap["calls"], snap["total"]
    span_self, busy = snap["span_self"], snap["busy"]

    def us(name):
        return 1e6 * total[name] / calls[name] if calls.get(name) else 0.0

    restarts = snap["restarts"]
    agree, attempts = snap["agree"]
    return {
        "optimize.evals": sum(r[0] for r in restarts),
        "optimize.iters": sum(r[1] for r in restarts),
        "optimize.restarts_capped": sum(1 for r in restarts if r[3]),
        "optimize.agree_frac": agree / attempts if attempts else 0.0,
        "optimize.self_s": span_self.get("optimize.nelder_mead", 0.0)
        + span_self.get("optimize.optimize_basis", 0.0),
        "optimize.chart_us": us("optimize.chart"),
        "correlations.qapi_obj_us": us("correlations.qapi_obj"),
        "correlations.qapi_obj_s": total.get("correlations.qapi_obj", 0.0),
        "correlations.qah_obj_us": us("correlations.qah_obj"),
        "correlations.qah_obj_s": total.get("correlations.qah_obj", 0.0),
        "correlations.local_qfi_b_s": total.get("correlations.total_local_qfi_b", 0.0),
        "correlations.self_s": sum(v for k, v in span_self.items()
                                   if k.startswith("correlations.")),
        "fisher.weight_calls": calls.get("fisher.qfi_weight_matrix", 0),
        "fisher.weight_s": total.get("fisher.qfi_weight_matrix", 0.0),
        "fisher.qfi_calls": calls.get("fisher.qfi", 0),
        "fisher.qfi_s": total.get("fisher.qfi", 0.0),
        "linalg.eigh_calls": calls.get("linalg.eigh", 0),
        "linalg.eigh_s": total.get("linalg.eigh", 0.0),
        "discord.dq_obj_us": us("discord.dq_obj"),
        "discord.dg_obj_us": us("discord.dg_obj"),
        "discord.entropy_calls": calls.get("discord.von_neumann_entropy", 0),
        "discord.entropy_s": total.get("discord.von_neumann_entropy", 0.0),
        "states.build_s": busy.get("states", 0.0),
    }


# -- main ----------------------------------------------------------------------
def build_inputs(name, seed, tmp):
    if name == "cli-cold":
        invocations = []
        for i, (command, spec, observable) in enumerate(workloads.cli_specs(seed)):
            state_path = os.path.join(tmp, f"state_{i}.json")
            with open(state_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            tail_args = ["--state", state_path, "--format", "json",
                         "--restarts", str(workloads.RESTARTS),
                         "--seed", str(workloads.RESTARTS * spec["seed"])]
            if observable is not None:
                obs_path = os.path.join(tmp, f"observable_{i}.json")
                with open(obs_path, "w", encoding="utf-8") as fh:
                    json.dump(observable, fh)
                tail_args += ["--observable", obs_path]
            label = f"{i}:{spec['dims'][0]}x{spec['dims'][1]}"
            invocations.append((command, label, tail_args))
        return invocations
    return workloads.IN_PROCESS[name](seed)


def run(args, tmp):
    inputs = build_inputs(args.workload, args.seed, tmp)
    setup_s = time.perf_counter() - T_START
    SpeedProbe().tick()  # numpy's first linear-algebra call pays one-time costs
    speed = SpeedProbe()
    for _ in range(SPEED_SETUP_CALLS):
        speed.tick()
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * speed.scale()}
    if args.setup_only:
        return out
    is_cli = args.workload == "cli-cold"
    snapshots = []

    def untraced(speed):
        return cli_pass(inputs, False, snapshots) if is_cli else in_process_pass(inputs, speed)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(untraced, budget)
    problems = []
    if is_cli:
        self_check = None
    else:
        self_check = workloads.verify_self_check(args.workload, args.seed, inputs)
        if self_check:
            problems.append(f"{self_check} states differ from qfc.verify's builders")
    first = fingerprint(passes[0][1])
    if any(fingerprint(recs) != first for _, recs, _ in passes[1:]):
        problems.append("repeated passes gave different values or counts")
    records = [r for _, recs, _ in passes for r in recs]
    out.update(pass_summary(passes))
    if args.trace:
        if is_cli:
            traced_passes = [cli_pass(inputs, True, snapshots)]
        else:
            import qfc.cli  # noqa: F401  (loaded before the snapshot; the tracer rebinds it)

            before = tracing.bindings()
            with tracing.Tracer() as tracer:
                t0 = time.perf_counter()
                traced_inputs = build_inputs(args.workload, args.seed, tmp)
                out["traced_build_s"] = time.perf_counter() - t0
                traced_passes = [in_process_pass(traced_inputs, SpeedProbe())]
            snapshots.append(tracer.snapshot())
            after = tracing.bindings()
            if any(after.get(key) != value for key, value in before.items()):
                problems.append("tracing left qfc attributes rebound")
            if any(not np.array_equal(a.state.rho, b.state.rho)
                   for a, b in zip(inputs, traced_inputs)):
                problems.append("traced input build differs from the untraced one")
        if fingerprint(traced_passes[0][1]) != first:
            problems.append("traced run differs from the untraced run")
        records += [r for _, recs, _ in traced_passes for r in recs]
        traced_summary = pass_summary(traced_passes)
        snap = tracing.merge(snapshots)
        layers = layer_metrics(snap)
        layers["trace.overhead_s"] = traced_summary["wall_s"] - out["wall_s"]
        layers.update(primitives_probe())
        layers.update(baseline_probe())
        layers.update(cli_probe(tmp))
        out["traced"] = traced_summary
        out["layers"] = layers
        out["missing_entry_points"] = snap["missing"]
        out["restarts_traced"] = len(snap["restarts"])
    failed = [r for r in records if not r["ok"]]
    out.update({
        "attempted": len(records),
        "failed": len(failed),
        "failures": [{k: r[k] for k in ("kind", "label", "value", "error")} for r in failed[:10]],
        "problems": problems,
        "self_check_mismatches": self_check,
        "peak_rss_mb": peak_rss_mb(is_cli),
        "env": environment(),
        "solves": [{k: r[k] for k in ("kind", "label", "seconds", "value", "evals")}
                   for r in passes[0][1]],
    })
    overheads = [r["overhead_s"] for r in passes[0][1] if "overhead_s" in r]
    if overheads:
        out["cli_overhead_p50_s"] = statistics.median(overheads)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.IN_PROCESS) + ["cli-cold"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch directory for input files")
    args = parser.parse_args(argv)
    print(json.dumps(run(args, args.tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
