"""Command-line front end.

``qfc <command> [flags]`` with commands:

* ``qfi``     - QFI, variance, and SLD residual of a state/observable pair
* ``qah``     - correlation via minimized local-driving QFI on party a
* ``qapi``    - correlation via the measurement-induced Fisher gap
* ``discord`` - entropic and geometric discord baselines
* ``sweep``   - scan one state parameter over a grid, emitting CSV rows
* ``verify``  - run the full acceptance suite, one pass/fail line each

States are described by JSON documents (see ``KIND_SCHEMAS``); complex
matrix entries are nested ``[re, im]`` pairs in row-major order, and a
spec's ``dims`` bind every matrix in it (each ``cq`` sigma is ``dims[1]`` x
``dims[1]``, a ``raw_matrix`` is ``dims[0] * dims[1]`` square). A spec is the
JSON object itself, once ``parse_state_spec`` has checked it against the
schema; ``build_state`` constructs its state, and the reports echo it. Each
command takes only the flags it reads; ``--seed``, ``--restarts`` and
``--tol`` accept exactly what ``OptimizerConfig`` accepts.
Exit codes: 0 success, 1 physics/verification failure or non-convergence, 2
usage error (a flag the command does not take, a schema violation, a missing
file, or a state above the dimension guard without ``--allow-large``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .correlations import (
    lift_a,
    lift_b,
    measurement_correlation,
    observable_correlation,
)
from .discord import entropic_discord, geometric_discord
from .errors import DimensionGuardError
from .fisher import qfi, sld, variance
from .optimize import POLISH_TOLERANCE, OptimizerConfig
from .states import (
    BipartiteState,
    make_cc,
    make_cq,
    make_witness_state,
    max_entangled,
    pure_from_schmidt,
    random_density,
    random_pure,
    werner,
)

#: Largest total dimension accepted without --allow-large.
DIMENSION_GUARD = 36

LN2 = float(np.log(2.0))


class SchemaError(ValueError):
    """The JSON document violates the state-spec schema."""


#: Allowed fields per state kind, beyond the mandatory "kind".
KIND_SCHEMAS = {
    "pure_schmidt": {"required": {"coeffs", "dims"}, "optional": set()},
    "cq": {"required": {"probs", "sigmas", "dims"}, "optional": set()},
    "cc": {"required": {"probs", "dims"}, "optional": set()},
    "max_entangled": {"required": {"dims"}, "optional": set()},
    "werner": {"required": {"w"}, "optional": {"dims"}},
    "example1": {"required": {"dims"}, "optional": {"a", "b", "probs"}},
    "raw_matrix": {"required": {"matrix", "dims"}, "optional": set()},
    "random": {"required": {"dims", "seed"}, "optional": {"rank"}},
}


def _is_int(x) -> bool:
    # Python reads the JSON literals true and false as the ints 1 and 0
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _require_dims(doc: dict, path: str) -> tuple[int, int]:
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_int(d) and d >= 1 for d in dims)
    ):
        raise SchemaError(f"{path}.dims must be a list of two positive integers")
    return (dims[0], dims[1])


def _complex_scalar(x, path: str) -> complex:
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x):
        return complex(x[0], x[1])
    raise SchemaError(f"{path} must be a number or an [re, im] pair")


def _complex_matrix(entries, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries or not all(isinstance(r, list) for r in entries):
        raise SchemaError(f"{path} must be a nested list of [re, im] pairs")
    width = len(entries[0])
    rows = []
    for i, row in enumerate(entries):
        if len(row) != width:
            raise SchemaError(f"{path}[{i}] has length {len(row)}, expected {width}")
        rows.append([_complex_scalar(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=complex)


def _require_size(matrix: np.ndarray, n: int, path: str, source: str) -> np.ndarray:
    """Return ``matrix``, raising unless it is ``n x n``, the size ``source`` sets."""
    if matrix.shape != (n, n):
        raise SchemaError(f"{path} must be {n}x{n} ({source}), got {matrix.shape}")
    return matrix


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def parse_state_spec(text: str) -> dict:
    """Parse and schema-check a JSON state specification; the checked JSON object.

    The object returned is the spec: its ``kind`` is known, its fields are
    the ones ``KIND_SCHEMAS`` allows for that kind, and its ``dims``, when
    present, are two positive integers. Unknown fields are rejected with the
    offending path; physical constraints (e.g. coefficient sums) are
    enforced later by the state constructors.
    """
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("state spec must be a JSON object")
    kind = doc.get("kind")
    if kind is None:
        raise SchemaError("missing field 'kind'")
    if kind not in KIND_SCHEMAS:
        known = ", ".join(sorted(KIND_SCHEMAS))
        raise SchemaError(f"unknown kind {kind!r}; expected one of: {known}")
    schema = KIND_SCHEMAS[kind]
    fields = set(doc) - {"kind"}
    for name in sorted(schema["required"] - fields):
        raise SchemaError(f"missing field '{kind}.{name}'")
    for name in sorted(fields - schema["required"] - schema["optional"]):
        raise SchemaError(f"unknown field '{kind}.{name}'")
    if "dims" in doc:
        _require_dims(doc, kind)
    for name in ("coeffs", "probs"):
        if name in doc and not (
            isinstance(doc[name], list) and all(_is_number(x) for x in doc[name])
        ):
            raise SchemaError(f"{kind}.{name} must be a list of numbers")
    if "sigmas" in doc and not isinstance(doc["sigmas"], list):
        raise SchemaError(f"{kind}.sigmas must be a list of matrices")
    return doc


def build_state(spec: dict, allow_large: bool = False) -> BipartiteState:
    """Construct the bipartite state a spec describes.

    ``spec`` is the checked JSON object that ``parse_state_spec`` returns, so
    its ``dims``, when present, are already two positive integers.
    """
    kind = spec["kind"]
    dims = tuple(spec.get("dims", (2, 2)))
    if dims[0] * dims[1] > DIMENSION_GUARD and not allow_large:
        raise DimensionGuardError(
            f"total dimension {dims[0] * dims[1]} exceeds {DIMENSION_GUARD}; "
            "pass --allow-large to override"
        )
    if kind == "pure_schmidt":
        return pure_from_schmidt(spec["coeffs"], dims)
    if kind == "cq":
        sigmas = [
            _complex_matrix(m, f"cq.sigmas[{i}]") for i, m in enumerate(spec["sigmas"])
        ]
        n = dims[1]
        for i, sigma in enumerate(sigmas):
            _require_size(sigma, n, f"cq.sigmas[{i}]", "cq.dims")
        a_basis = np.eye(dims[0], dtype=complex)[:, : len(spec["probs"])]
        return make_cq(spec["probs"], a_basis, sigmas)
    if kind == "cc":
        return make_cc(spec["probs"], dims)
    if kind == "max_entangled":
        if dims[0] != dims[1]:
            raise SchemaError("max_entangled.dims must be [M, M]")
        return max_entangled(dims[0])
    if kind == "werner":
        if dims != (2, 2):
            raise SchemaError("werner.dims must be [2, 2]")
        w = spec["w"]
        if not _is_number(w):
            raise SchemaError("werner.w must be a number")
        return werner(float(w))
    if kind == "example1":
        kwargs = {"dims": dims}
        for name in ("a", "b"):
            if name in spec:
                vec = spec[name]
                if not isinstance(vec, list) or len(vec) != 2:
                    raise SchemaError(f"example1.{name} must hold two amplitudes")
                kwargs[name] = [
                    _complex_scalar(x, f"example1.{name}[{i}]") for i, x in enumerate(vec)
                ]
        if "probs" in spec:
            kwargs["probs"] = spec["probs"]
        return make_witness_state(**kwargs)
    if kind == "raw_matrix":
        matrix = _complex_matrix(spec["matrix"], "raw_matrix.matrix")
        _require_size(matrix, dims[0] * dims[1], "raw_matrix.matrix", "raw_matrix.dims")
        return BipartiteState(matrix, *dims)
    # "random", the last kind parse_state_spec admits
    seed, rank = spec["seed"], spec.get("rank", 0)
    for name, value in (("seed", seed), ("rank", rank)):
        if not _is_int(value) or value < 0:
            raise SchemaError(f"random.{name} must be a nonnegative integer")
    if rank == 0:
        return random_pure(dims, seed)
    return BipartiteState(random_density(dims[0] * dims[1], rank, seed), *dims)


def _read_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_state_spec(fh.read())


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _optimizer_summary(report, unit: float) -> dict:
    # values in the display unit of the quantity's value (see _solve)
    return {
        "restarts": int(report.restart_values.size),
        "best": report.best_value / unit,
        # a screened value, precise only to the screen; None (JSON null) for
        # a single restart: strict JSON has no NaN
        "second_best": None if report.restart_values.size < 2 else report.second_best_value / unit,
        "converged": bool(report.converged),
        "evaluations": int(report.n_evaluations),
        "iterations": int(report.n_iterations),
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    if fmt == "csv":
        values = report["values"]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(values.keys())
        writer.writerow(_fmt(v) if isinstance(v, float) else v for v in values.values())
        return
    for key, value in report["values"].items():
        print(f"{key}: {_fmt(value) if isinstance(value, float) else value}")
    # every key after the values (methods, then optimizer sections), wall_time_s last
    keys = list(report)
    for key in keys[keys.index("values") + 1 : -1]:
        value = report[key]
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in value.items())
        print(f"{key}: {value}")
    print(f"wall_time_s: {report['wall_time_s']:.3f}")


def _base_report(spec: dict, args) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "restarts": args.restarts,
        "tolerance": args.tol,
        "spec": spec,
    }


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, tolerance=args.tol, seed=args.seed)


def _cmd_qfi(args) -> int:
    spec = _read_spec(args.state)
    state = build_state(spec, args.allow_large)
    with open(args.observable, encoding="utf-8") as fh:
        doc = _parse_json(fh.read())
    if not isinstance(doc, dict) or set(doc) != {"party", "matrix"}:
        raise SchemaError("observable spec must hold exactly 'party' and 'matrix'")
    party = doc["party"]
    if party not in ("a", "b", "ab"):
        raise SchemaError("observable.party must be 'a', 'b', or 'ab'")
    n = {"a": state.dim_a, "b": state.dim_b, "ab": state.dim}[party]
    h = _require_size(_complex_matrix(doc["matrix"], "observable.matrix"), n,
                      "observable.matrix", f"party {party}")
    if party == "a":
        h = lift_a(h, state.dim_b)
    elif party == "b":
        h = lift_b(h, state.dim_a)
    start = time.perf_counter()
    f = qfi(state.rho, h)
    v = variance(state.rho, h)
    l = sld(state.rho, h)
    commutator = 1j * (state.rho @ h - h @ state.rho)
    residual = float(np.linalg.norm(commutator - (l @ state.rho + state.rho @ l) / 2))
    report = _base_report(spec, args)
    report["values"] = {"qfi": f, "variance": v, "sld_residual": residual}
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    return 0


class _Quantity(NamedTuple):
    solve: Callable
    value_key: str
    method_key: str
    section_key: str  # the optimizer section, written when the solve searched


#: Each quantity by its sweep name. Each solver looks its function up in this
#: module when it runs, so a function rebound here (``bench/tracing.py``
#: rebinds them to time them) is the one that runs.
SOLVERS = {
    "qah": _Quantity(lambda state, cfg: observable_correlation(state, cfg),
                     "qah", "method", "optimizer"),
    "qapi": _Quantity(lambda state, cfg: measurement_correlation(state, cfg),
                      "qapi", "method", "optimizer"),
    "dq": _Quantity(lambda state, cfg: entropic_discord(state, cfg),
                    "entropic_discord", "entropic_method", "optimizer_dq"),
    "dg": _Quantity(lambda state, cfg: geometric_discord(state, cfg),
                    "geometric_discord", "geometric_method", "optimizer_dg"),
}


def _solve(name: str, state: BipartiteState, args):
    """Solve one quantity: its result, and the unit its values are displayed in.

    The unit divides every value of the quantity the command prints: ln 2 for
    entropic discord in bits (``--log-base 2``), else 1.
    """
    unit = LN2 if name == "dq" and args.log_base == "2" else 1.0
    return SOLVERS[name].solve(state, _config(args)), unit


def _cmd_solve(args) -> int:
    spec = _read_spec(args.state)
    state = build_state(spec, args.allow_large)
    start = time.perf_counter()
    solved = [(SOLVERS[name], *_solve(name, state, args)) for name in args.solves]
    report = _base_report(spec, args)
    if "log_base" in args:
        report["log_base"] = args.log_base
    report["values"] = {q.value_key: result.value / unit for q, result, unit in solved}
    for q, result, _ in solved:
        report[q.method_key] = result.method
    for q, result, unit in solved:
        if result.method == "optimized":  # a certified zero's report is not a search
            report[q.section_key] = _optimizer_summary(result.report, unit)
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    return 0 if all(result.converged for _, result, _ in solved) else 1


#: Smallest sweep step; sweep points are rounded to 12 decimals.
SWEEP_MIN_STEP = 1e-12

#: Per sweepable state kind: its parameter, and the spec fields a value of it sets.
SWEEP_PARAMS = {
    "pure_schmidt": ("s", lambda s: {"coeffs": [s, 1.0 - s]}),
    "werner": ("w", lambda w: {"w": w}),
}


def _cmd_sweep(args) -> int:
    spec = _read_spec(args.state)
    expected, fields = SWEEP_PARAMS.get(spec["kind"], (None, None))
    if expected is None or args.param != expected:
        raise SchemaError(
            f"kind '{spec['kind']}' supports sweeping "
            f"{'nothing' if expected is None else 'parameter ' + repr(expected)}"
        )
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    if not quantities:
        raise SchemaError(f"no quantity to sweep; expected one or more of {tuple(SOLVERS)}")
    for q in quantities:
        if q not in SOLVERS:
            raise SchemaError(f"unknown quantity {q!r}; expected one of {tuple(SOLVERS)}")
    if not (np.isfinite(args.start) and np.isfinite(args.stop)):
        raise SchemaError("sweep start and stop must be finite")
    if not args.start <= args.stop + SWEEP_MIN_STEP:
        # the grid's first point, start, would already be past stop
        raise SchemaError(f"sweep grid is empty: start {args.start:g} is above stop {args.stop:g}")
    if not SWEEP_MIN_STEP <= args.step < np.inf:
        # points are rounded to 12 decimals, so a smaller step repeats them
        raise SchemaError(f"sweep step must be finite and at least {SWEEP_MIN_STEP:g}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([args.param] + quantities)
    converged = True
    i = 0
    while (point := args.start + i * args.step) <= args.stop + SWEEP_MIN_STEP:
        value = round(point, 12)
        state = build_state({**spec, **fields(value)}, args.allow_large)
        row = [_fmt(value)]
        for q in quantities:
            result, unit = _solve(q, state, args)
            converged = converged and result.converged
            row.append(_fmt(result.value / unit))
        writer.writerow(row)
        i += 1
    return 0 if converged else 1


def _cmd_verify(args) -> int:
    from .verify import run_verification

    results = run_verification(_config(args))
    return 0 if all(r.passed for r in results) else 1


def _config_value(name: str, parse):
    """Argparse type for the :class:`OptimizerConfig` field ``name``.

    Parses the text with ``parse`` (``int`` or ``float``) and lets
    ``OptimizerConfig`` judge the value, so a flag accepts exactly the values
    the config does.
    """

    def convert(text: str):
        try:
            value = parse(text)
            OptimizerConfig(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfc",
        description="Quantum Fisher information and QFI-based correlation quantifiers.",
    )
    parser.add_argument("--version", action="version", version=f"qfc {__version__}")
    # Flag groups; each command takes only the groups it reads.
    defaults = OptimizerConfig()
    optimizer = argparse.ArgumentParser(add_help=False)
    optimizer.add_argument("--seed", type=_config_value("seed", int), default=defaults.seed,
                           help=f"base seed for optimizer restarts (>= 0, default {defaults.seed})")
    optimizer.add_argument("--restarts", type=_config_value("restarts", int),
                           default=defaults.restarts,
                           help=f"optimizer restarts (>= 1, default {defaults.restarts})")
    optimizer.add_argument("--tol", type=_config_value("tolerance", float),
                           default=defaults.tolerance,
                           help=f"certificate threshold; the search polishes its best restart "
                                f"to min(tol, {POLISH_TOLERANCE:g}) (finite, > 0, "
                                f"default {defaults.tolerance:g})")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True, help="path to a JSON state specification")
    state.add_argument("--allow-large", action="store_true",
                       help=f"lift the total-dimension guard ({DIMENSION_GUARD})")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json", "csv"), default="table")
    log_base = argparse.ArgumentParser(add_help=False)
    log_base.add_argument("--log-base", choices=("e", "2"), default="e",
                          help="display base for entropic quantities")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command names its handler; a solving command, the quantities it reports
    report = [state, optimizer, fmt]
    p = sub.add_parser("qfi", parents=report, help="QFI, variance, SLD residual")
    p.add_argument("--observable", required=True, help="path to an observable JSON spec")
    p.set_defaults(run=_cmd_qfi)
    p = sub.add_parser("qah", parents=report, help="correlation via minimized local-driving QFI")
    p.set_defaults(run=_cmd_solve, solves=("qah",))
    p = sub.add_parser("qapi", parents=report, help="correlation via the measured-Fisher gap")
    p.set_defaults(run=_cmd_solve, solves=("qapi",))
    p = sub.add_parser("discord", parents=report + [log_base],
                       help="entropic and geometric discord")
    p.set_defaults(run=_cmd_solve, solves=("dq", "dg"))
    p = sub.add_parser("sweep", parents=[state, optimizer, log_base],
                       help="grid scan of one state parameter (CSV)")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--param", required=True, help="parameter name (pure_schmidt: s, werner: w)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--quantities", default="qah,qapi",
                   help="comma-separated subset of qah,qapi,dq,dg")
    p = sub.add_parser("verify", parents=[optimizer], help="run the acceptance suite")
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SchemaError, FileNotFoundError, DimensionGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
