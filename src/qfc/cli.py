"""Command-line front end.

``qfc <command> [--state file.json] [flags]`` with commands:

* ``qfi``     - QFI, variance, and SLD residual of a state/observable pair
* ``qah``     - correlation via minimized local-driving QFI on party a
* ``qapi``    - correlation via the measurement-induced Fisher gap
* ``discord`` - entropic and geometric discord baselines
* ``sweep``   - scan one state parameter over a grid, emitting CSV rows
* ``verify``  - run the full acceptance suite, one pass/fail line each

States are described by JSON documents (see ``KIND_SCHEMAS``); complex
matrix entries are nested ``[re, im]`` pairs in row-major order, and a
spec's ``dims`` bind every matrix in it (each ``cq`` sigma is ``dims[1]`` x
``dims[1]``). ``--seed``, ``--restarts`` and ``--tol`` accept exactly what
``OptimizerConfig`` accepts. Exit codes: 0 success, 1 physics/verification
failure or non-convergence, 2 usage error (a schema violation, a missing
file, or a state above the dimension guard without ``--allow-large``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

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
from .optimize import OptimizerConfig
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


@dataclass(frozen=True)
class StateSpec:
    """A validated state description (schema-checked, not yet constructed)."""

    kind: str
    data: dict


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


def parse_state_spec(text: str) -> StateSpec:
    """Parse and schema-check a JSON state specification.

    Unknown fields are rejected with the offending path; physical
    constraints (e.g. coefficient sums) are enforced later by the state
    constructors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
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
    if "dims" in schema["required"] or "dims" in doc:
        _require_dims(doc, kind)
    for name in ("coeffs", "probs"):
        if name in doc and not (
            isinstance(doc[name], list) and all(_is_number(x) for x in doc[name])
        ):
            raise SchemaError(f"{kind}.{name} must be a list of numbers")
    if "sigmas" in doc and not isinstance(doc["sigmas"], list):
        raise SchemaError(f"{kind}.sigmas must be a list of matrices")
    return StateSpec(kind, doc)


def build_state(spec: StateSpec, allow_large: bool = False) -> BipartiteState:
    """Construct the bipartite state a spec describes."""
    doc = spec.data
    kind = spec.kind
    dims = _require_dims(doc, kind) if "dims" in doc else (2, 2)
    if dims[0] * dims[1] > DIMENSION_GUARD and not allow_large:
        raise DimensionGuardError(
            f"total dimension {dims[0] * dims[1]} exceeds {DIMENSION_GUARD}; "
            "pass --allow-large to override"
        )
    if kind == "pure_schmidt":
        return pure_from_schmidt(doc["coeffs"], dims)
    if kind == "cq":
        sigmas = [
            _complex_matrix(m, f"cq.sigmas[{i}]") for i, m in enumerate(doc["sigmas"])
        ]
        n = dims[1]
        for i, sigma in enumerate(sigmas):
            if sigma.shape != (n, n):
                raise SchemaError(f"cq.sigmas[{i}] must be {n}x{n} (cq.dims), got {sigma.shape}")
        a_basis = np.eye(dims[0], dtype=complex)[:, : len(doc["probs"])]
        return make_cq(doc["probs"], a_basis, sigmas)
    if kind == "cc":
        return make_cc(doc["probs"], dims)
    if kind == "max_entangled":
        if dims[0] != dims[1]:
            raise SchemaError("max_entangled.dims must be [M, M]")
        return max_entangled(dims[0])
    if kind == "werner":
        if "dims" in doc and tuple(doc["dims"]) != (2, 2):
            raise SchemaError("werner.dims must be [2, 2]")
        w = doc["w"]
        if not _is_number(w):
            raise SchemaError("werner.w must be a number")
        return werner(float(w))
    if kind == "example1":
        kwargs = {"dims": dims}
        for name in ("a", "b"):
            if name in doc:
                vec = doc[name]
                if not isinstance(vec, list) or len(vec) != 2:
                    raise SchemaError(f"example1.{name} must hold two amplitudes")
                kwargs[name] = [
                    _complex_scalar(x, f"example1.{name}[{i}]") for i, x in enumerate(vec)
                ]
        if "probs" in doc:
            kwargs["probs"] = doc["probs"]
        return make_witness_state(**kwargs)
    if kind == "raw_matrix":
        return BipartiteState(_complex_matrix(doc["matrix"], "raw_matrix.matrix"), *dims)
    if kind == "random":
        seed, rank = doc["seed"], doc.get("rank", 0)
        for name, value in (("seed", seed), ("rank", rank)):
            if not _is_int(value) or value < 0:
                raise SchemaError(f"random.{name} must be a nonnegative integer")
        if rank == 0:
            return random_pure(dims, seed)
        return BipartiteState(random_density(dims[0] * dims[1], rank, seed), *dims)
    raise SchemaError(f"unknown kind {kind!r}")  # unreachable after parse


def _read_spec(path: str, allow_large: bool) -> tuple[StateSpec, BipartiteState]:
    with open(path, encoding="utf-8") as fh:
        spec = parse_state_spec(fh.read())
    return spec, build_state(spec, allow_large)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _optimizer_summary(report) -> dict:
    return {
        "restarts": int(report.restart_values.size),
        "best": report.best_value,
        "second_best": report.second_best_value,
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
    if "method" in report:
        print(f"method: {report['method']}")
    for section in ("optimizer", "optimizer_dq", "optimizer_dg"):
        if section in report:
            parts = ", ".join(f"{k}={v}" for k, v in report[section].items())
            print(f"{section}: {parts}")
    print(f"wall_time_s: {report['wall_time_s']:.3f}")


def _base_report(command: str, spec: StateSpec | None, args) -> dict:
    report = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "restarts": args.restarts,
        "tolerance": args.tol,
    }
    if spec is not None:
        report["spec"] = spec.data
    return report


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, tolerance=args.tol, seed=args.seed)


def _cmd_qfi(args) -> int:
    spec, state = _read_spec(args.state, args.allow_large)
    with open(args.observable, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) - {"party", "matrix"}:
        raise SchemaError("observable spec must hold exactly 'party' and 'matrix'")
    party = doc.get("party")
    if party not in ("a", "b", "ab"):
        raise SchemaError("observable.party must be 'a', 'b', or 'ab'")
    h = _complex_matrix(doc["matrix"], "observable.matrix")
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
    report = _base_report("qfi", spec, args)
    report["values"] = {"qfi": f, "variance": v, "sld_residual": residual}
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    return 0


#: The solver of each quantity, by its command or sweep name. Each entry looks
#: its function up in this module when it runs, so a function rebound here
#: (``bench/tracing.py`` rebinds them to time them) is the one that runs.
SOLVERS = {
    "qah": lambda state, cfg: observable_correlation(state, cfg),
    "qapi": lambda state, cfg: measurement_correlation(state, cfg),
    "dq": lambda state, cfg: entropic_discord(state, cfg),
    "dg": lambda state, cfg: geometric_discord(state, cfg),
}

QUANTITIES = tuple(SOLVERS)


def _cmd_quantifier(args, command: str) -> int:
    spec, state = _read_spec(args.state, args.allow_large)
    start = time.perf_counter()
    result = SOLVERS[command](state, _config(args))
    report = _base_report(command, spec, args)
    report["values"] = {command: result.value}
    report["method"] = result.method
    if result.report is not None:
        report["optimizer"] = _optimizer_summary(result.report)
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    return 0 if result.converged else 1


def _cmd_discord(args) -> int:
    spec, state = _read_spec(args.state, args.allow_large)
    start = time.perf_counter()
    dq = entropic_discord(state, _config(args))
    dg = geometric_discord(state, _config(args))
    dq_value = dq.value / LN2 if args.log_base == "2" else dq.value
    report = _base_report("discord", spec, args)
    report["log_base"] = args.log_base
    report["values"] = {"entropic_discord": dq_value, "geometric_discord": dg.value}
    report["geometric_method"] = dg.method
    report["optimizer_dq"] = _optimizer_summary(dq.report)
    if dg.report is not None:
        report["optimizer_dg"] = _optimizer_summary(dg.report)
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.format)
    return 0 if dq.converged and dg.converged else 1


#: Parameters sweepable per state kind, with the field they rewrite.
SWEEP_PARAMS = {
    "pure_schmidt": "s",
    "werner": "w",
}


def _sweep_state(spec: StateSpec, value: float, allow_large: bool) -> BipartiteState:
    doc = dict(spec.data)
    if spec.kind == "pure_schmidt":
        doc["coeffs"] = [value, 1.0 - value]
    elif spec.kind == "werner":
        doc["w"] = value
    return build_state(StateSpec(spec.kind, doc), allow_large)


def _cmd_sweep(args) -> int:
    with open(args.state, encoding="utf-8") as fh:
        spec = parse_state_spec(fh.read())
    expected = SWEEP_PARAMS.get(spec.kind)
    if expected is None or args.param != expected:
        raise SchemaError(
            f"kind '{spec.kind}' supports sweeping "
            f"{'nothing' if expected is None else 'parameter ' + repr(expected)}"
        )
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    for q in quantities:
        if q not in QUANTITIES:
            raise SchemaError(f"unknown quantity {q!r}; expected one of {QUANTITIES}")
    if args.step <= 0:
        raise SchemaError("sweep step must be positive")
    grid = []
    v = args.start
    while v <= args.stop + 1e-12:
        grid.append(round(v, 12))
        v += args.step
    cfg = _config(args)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([args.param] + quantities)
    for value in grid:
        state = _sweep_state(spec, value, args.allow_large)
        row = [_fmt(value)]
        for q in quantities:
            x = SOLVERS[q](state, cfg).value
            row.append(_fmt(x / LN2 if q == "dq" and args.log_base == "2" else x))
        writer.writerow(row)
    return 0


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
    defaults = OptimizerConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", help="path to a JSON state specification")
    common.add_argument("--seed", type=_config_value("seed", int), default=defaults.seed,
                        help=f"base seed for optimizer restarts (>= 0, default {defaults.seed})")
    common.add_argument("--restarts", type=_config_value("restarts", int),
                        default=defaults.restarts,
                        help=f"optimizer restarts (>= 1, default {defaults.restarts})")
    common.add_argument("--tol", type=_config_value("tolerance", float),
                        default=defaults.tolerance,
                        help=f"optimizer objective tolerance (finite, > 0, "
                             f"default {defaults.tolerance:g})")
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="display base for entropic quantities")
    common.add_argument("--allow-large", action="store_true",
                        help=f"lift the total-dimension guard ({DIMENSION_GUARD})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfi", parents=[common], help="QFI, variance, SLD residual")
    p.add_argument("--observable", required=True, help="path to an observable JSON spec")
    sub.add_parser("qah", parents=[common], help="correlation via minimized local-driving QFI")
    sub.add_parser("qapi", parents=[common], help="correlation via the measured-Fisher gap")
    sub.add_parser("discord", parents=[common], help="entropic and geometric discord")
    p = sub.add_parser("sweep", parents=[common], help="grid scan of one state parameter")
    p.add_argument("--param", required=True, help="parameter name (pure_schmidt: s, werner: w)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--quantities", default="qah,qapi",
                   help="comma-separated subset of qah,qapi,dq,dg")
    sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    needs_state = args.command in ("qfi", "qah", "qapi", "discord", "sweep")
    if needs_state and not args.state:
        parser.error(f"command '{args.command}' requires --state")
    try:
        if args.command == "qfi":
            return _cmd_qfi(args)
        if args.command in ("qah", "qapi"):
            return _cmd_quantifier(args, args.command)
        if args.command == "discord":
            return _cmd_discord(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except (SchemaError, FileNotFoundError, DimensionGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
