"""What the benchmark in ``bench/`` reads from the library.

The benchmark times solves through public entry points, reads their
optimizer reports and the CLI's JSON output, and traces named functions by
rebinding module attributes. A refactor that renames or reshapes any of
these leaves the benchmark without metrics, so they are pinned here. The
benchmark files are only read, never imported or edited.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfc
from qfc import OptimizerConfig, OptimizerReport, random_density
from qfc.states import BipartiteState

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

CFG = OptimizerConfig(restarts=2, seed=0)

SOLVERS = [
    qfc.observable_correlation,
    qfc.measurement_correlation,
    qfc.entropic_discord,
    qfc.geometric_discord,
]


def traced_names():
    """``(module, attribute)`` pairs from ``SOLVES`` and ``ENTRY_POINTS`` of the tracer."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SOLVES", "ENTRY_POINTS"):
                tables[name] = ast.literal_eval(node.value)
    pairs = list(tables["SOLVES"])
    pairs += [(mod, attr) for mod, attrs in tables["ENTRY_POINTS"].items() for attr in attrs]
    return pairs + [("optimize", "optimize_basis")]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_entry_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"qfc.{module}"), attr, None))


def test_optimize_basis_takes_config_by_keyword_only():
    # The tracer reads a solve's tolerance from ``kwargs["config"]``, or else
    # from ``args[3]``; a config passed by position would be missed.
    params = inspect.signature(qfc.optimize.optimize_basis).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("objective", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("start", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("config", inspect.Parameter.KEYWORD_ONLY, None),
    ]


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
def test_solver_reports_integer_counts(solver):
    # a qutrit party a, where every solver searches
    state = BipartiteState(random_density(6, 6, 5), 3, 2)
    report = solver(state, CFG).report
    assert isinstance(report, OptimizerReport)
    assert type(report.n_evaluations) is int and report.n_evaluations > 0
    assert type(report.n_iterations) is int


def run_cli_json(tmp_path, command, dims):
    """The JSON document of ``qfc <command>`` on a full-rank random state."""
    spec = tmp_path / "state.json"
    rank = dims[0] * dims[1]
    spec.write_text(json.dumps({"kind": "random", "dims": list(dims), "seed": 3, "rank": rank}))
    src = str(Path(qfc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qfc.cli", command, "--state", str(spec),
         "--restarts", "2", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "command, sections",
    [
        ("qah", ["optimizer"]),
        ("qapi", ["optimizer"]),
        ("discord", ["optimizer_dq", "optimizer_dg"]),
    ],
)
def test_cli_json_report(tmp_path, command, sections):
    # a qutrit party a, where every solver searches
    doc = run_cli_json(tmp_path, command, (3, 2))
    assert doc["values"] and all(isinstance(v, float) for v in doc["values"].values())
    assert isinstance(doc["wall_time_s"], float)
    assert doc.get("method", "optimized") == "optimized"
    for section in sections:
        assert type(doc[section]["evaluations"]) is int
        assert type(doc[section]["iterations"]) is int


def test_closed_form_result_has_no_report(tmp_path):
    # a qubit party a: qah and geometric discord take their closed forms, so
    # the worker counts no evaluations for them
    state = BipartiteState(random_density(4, 4, 5), 2, 2)
    for solver in (qfc.observable_correlation, qfc.geometric_discord):
        result = solver(state, CFG)
        assert result.method == "closed-form" and result.report is None
    doc = run_cli_json(tmp_path, "qah", (2, 2))
    assert doc["method"] == "closed-form" and "optimizer" not in doc
    doc = run_cli_json(tmp_path, "discord", (2, 2))
    assert doc["geometric_method"] == "closed-form" and "optimizer_dg" not in doc
    assert type(doc["optimizer_dq"]["evaluations"]) is int
