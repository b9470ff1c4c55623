"""Per-layer spans recorded by temporarily rebinding ``qfc`` module attributes.

A :class:`Tracer` replaces a public function object with a timing wrapper in
every loaded ``qfc`` module that holds it (``from .fisher import qfi`` makes a
second binding, so both are rebound) and puts every original back on exit.
Nothing under ``src/`` changes and the wrappers pass arguments and results
through untouched, so traced results are bit-identical to untraced ones.

A span's layer is the part of its name before the first dot. Per span name
the tracer keeps calls, total time and self time (time not covered by child
spans); per layer, busy time (span time entered from another layer or from
the benchmark).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Solve entry points, the span that times each, and the span that times the
#: objective each one hands to ``optimize_basis``.
SOLVES = {
    ("correlations", "observable_correlation"): ("correlations.qah", "correlations.qah_obj"),
    ("correlations", "measurement_correlation"): ("correlations.qapi", "correlations.qapi_obj"),
    ("discord", "entropic_discord"): ("discord.dq", "discord.dq_obj"),
    ("discord", "geometric_discord"): ("discord.dg", "discord.dg_obj"),
}

#: Other public entry points timed as spans, by module and attribute.
ENTRY_POINTS = {
    "states": ("make_cq", "make_cc", "haar_unitary", "random_density", "random_pure",
               "pure_state", "max_entangled", "validate_density"),
    "linalg": ("eigh", "hermitian_basis"),
    "fisher": ("qfi", "qfi_weight_matrix", "sld"),
    "optimize": ("unitary_from_params",),
    "correlations": ("total_mfi", "total_local_qfi_b"),
    "discord": ("von_neumann_entropy",),
    "cli": ("main",),
}

SHORT_NAMES = {"optimize.unitary_from_params": "optimize.chart"}


def _qfc_modules():
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None and (name == "qfc" or name.startswith("qfc."))]


def bindings() -> dict:
    """Identity of every attribute of the loaded ``qfc`` modules, to check a restore."""
    return {(name, attr): id(value)
            for name, module in _qfc_modules() for attr, value in vars(module).items()}


def rebind(original, replacement) -> list:
    """Point every ``qfc`` module attribute bound to ``original`` at ``replacement``.

    Returns the ``(module, attribute, original)`` triples for :func:`restore`.
    """
    saved = []
    for _, module in _qfc_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)
    return saved


def restore(saved: list) -> None:
    """Undo :func:`rebind`, last binding first; empties ``saved``."""
    while saved:
        module, attr, original = saved.pop()
        setattr(module, attr, original)


class Tracer:
    """Span statistics for one traced phase; use as a context manager."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.span_self = defaultdict(float)  # span time not covered by child spans
        self.busy = defaultdict(float)
        self.restarts = []  # (evaluations, iterations, converged, capped) per NM run
        self.agree = [0, 0]  # restarts within tolerance of the best, restarts
        self._stack = []  # [layer, child seconds] of each open span
        self.missing = []  # entry points this version of qfc does not have
        self._objective = None
        self._saved = []

    # -- recording -------------------------------------------------------
    def _span(self, name, fn, on_return=None):
        layer = name.split(".", 1)[0]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.span_self[name] += dt - child
                if stack:
                    stack[-1][1] += dt
                if not stack or stack[-1][0] != layer:
                    self.busy[layer] += dt
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _solve(self, span_name, objective_name, fn):
        timed = self._span(span_name, fn)

        def solve(*args, **kwargs):
            outer, self._objective = self._objective, objective_name
            try:
                return timed(*args, **kwargs)
            finally:
                self._objective = outer

        solve.__wrapped__ = fn
        return solve

    def _optimize_basis(self, fn):
        def on_return(report, args, kwargs):
            config = kwargs.get("config", args[3] if len(args) > 3 else None)
            if config is None:
                config = sys.modules["qfc.optimize"].OptimizerConfig()
            values = report.restart_values
            tolerance = config.tolerance
            self.agree[0] += int((abs(values - report.best_value) <= tolerance).sum())
            self.agree[1] += int(values.size)

        timed = self._span("optimize.optimize_basis", fn, on_return)

        def optimize_basis(objective, *args, **kwargs):
            if self._objective is not None:
                objective = self._span(self._objective, objective)
            return timed(objective, *args, **kwargs)

        optimize_basis.__wrapped__ = fn
        return optimize_basis

    def _nelder_mead(self, fn):
        def on_return(result, args, kwargs):
            _, _, nfev, nit, converged = result
            cap = kwargs.get("max_iterations", args[4] if len(args) > 4 else None)
            self.restarts.append((nfev, nit, bool(converged), not converged and nit >= cap))

        return self._span("optimize.nelder_mead", fn, on_return)

    # -- rebinding -------------------------------------------------------
    def _rebind(self, original, replacement):
        self._saved.extend(rebind(original, replacement))

    def install(self):
        import qfc  # noqa: F401  (loads the package modules to rebind)
        import qfc.cli  # noqa: F401

        def entry(mod, attr):
            fn = getattr(sys.modules[f"qfc.{mod}"], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
            return fn

        for (mod, attr), (span_name, objective_name) in SOLVES.items():
            fn = entry(mod, attr)
            if fn is not None:
                self._rebind(fn, self._solve(span_name, objective_name, fn))
        for attr, wrap in (("optimize_basis", self._optimize_basis),
                           ("nelder_mead", self._nelder_mead)):
            fn = entry("optimize", attr)
            if fn is not None:
                self._rebind(fn, wrap(fn))
        for mod, attrs in ENTRY_POINTS.items():
            for attr in attrs:
                fn = entry(mod, attr)
                if fn is not None:
                    name = f"{mod}.{attr}"
                    self._rebind(fn, self._span(SHORT_NAMES.get(name, name), fn))
        return self

    def restore(self):
        restore(self._saved)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data statistics, mergeable with :func:`merge`."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "span_self": dict(self.span_self),
            "busy": dict(self.busy),
            "restarts": [list(r) for r in self.restarts],
            "agree": list(self.agree),
            "missing": list(self.missing),
        }


def merge(snapshots) -> dict:
    """Sum span statistics recorded in several processes or phases."""
    keys = ("calls", "total", "span_self", "busy")
    out = {key: defaultdict(int if key == "calls" else float) for key in keys}
    restarts, agree, missing = [], [0, 0], set()
    for snap in snapshots:
        for key in keys:
            for name, value in snap[key].items():
                out[key][name] += value
        restarts.extend(snap["restarts"])
        agree = [agree[0] + snap["agree"][0], agree[1] + snap["agree"][1]]
        missing.update(snap["missing"])
    merged = {key: dict(value) for key, value in out.items()}
    merged.update(restarts=restarts, agree=agree, missing=sorted(missing))
    return merged
