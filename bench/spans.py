"""Spans recorded around the public functions of the bergman11 modules.

The traced run replaces every public function of the modules in ``MODULES``
with one wrapper, at every binding in the package (``weights.basis_scales``
and ``operators.basis_scales`` are one object, so they get one wrapper).  Each
call records a span: name, start, end, parent span and op index.  Spans are
kept in flat in-memory arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

MODULES = (
    "cli",
    "verification",
    "reporting",
    "weights",
    "quadrature",
    "su11",
    "representation",
    "operators",
    "uncertainty",
    "weightshift",
)

# Methods traced under their own names; ``QuadratureGrid`` is traced as its
# constructor, so its call count is the number of grids built.
METHODS = (
    ("weights", "CoeffVector", "__call__", "weights.CoeffVector.eval"),
    ("operators", "TriDiag", "to_dense", "operators.TriDiag.to_dense"),
    ("quadrature", "QuadratureGrid", "__init__", "quadrature.QuadratureGrid"),
)

DENSE_MATRIX_SPANS = ("operators.gram_matrix", "operators.commutator_matrix", "operators.TriDiag.to_dense")


class Tracer:
    """Flat span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_index = -1
        self.columns = 0  # dense matrix columns emitted
        self.dense_bytes_max = 0  # computed from array sizes
        self.grids_built = 0
        self.grid_keys: set = set()
        self.grid_bytes_max = 0  # computed from array sizes

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_index)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def per_name(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        self_t = np.bincount(ids, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(self_t[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(repr(meta)),
        )


def _dense_hook(tracer: Tracer, args, result) -> None:
    tracer.columns += result.shape[1]
    tracer.dense_bytes_max = max(tracer.dense_bytes_max, result.nbytes)


def _grid_hook(tracer: Tracer, args, result) -> None:
    grid = args[0]
    tracer.grids_built += 1
    tracer.grid_keys.add((grid.xi.xi, grid.radial_points, grid.angular_points))
    tracer.grid_bytes_max = max(tracer.grid_bytes_max, grid.nodes.nbytes + grid.weights.nbytes)


_HOOKS = {name: _dense_hook for name in DENSE_MATRIX_SPANS}
_HOOKS["quadrature.QuadratureGrid"] = _grid_hook


def instrument(tracer: Tracer):
    """Wrap the public functions of ``MODULES`` everywhere they are bound.

    Returns a function that restores the original bindings.
    """
    mods = {m: importlib.import_module(f"bergman11.{m}") for m in MODULES}
    wrappers = {}
    suites = mods["verification"].SUITES
    for suite, fn in suites.items():
        wrappers[fn] = tracer.wrap(f"verification.suite.{suite}", fn)
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and obj not in wrappers
            ):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)

    undo = []
    package = [m for n, m in sys.modules.items() if n == "bergman11" or n.startswith("bergman11.")]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                undo.append((setattr, mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        undo.append((dict.__setitem__, obj, key, value))
                        obj[key] = wrappers[value]
    for short, cls_name, meth, span_name in METHODS:
        cls = getattr(mods[short], cls_name)
        original = cls.__dict__[meth]
        undo.append((setattr, cls, meth, original))
        setattr(cls, meth, tracer.wrap(span_name, original))

    def restore():
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return restore


# Per-layer metrics read from the spans: (metric, unit, span, field).  ``calls``
# and ``self_ms`` are per traced op; ``ms`` is inclusive time per op.
SPAN_METRICS = [
    ("cli.main.calls", "calls/op", "cli.main", "calls"),
    ("cli.main.self_ms", "ms/op", "cli.main", "self"),
    *[
        (f"verification.suite.{s}.ms", "ms/op", f"verification.suite.{s}", "incl")
        for s in (
            "weight_core",
            "disc_oracle",
            "su11_algebra",
            "discrete_series",
            "first_order_ops",
            "uncertainty",
            "shift_iso",
        )
    ],
    ("reporting.dumps.calls", "calls/op", "reporting.dumps", "calls"),
    ("reporting.dumps.self_ms", "ms/op", "reporting.dumps", "self"),
    ("uncertainty.soltani_up.calls", "calls/op", "uncertainty.soltani_up", "calls"),
    ("uncertainty.soltani_up.self_ms", "ms/op", "uncertainty.soltani_up", "self"),
    ("operators.zhu_scan.self_ms", "ms/op", "operators.zhu_scan", "self"),
    ("su11.exp_at.calls", "calls/op", "su11.exp_at", "calls"),
    ("su11.exp_at.self_ms", "ms/op", "su11.exp_at", "self"),
    ("representation.group_act.self_ms", "ms/op", "representation.group_act", "self"),
    ("operators.gram_matrix.calls", "calls/op", "operators.gram_matrix", "calls"),
    ("operators.gram_matrix.self_ms", "ms/op", "operators.gram_matrix", "self"),
    ("operators.commutator_matrix.calls", "calls/op", "operators.commutator_matrix", "calls"),
    ("operators.commutator_matrix.self_ms", "ms/op", "operators.commutator_matrix", "self"),
    ("operators.apply.calls", "calls/op", "operators.apply", "calls"),
    ("operators.apply.self_ms", "ms/op", "operators.apply", "self"),
    ("operators.TriDiag.to_dense.self_ms", "ms/op", "operators.TriDiag.to_dense", "self"),
    ("quadrature.QuadratureGrid.calls", "calls/op", "quadrature.QuadratureGrid", "calls"),
    ("quadrature.QuadratureGrid.self_ms", "ms/op", "quadrature.QuadratureGrid", "self"),
    ("quadrature.integrate.self_ms", "ms/op", "quadrature.integrate", "self"),
    ("quadrature.reproduce.self_ms", "ms/op", "quadrature.reproduce", "self"),
    ("quadrature.kernel_eval.self_ms", "ms/op", "quadrature.kernel_eval", "self"),
    ("weights.CoeffVector.eval.calls", "calls/op", "weights.CoeffVector.eval", "calls"),
    ("weights.CoeffVector.eval.self_ms", "ms/op", "weights.CoeffVector.eval", "self"),
    ("weights.monomial_norms_sq.calls", "calls/op", "weights.monomial_norms_sq", "calls"),
    ("weights.monomial_norms_sq.self_ms", "ms/op", "weights.monomial_norms_sq", "self"),
    ("weights.basis_scales.calls", "calls/op", "weights.basis_scales", "calls"),
    ("weights.basis_scales.self_ms", "ms/op", "weights.basis_scales", "self"),
    ("weightshift.kernel_coeffs.calls", "calls/op", "weightshift.kernel_coeffs", "calls"),
    ("weightshift.kernel_coeffs.self_ms", "ms/op", "weightshift.kernel_coeffs", "self"),
]

# Per-layer metrics computed from counts and array sizes, not from span times.
COUNT_METRICS = [
    ("operators.apply_per_column", "calls/column"),
    ("operators.dense_bytes_computed", "bytes"),
    ("quadrature.grid_bytes_computed", "bytes"),
    ("quadrature.grid_reuse_ratio", "grids/grid"),
]

IMPORT_METRICS = [("cli.import_ms", "ms"), ("cli.import_scipy_special_ms", "ms")]

BENCH_METRICS = [("bench.tracing_overhead_pct", "%"), ("bench.traced_ops", "count")]

# ``verify --seed s_j`` runs that fail, of the survey's seeds (verify_cli only).
SURVEY_METRICS = [("verification.seed_survey_failed", "seeds")]

PER_LAYER = [(m, u) for m, u, _, _ in SPAN_METRICS] + COUNT_METRICS + IMPORT_METRICS + BENCH_METRICS + SURVEY_METRICS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op span metrics and the counted ratios of one traced run."""
    stats = tracer.per_name()
    out = {}
    for metric, unit, span, field in SPAN_METRICS:
        calls, incl, self_t = stats.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "incl": 1e3 * incl, "self": 1e3 * self_t}[field]
        out[metric] = (value / ops, unit)
    apply_calls = stats.get("operators.apply", (0, 0.0, 0.0))[0]
    out["operators.apply_per_column"] = (_ratio(apply_calls, tracer.columns), "calls/column")
    out["operators.dense_bytes_computed"] = (tracer.dense_bytes_max, "bytes")
    out["quadrature.grid_bytes_computed"] = (tracer.grid_bytes_max, "bytes")
    out["quadrature.grid_reuse_ratio"] = (_ratio(len(tracer.grid_keys), tracer.grids_built), "grids/grid")
    return out


def _importtime_us(code: str, root: Path, env: dict) -> tuple:
    """(sum of top-level cumulative import times, {module: cumulative}) in us."""
    p = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    total, cumulative = 0, {}
    for line in p.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cum_us, name = line[len("import time:") :].split("|")
        cumulative[name.strip()] = int(cum_us)
        if not name[1:].startswith(" "):
            total += int(cum_us)
    return total, cumulative


def import_metrics(root: Path, env: dict, repeats: int = 3) -> dict:
    """Import cost of ``bergman11.cli`` in a fresh interpreter (``-X importtime``),
    minus the imports of a bare interpreter start; medians of ``repeats``."""
    pkg, special = [], []
    for _ in range(repeats):
        bare, _ = _importtime_us("pass", root, env)
        full, cumulative = _importtime_us("import bergman11.cli", root, env)
        pkg.append((full - bare) / 1e3)
        special.append(cumulative.get("scipy.special", 0) / 1e3)
    return {
        "cli.import_ms": (statistics.median(pkg), "ms"),
        "cli.import_scipy_special_ms": (statistics.median(special), "ms"),
    }
