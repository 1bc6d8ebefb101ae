"""Call tracer for the benchmark: wraps mixlasso's public functions from outside.

``from .linalg import cholesky`` copies the function object into the
importing module, so patching ``linalg.cholesky`` alone would miss every
call made through ``model``, ``optimizer`` and the rest. :meth:`Tracer.installed`
therefore replaces *every* module attribute that is the original object,
and restores each one on exit.

Hot kernels (``linalg``, ``model``, ``cgd_cycle``) are aggregated online per
``(name, parent)``: call count, inclusive time and self time. Coarse calls
(fits, paths, simulation and CLI stages) additionally keep one span each,
with the hot call counts seen inside it. Nothing is written until the run
ends.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MODULES = ("linalg", "model", "optimizer", "selection", "predict", "simulate", "cli")


@dataclass
class Target:
    """One traced callable: ``owner.attr`` where ``owner`` is a module or class."""

    name: str
    owner_path: str
    attr: str
    coarse: bool = False
    hook: Callable | None = None


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0  # inclusive, outermost call of the name only
    self_s: float = 0.0
    errors: int = 0


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Aggregates calls made through wrapped bindings.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[tuple[str, str | None], Stat] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [name, child_s, span_or_None, coarse_id]
        self._depth: dict[str, int] = {}

    # ---- recording ------------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def _enter(self, name: str, coarse: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        coarse_id = parent[3] if parent else None
        span = None
        if coarse:
            span = Span(len(self.spans), name, coarse_id, 0.0, counts=dict(self.calls))
            self.spans.append(span)
            coarse_id = span.id
        frame = [name, 0.0, span, coarse_id]
        stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.calls[name] = self.calls.get(name, 0) + 1
        return frame

    def _exit(self, frame: list, start: float, end: float, failed: bool) -> float:
        name, child_s, span = frame[0], frame[1], frame[2]
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        depth = self._depth[name] - 1
        self._depth[name] = depth
        key = (name, parent[0] if parent else None)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.self_s += dur - child_s
        if depth == 0:
            stat.s += dur
        if failed:
            stat.errors += 1
        if span is not None:
            span.start, span.end = start, end
            before = span.counts
            span.counts = {k: v - before.get(k, 0) for k, v in self.calls.items()
                           if v != before.get(k, 0)}
            span.counts[name] -= 1  # the span's own call
            if not span.counts[name]:
                del span.counts[name]
        return dur

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, coarse, hook = target.name, target.coarse, target.hook
        clock = self.clock

        def traced(*args, **kwargs):
            frame = tracer._enter(name, coarse)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, clock(), True)
                raise
            dur = tracer._exit(frame, start, clock(), False)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result, dur, frame[2])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """A coarse span around code the benchmark runs itself."""
        frame = self._enter(name, True)
        start = self.clock()
        failed = True
        try:
            yield frame[2]
            failed = False
        finally:
            self._exit(frame, start, self.clock(), failed)

    # ---- installation ---------------------------------------------------

    @contextmanager
    def installed(self, targets: list[Target], package):
        """Wrap every binding of each target within ``package`` and restore
        all of them on exit, in reverse order."""
        saved = []
        try:
            for target in targets:
                owner = _resolve(package, target.owner_path)
                raw = inspect.getattr_static(owner, target.attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(target, raw.__func__))
                    saved.append((owner, target.attr, raw))
                    setattr(owner, target.attr, wrapped)
                    continue
                traced = self.wrap(target, raw)
                for module in _binding_sites(package):
                    if module.__dict__.get(target.attr) is raw:
                        saved.append((module, target.attr, raw))
                        setattr(module, target.attr, traced)
                if inspect.isclass(owner):
                    saved.append((owner, target.attr, raw))
                    setattr(owner, target.attr, traced)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ---- results --------------------------------------------------------

    def by_name(self) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for (name, _), stat in self.stats.items():
            agg = out.setdefault(name, Stat())
            agg.calls += stat.calls
            agg.s += stat.s
            agg.self_s += stat.self_s
            agg.errors += stat.errors
        return out

    def table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": st.calls, "s": st.s,
             "self_s": st.self_s, "errors": st.errors}
            for (name, parent), st in sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        ]


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _binding_sites(package) -> list:
    return [package] + [getattr(package, m) for m in MODULES]


# ---- hooks: counts computed from arguments and returned objects -----------


def _cholesky(tr, fn, args, kwargs, result, dur, span):
    n = result.lower.shape[0]
    tr.add("linalg.cholesky.n_sum", n)
    tr.add("linalg.cholesky.flops", n ** 3 / 3.0)
    if result.jitter_applied > 0.0:
        tr.add("linalg.cholesky.jittered")
        tr.peak("linalg.cholesky.max_jitter", result.jitter_applied)


def _solve_spd(tr, fn, args, kwargs, result, dur, span):
    n = args[0].lower.shape[0]
    k = result.shape[1] if result.ndim == 2 else 1
    tr.add("linalg.solve_spd.flops", 2.0 * n * n * k)
    tr.add("linalg.solve_spd.bytes", 8.0 * (n * n + 2 * n * k))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _fit(tr, fn, args, kwargs, result, dur, span):
    tr.add("optimizer.fit.cycles", result.cycles_used)
    tr.add("optimizer.fit.nonconverged", 0 if result.converged else 1)
    tr.add("optimizer.fit.skipped_coords", len(result.skipped_coordinates))
    if _bound(fn, args, kwargs)["fixed_variance"]:
        tr.add("optimizer.fit.baseline_s", dur)


def _lambda_max(tr, fn, args, kwargs, result, dur, span):
    if span.parent is not None:
        tr.spans[span.parent].attrs["lambda_max"] = result


def _lambda_path(tr, fn, args, kwargs, result, dur, span):
    bound = _bound(fn, args, kwargs)
    entries = len(result.entries)
    fits = span.counts.get("optimizer.fit", 0)
    refine = 0
    lam_max = span.attrs.get("lambda_max")
    if lam_max is not None and lam_max > 0:
        grid = np.geomspace(lam_max, bound["lambda_ratio"] * lam_max, bound["grid_size"])
        on_grid = {float(v) for v in grid}
        refine = sum(1 for e in result.entries if e.lam not in on_grid)
    tr.add("selection.lambda_path.fits", fits)
    tr.add("selection.lambda_path.entries", entries)
    tr.add("selection.lambda_path.refine_entries", refine)
    tr.add("selection.lambda_path.failures", len(result.failures))
    tr.add("selection.lambda_path.stopped_early", int(result.stopped_early))
    span.attrs.update(entries=entries, fits=fits, refine_entries=refine,
                      failures=len(result.failures), stopped_early=result.stopped_early,
                      best_converged=result.best.converged, kind=bound["kind"],
                      warm_init=bound["phi_init"] is not None)


def _fits_inside(prefix):
    def hook(tr, fn, args, kwargs, result, dur, span):
        tr.add(prefix + ".fits", span.counts.get("optimizer.fit", 0))
    return hook


def _predict_response(tr, fn, args, kwargs, result, dur, span):
    tr.add("predict.predict_response.rows", sum(len(y) for y in result.y_hat))


def _read_table(tr, fn, args, kwargs, result, dur, span):
    tr.add("cli.read_table.bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


TARGETS = [
    Target("linalg.cholesky", "linalg", "cholesky", hook=_cholesky),
    Target("linalg.solve_spd", "linalg", "solve_spd", hook=_solve_spd),
    Target("linalg.log_det", "linalg", "log_det"),
    Target("model.marginal_cov_derivative", "model", "marginal_cov_derivative"),
    Target("model.CovarianceStructure.d_psi", "model.CovarianceStructure", "d_psi"),
    Target("model.objective", "model", "objective"),
    Target("model.neg_log_likelihood", "model", "neg_log_likelihood"),
    Target("model.group_covariance", "model", "group_covariance"),
    Target("model.GroupedDataset", "model.GroupedDataset", "__init__"),
    Target("model.GroupedDataset", "model.GroupedDataset", "from_arrays"),
    Target("optimizer.cgd_cycle", "optimizer", "cgd_cycle"),
    Target("optimizer.fit", "optimizer", "fit", coarse=True, hook=_fit),
    Target("selection.default_start", "selection", "default_start", coarse=True),
    Target("selection.lambda_max", "selection", "lambda_max", coarse=True, hook=_lambda_max),
    Target("selection.lambda_path", "selection", "lambda_path", coarse=True, hook=_lambda_path),
    Target("selection.lasso_path_bic", "selection", "lasso_path_bic", coarse=True,
           hook=_fits_inside("selection.lasso_path_bic")),
    Target("selection.select_random_effects", "selection", "select_random_effects",
           coarse=True, hook=_fits_inside("selection.select_random_effects")),
    Target("predict.predict_random_effects", "predict", "predict_random_effects", coarse=True),
    Target("predict.predict_response", "predict", "predict_response", coarse=True,
           hook=_predict_response),
    Target("simulate.simulate_dataset", "simulate", "simulate_dataset", coarse=True),
    Target("simulate.simulate_test_data", "simulate", "simulate_test_data", coarse=True),
    Target("simulate.evaluate_fit", "simulate", "evaluate_fit", coarse=True),
    Target("simulate.excess_risk", "simulate", "excess_risk", coarse=True),
    Target("cli.read_table", "cli", "read_table", coarse=True, hook=_read_table),
    Target("cli.canonicalize", "cli", "canonicalize", coarse=True),
    Target("cli.standardize_table", "cli", "standardize_table", coarse=True),
    Target("cli.render_model_artifact", "cli", "render_model_artifact", coarse=True),
    Target("cli.parse_model_artifact", "cli", "parse_model_artifact", coarse=True),
]

CLI_COMMANDS = ("select-structure", "path", "predict")

# (metric, unit, better); the benchmark reports exactly these per workload.
# simulate.simulate_test_data is traced but has no metric: no workload's
# scheme has a test set, so its time would read 0 on every run.
LAYER_METRICS = [
    ("linalg.cholesky.calls", "count", "lower"),
    ("linalg.cholesky.s", "s", "lower"),
    ("linalg.cholesky.mean_n", "rows", "lower"),
    ("linalg.cholesky.flops", "flop", "lower"),
    ("linalg.cholesky.jittered", "count", "lower"),
    ("linalg.cholesky.max_jitter", "abs", "lower"),
    ("linalg.solve_spd.calls", "count", "lower"),
    ("linalg.solve_spd.s", "s", "lower"),
    ("linalg.solve_spd.flops", "flop", "lower"),
    ("linalg.solve_spd.bytes", "B", "lower"),
    ("linalg.log_det.calls", "count", "lower"),
    ("linalg.log_det.s", "s", "lower"),
    ("model.marginal_cov_derivative.calls", "count", "lower"),
    ("model.marginal_cov_derivative.s", "s", "lower"),
    ("model.CovarianceStructure.d_psi.calls", "count", "lower"),
    ("model.CovarianceStructure.d_psi.s", "s", "lower"),
    ("model.objective.calls", "count", "lower"),
    ("model.objective.s", "s", "lower"),
    ("model.neg_log_likelihood.calls", "count", "lower"),
    ("model.neg_log_likelihood.s", "s", "lower"),
    ("model.group_covariance.calls", "count", "lower"),
    ("model.group_covariance.s", "s", "lower"),
    ("model.GroupedDataset.s", "s", "lower"),
    ("optimizer.fit.calls", "count", "lower"),
    ("optimizer.fit.s", "s", "lower"),
    ("optimizer.fit.self_s", "s", "lower"),
    ("optimizer.fit.cycles", "count", "lower"),
    ("optimizer.fit.nonconverged", "count", "lower"),
    ("optimizer.fit.skipped_coords", "count", "lower"),
    ("optimizer.fit.baseline_s", "s", "lower"),
    ("optimizer.cgd_cycle.calls", "count", "lower"),
    ("optimizer.cgd_cycle.s", "s", "lower"),
    ("selection.default_start.s", "s", "lower"),
    ("selection.default_start.self_s", "s", "lower"),
    ("selection.lambda_max.s", "s", "lower"),
    ("selection.lambda_path.calls", "count", "lower"),
    ("selection.lambda_path.s", "s", "lower"),
    ("selection.lambda_path.self_s", "s", "lower"),
    ("selection.lambda_path.fits", "count", "lower"),
    ("selection.lambda_path.entries", "count", "higher"),
    ("selection.lambda_path.refine_entries", "count", "lower"),
    ("selection.lambda_path.kept_ratio", "ratio", "higher"),
    ("selection.lambda_path.failures", "count", "lower"),
    ("selection.lambda_path.stopped_early", "count", "lower"),
    ("selection.lambda_path.cholesky_per_call", "count", "lower"),
    ("selection.lambda_path.solve_spd_per_call", "count", "lower"),
    ("selection.lasso_path_bic.s", "s", "lower"),
    ("selection.lasso_path_bic.fits", "count", "lower"),
    ("selection.select_random_effects.s", "s", "lower"),
    ("selection.select_random_effects.fits", "count", "lower"),
    ("predict.predict_random_effects.calls", "count", "lower"),
    ("predict.predict_random_effects.s", "s", "lower"),
    ("predict.predict_response.calls", "count", "lower"),
    ("predict.predict_response.s", "s", "lower"),
    ("predict.predict_response.rows", "count", "higher"),
    ("simulate.simulate_dataset.s", "s", "lower"),
    ("simulate.evaluate_fit.self_s", "s", "lower"),
    ("simulate.excess_risk.s", "s", "lower"),
] + [(f"cli.main.{c}.s", "s", "lower") for c in CLI_COMMANDS] + [
    ("cli.read_table.calls", "count", "lower"),
    ("cli.read_table.s", "s", "lower"),
    ("cli.read_table.bytes", "B", "lower"),
    ("cli.canonicalize.s", "s", "lower"),
    ("cli.standardize_table.s", "s", "lower"),
    ("cli.render_model_artifact.s", "s", "lower"),
    ("cli.parse_model_artifact.s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("model.neg_log_likelihood.probe_us", "us", "lower"),
    ("model.group_covariance.probe_us", "us", "lower"),
    ("optimizer.cgd_cycle.beta_probe_us", "us", "lower"),
    ("optimizer.cgd_cycle.variance_probe_us", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


_TRACED_NAMES = {t.name for t in TARGETS} | {f"cli.main.{c}" for c in CLI_COMMANDS}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from a finished trace (probes, written bytes
    and overhead are filled in by the caller)."""
    stats = tracer.by_name()
    c = tracer.counters
    out: dict[str, float] = {}
    for metric, _, _ in LAYER_METRICS:
        base, _, field_name = metric.rpartition(".")
        st = stats.get(base, Stat())
        if field_name in ("calls", "s", "self_s") and base in _TRACED_NAMES:
            out[metric] = float(getattr(st, field_name))
        elif metric in c:
            out[metric] = float(c[metric])
        else:
            out[metric] = 0.0
    chol = stats.get("linalg.cholesky", Stat())
    out["linalg.cholesky.mean_n"] = c.get("linalg.cholesky.n_sum", 0.0) / chol.calls if chol.calls else 0.0
    fits = c.get("selection.lambda_path.fits", 0.0)
    out["selection.lambda_path.kept_ratio"] = (
        c.get("selection.lambda_path.entries", 0.0) / fits if fits else 0.0)
    paths = [s for s in tracer.spans if s.name == "selection.lambda_path"]
    if paths:
        out["selection.lambda_path.cholesky_per_call"] = (
            sum(s.counts.get("linalg.cholesky", 0) for s in paths) / len(paths))
        out["selection.lambda_path.solve_spd_per_call"] = (
            sum(s.counts.get("linalg.solve_spd", 0) for s in paths) / len(paths))
    for metric, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite layer metric {metric}")
    return out

