"""Span tracing of liqshock from the outside.

The tracer swaps module attributes for span-recording wrappers while a
traced job runs, and puts the originals back afterwards; nothing under
``src/`` is modified.  A span is ``[name, start, end, parent, job, steps,
bytes]``: ``parent`` is the index of the enclosing span (-1 for the job's
root), ``steps`` is the number of time steps of a march or the number of
paths of a sampler call, ``bytes`` the computed size of the surfaces a march
returns.  Spans stay in memory and are written out once, at the end.

Self time is a span's duration minus the durations of its direct children.
Calls nest strictly (one thread), so children never overlap and their sum
is the time the children cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import logging
from pathlib import Path
from time import perf_counter

# Surfaces returned per march call: (p, q) pairs, one single-shock surface,
# and the four surfaces of the first-order expansion.
MARCHES = {
    "pde.solve_buyer": 2,
    "pde.solve_writer": 2,
    "pde.solve_single_shock_buyer": 1,
    "pde.asymptotic_expansion": 4,
    "emm.linear_price": 2,
}
# (module, attribute, span name, positional index of the grid / n_paths).
# The pde, emm and mc names are patched where liqshock.cli imported them;
# the model factory functions are patched in every module that bound them.
TARGETS = [
    ("liqshock.cli", "load_config", "cli.load_config", None),
    ("liqshock.cli", "solve_buyer", "pde.solve_buyer", 2),
    ("liqshock.cli", "solve_writer", "pde.solve_writer", 2),
    ("liqshock.cli", "solve_single_shock_buyer", "pde.solve_single_shock_buyer", 2),
    ("liqshock.cli", "asymptotic_expansion", "pde.asymptotic_expansion", 2),
    ("liqshock.cli", "hedge_report", "pde.hedge_report", None),
    ("liqshock.cli", "linear_price", "emm.linear_price", 3),
    ("liqshock.cli", "mc_linear_price", "mc.mc_linear_price", None),
    ("liqshock.mc", "sample_realized_ttm", "mc.sample_realized_ttm", 4),
    ("liqshock.bs", "bs_price", "bs.bs_price", None),
    ("liqshock.bs", "implied_ttm", "bs.implied_ttm", None),
    ("liqshock.bs", "bs_greeks", "bs.bs_greeks", None),
    ("liqshock.model", "merton_factors", "model.merton_factors", None),
    ("liqshock.model", "single_shock_factors", "model.single_shock_factors", None),
    ("liqshock.model", "intensity_curve", "model.intensity_curve", None),
    ("liqshock.pde", "merton_factors", "model.merton_factors", None),
    ("liqshock.pde", "single_shock_factors", "model.single_shock_factors", None),
    ("liqshock.emm", "single_shock_factors", "model.single_shock_factors", None),
    ("liqshock.mc", "intensity_curve", "model.intensity_curve", None),
]
ROOT_SPAN = "cli.main"


class _AcceptLog(logging.Handler):
    """Collects the thinning acceptance record liqshock.mc logs at DEBUG."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        ratio, candidates = record.args[0], record.args[1]
        self.tracer.mc_candidates += candidates
        self.tracer.mc_accepted += ratio * candidates


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.jobs = 0
        self.quote_calls = 0
        self.guard_trips = 0
        self.mc_candidates = 0
        self.mc_accepted = 0.0
        from liqshock.errors import NumericalError
        self._numerical_error = NumericalError

    def wrap(self, name: str, fn, work_index: int | None = None):
        spans, stack = self.spans, self._stack
        surfaces = MARCHES.get(name, 0)
        counts_guard = name.startswith("pde.")

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0, 0]
            if work_index is not None:
                work = args[work_index] if len(args) > work_index else None
                if surfaces:
                    grid = work if work is not None else kwargs["grid"]
                    rec[5] = grid.n_time
                    rec[6] = surfaces * (grid.n_time + 1) * grid.n_space * 8
                else:
                    rec[5] = work if work is not None else kwargs.get("n_paths", 1)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._numerical_error:
                if counts_guard:
                    self.guard_trips += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.quote_calls += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self, job_id: int):
        """Patch every target for the duration of one job; yields the
        traced ``liqshock.cli.main`` to call."""
        saved = []
        for module_name, attr, span, work_index in TARGETS:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(span, getattr(module, attr), work_index))
        surface = importlib.import_module("liqshock.pde").PriceSurface
        for attr in ("quote", "delta"):
            saved.append((surface, attr, getattr(surface, attr)))
            setattr(surface, attr, self._counter(getattr(surface, attr)))
        mc_log = logging.getLogger("liqshock.mc")
        level = mc_log.level
        handler = _AcceptLog(self)
        mc_log.addHandler(handler)
        mc_log.setLevel(logging.DEBUG)
        self.job = job_id
        try:
            yield self.wrap(ROOT_SPAN, importlib.import_module("liqshock.cli").main)
        finally:
            self.jobs += 1
            mc_log.removeHandler(handler)
            mc_log.setLevel(level)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, per traced job unless the name says otherwise."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        steps = surface_bytes = paths = implied_children = 0
        for i, rec in enumerate(self.spans):
            name = rec[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            total_s[name] = total_s.get(name, 0.0) + rec[2] - rec[1]
            if name in MARCHES:
                steps += rec[5]
                surface_bytes += rec[6]
            elif name == "mc.sample_realized_ttm":
                paths += rec[5]
            elif name == "bs.bs_price" and rec[3] >= 0 \
                    and self.spans[rec[3]][0] == "bs.implied_ttm":
                implied_children += 1
        n = max(self.jobs, 1)

        def per_job(table, *names):
            return sum(table.get(k, 0) for k in names) / n

        march_s = sum(self_s.get(k, 0.0) for k in MARCHES)
        sampler_s = self_s.get("mc.sample_realized_ttm", 0.0)
        implied = calls.get("bs.implied_ttm", 0)
        nonlinear = ("pde.solve_buyer", "pde.solve_writer")
        model = ("model.merton_factors", "model.single_shock_factors",
                 "model.intensity_curve")
        return {
            "cli.config_s": per_job(self_s, "cli.load_config"),
            "cli.self_s": per_job(self_s, ROOT_SPAN),
            "pde.nonlinear_calls": per_job(calls, *nonlinear),
            "pde.nonlinear_s": per_job(self_s, *nonlinear),
            "pde.single_shock_s": per_job(total_s, "pde.solve_single_shock_buyer"),
            "pde.asymptotic_s": per_job(self_s, "pde.asymptotic_expansion"),
            "pde.steps": steps / n,
            "pde.us_per_step": 1e6 * march_s / steps if steps else 0.0,
            "pde.surface_mb": surface_bytes / n / 1e6,
            "pde.hedge_s": per_job(self_s, "pde.hedge_report"),
            "pde.quote_calls": self.quote_calls / n,
            "pde.guard_trips": float(self.guard_trips),
            "emm.linear_calls": per_job(calls, "emm.linear_price"),
            "emm.linear_s": per_job(self_s, "emm.linear_price"),
            "mc.sampler_s": per_job(self_s, "mc.sample_realized_ttm"),
            "mc.price_s": per_job(self_s, "mc.mc_linear_price"),
            "mc.paths_per_s": paths / sampler_s if sampler_s else 0.0,
            "mc.accept_ratio": (self.mc_accepted / self.mc_candidates
                                if self.mc_candidates else 0.0),
            "bs.price_calls": per_job(calls, "bs.bs_price"),
            "bs.price_s": per_job(self_s, "bs.bs_price"),
            "bs.price_calls_per_implied": implied_children / implied if implied else 0.0,
            "bs.implied_s": per_job(self_s, "bs.implied_ttm"),
            "bs.greeks_s": per_job(self_s, "bs.bs_greeks"),
            "model.factors_s": per_job(self_s, *model),
        }

    def layer_shares(self) -> dict[str, float]:
        """Share of traced job time spent in each layer's own code."""
        selfs = self.self_times()
        by_layer: dict[str, float] = {}
        for rec, s in zip(self.spans, selfs):
            layer = rec[0].split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + s
        total = sum(by_layer.values())
        return {k: v / total for k, v in sorted(by_layer.items())} if total else {}

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[0], "start": rec[1] - t0,
                                     "end": rec[2] - t0, "parent": rec[3],
                                     "job": rec[4]}) + "\n")
