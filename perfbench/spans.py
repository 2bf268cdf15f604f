"""Outside-in layer spans around the package's public cross-module names.

:class:`Tracer` replaces, for the duration of one traced job, the names that
one ``gnar`` module imports from another (``gnar.design.weight_matrix``,
``gnar.netsearch.fit``, ``RngStream.gaussians``, ...) with wrappers that
record a span ``(layer, start, end, parent)`` and feed the layer's counters.
Nothing under ``src/`` is edited; a call a module makes to its own private
helpers stays invisible.  Spans are kept in memory and turned into self
times (span minus the part its direct children cover) once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import gnar.cli
import gnar.design
import gnar.estimate
import gnar.netsearch
import gnar.sim
from gnar.rng import RngStream


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        # (layer, start, end, parent index or -1, job)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self._stack: list[int] = []
        # distinct (network, stage, covariate, mask) per job; networks
        # compare by value, as the package's own caches do
        self._keys: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._patches = self._patch_table()

    # -- counters at the same boundaries as the spans -------------------

    def _count_weight_matrix(self, args, kwargs, _result):
        mask = _arg(args, kwargs, 3, "mask")
        key = (args[0], _arg(args, kwargs, 1, "r"),
               _arg(args, kwargs, 2, "c"),
               None if mask is None else tuple(mask))
        self.counts["network.weight_matrix.masked_calls"] += mask is not None
        if key not in self._keys:
            self._keys.add(key)
            self.counts["network.weight_matrix.distinct_keys"] += 1

    def _count_build_design(self, _args, _kwargs, problem):
        rows, cols = problem.x.shape
        self.counts["design.rows"] += rows
        self.counts["design.x_mb"] += rows * cols * 8 / 1e6

    def _count_fit(self, _args, _kwargs, result):
        self.counts["estimate.solve_gflop"] += (
            2.0 * result.n_obs_used * result.m**2 / 1e9)
        self.counts["estimate.rank_deficient"] += result.rank < result.m

    def _count_predict(self, args, kwargs, _result):
        h = _arg(args, kwargs, 4, "h")
        self.counts["forecast.node_steps"] += h * args[0].n_nodes

    def _count_simulate(self, args, kwargs, _result):
        n = _arg(args, kwargs, 3, "n")
        burn_in = _arg(args, kwargs, 5, "burn_in", 50)
        self.counts["sim.node_steps"] += (n + burn_in) * args[0].n_nodes

    def _patch_table(self):
        cw = "network.connection_weights"
        score = ("estimate.score", None)
        return [
            (gnar.cli, "load_series_csv", "series.load_series_csv", None),
            (gnar.cli, "save_series_csv", "series.save_series_csv", None),
            (gnar.cli, "fit", "estimate.fit", self._count_fit),
            (gnar.cli, "ic_grid", "netsearch.ic_grid", None),
            (gnar.cli, "search", "netsearch.search", None),
            (gnar.cli, "gnar_simulate", "sim.gnar_simulate",
             self._count_simulate),
            (gnar.design, "weight_matrix", "network.weight_matrix",
             self._count_weight_matrix),
            (gnar.estimate, "build_design", "design.build_design",
             self._count_build_design),
            (gnar.estimate, "bic_value", *score),
            (gnar.estimate, "aic_value", *score),
            (gnar.estimate, "loglik_value", *score),
            (gnar.netsearch, "fit", "estimate.fit", self._count_fit),
            (gnar.netsearch, "predict", "forecast.predict",
             self._count_predict),
            (gnar.netsearch, "erdos_renyi", "netsearch.erdos_renyi", None),
            (gnar.forecast, "connection_weights", cw, None),
            (gnar.sim, "connection_weights", cw, None),
            (RngStream, "gaussians", "rng.gaussians", None),
        ]

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, layer: str, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[idx] = (layer, start, end, parent, self.jobs)
            self.counts[layer + ".calls"] += 1
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def run_job(self, main, argv):
        """Call ``main(argv)`` as one traced job under a ``cli.main`` span."""
        self._keys.clear()
        for owner, name, layer, counter in self._patches:
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, counter))
        try:
            return self._wrap(main, "cli.main", None)(argv)
        finally:
            for owner, name, fn in reversed(self._saved):
                setattr(owner, name, fn)
            self._saved.clear()
            self.jobs += 1

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over every traced job."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += end - start - child[k]
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: layer, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_job_metrics(self, layers: list[str]) -> dict[str, float]:
        """Per-layer self seconds and counters, averaged over traced jobs."""
        jobs = max(self.jobs, 1)
        selfs = self.self_times()
        out = {f"{layer}.self_s": selfs.get(layer, 0.0) / jobs
               for layer in layers}
        for name, value in self.counts.items():
            out[name] = value / jobs
        calls = self.counts["network.weight_matrix.calls"]
        out["network.weight_matrix.distinct_ratio"] = (
            self.counts["network.weight_matrix.distinct_keys"] / calls
            if calls else 0.0)
        return out
