"""Iterated conditional-expectation forecasts.

Each step applies the node equation to all nodes at once with the
innovation set to zero and appends the predicted row to the working
history, so step ``k`` conditions on steps ``1..k-1``.  The last ``p``
history rows must be complete and finite: every cell there is some node's
own lag, and a node cannot be projected without its own recent values.
Earlier rows are ignored, so they may hold missing cells.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, InsufficientDataError
from .model import CoefficientSet, ModelSpec, _node_equation
# connection_weights stays a module name: the layer tracer in
# perfbench/spans.py patches it here
from .network import Network, connection_weights  # noqa: F401
from .series import SeriesMatrix


def _history_array(history, n_nodes: int) -> np.ndarray:
    if isinstance(history, SeriesMatrix):
        arr = history.values
    else:
        arr = np.asarray(history, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n_nodes:
        raise ValueError(f"history must be a (T, {n_nodes}) matrix")
    return arr


def predict(net: Network, spec: ModelSpec, coef: CoefficientSet,
            history, h: int) -> np.ndarray:
    """Forecast ``h`` steps ahead; returns an ``(h, N)`` matrix."""
    if h < 1:
        raise ValueError("forecast horizon must be >= 1")
    step = _node_equation(net, spec, coef)
    hist = _history_array(history, net.n_nodes)
    p = spec.p
    if hist.shape[0] < p:
        raise InsufficientDataError(
            f"history has {hist.shape[0]} rows; order {p} needs at least {p}"
        )
    lags = hist[-p:][::-1]
    bad = ~np.isfinite(lags)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        j = int(np.flatnonzero(bad[:, i])[0]) + 1
        cell = lags[j - 1, i]
        state = "missing" if np.isnan(cell) else f"not finite ({cell})"
        raise DataError(
            f"own lag {j} of node {net.node_names[i]} is {state} "
            "at forecast step 1"
        )
    lags = list(lags)
    out = np.empty((h, net.n_nodes))
    for k in range(h):
        out[k] = step(lags)
        lags = [out[k], *lags[:-1]]
    return out


def prediction_error(pred, actual) -> float:
    """Sum of squared errors over the observed actual cells."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(
        actual.values if isinstance(actual, SeriesMatrix) else actual,
        dtype=float,
    )
    if pred.shape != actual.shape:
        raise ValueError(
            f"prediction shape {pred.shape} != actual shape {actual.shape}"
        )
    obs = ~np.isnan(actual)
    if not obs.any():
        raise DataError("no observed cells to score against")
    diff = pred[obs] - actual[obs]
    return float(diff @ diff)
