"""Stacked regression form of the network autoregression.

Responses are the observations ``x[t, i]`` for ``t = p+1..T``, stacked
time-major node-minor.  Each row's regressors are the node's own lags and,
per (lag, stage, covariate), the weighted neighbour sum at that lag.

Missing data enter in two distinct ways and are never imputed:

* a row is dropped exactly when its response or any of the node's own lags
  is missing;
* a neighbour sum with some members missing gives them weight 0 and
  renormalises the rest; a wholly unobserved stage gives regressor 0 and
  the row is kept.

The renormalisation is closed-form: with unmasked ``W[r, c]``,
``W[r] = sum_c W[r, c]`` and observed indicator ``o``, a lag row ``x`` with
gaps (set to 0) gives ``(x @ W[r, c].T) / (o @ W[r].T)``, 0 where that
denominator is 0.  Gap-free rows keep ``x @ W[r, c].T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .model import (
    ModelSpec,
    node_group_index,
    param_count,
    parameter_names,
    stage_weights,
)
# weight_matrix stays a module name: the layer tracer in perfbench/spans.py
# patches it here
from .network import Network, WeightMap, weight_matrix  # noqa: F401
from .series import SeriesMatrix, check_finite_cells


@dataclass(eq=False)
class DesignProblem:
    """Stacked response ``y``, design ``x``, and row bookkeeping.

    ``row_index[k] = (t, i)`` gives the 1-based time and node of row ``k``;
    ``kept_mask[t - p - 1, i - 1]`` says whether candidate row ``(t, i)``
    survived the own-lag/response rule.
    """

    y: np.ndarray
    x: np.ndarray
    row_index: np.ndarray
    kept_mask: np.ndarray
    column_names: list[str]
    n_times: int
    n_nodes: int

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_params(self) -> int:
        return self.x.shape[1]


def neighbour_regressor(values_at_lag, weights: WeightMap,
                        cov: int | None = None) -> float:
    """Weighted sum over the observed members of one stage.

    The renormalising denominator pools every observed member regardless of
    covariate, so the stage's total mass stays 1 across channels; ``cov``
    restricts which members enter the numerator.  Returns 0.0 when no member
    is observed.
    """
    vals = np.asarray(values_at_lag, dtype=float)
    num = 0.0
    den = 0.0
    for (q, c), w in weights.weights.items():
        v = vals[q - 1]
        if np.isnan(v):
            continue
        den += w
        if cov is None or c == cov:
            num += w * v
    return num / den if den > 0.0 else 0.0


def build_design(vts: SeriesMatrix, net: Network,
                 spec: ModelSpec) -> DesignProblem:
    """Assemble the stacked regression problem for one series and network."""
    if vts.n_nodes != net.n_nodes:
        raise ValueError(
            f"series has {vts.n_nodes} columns, network {net.n_nodes} nodes"
        )
    if tuple(vts.node_names) != net.node_names:
        raise ValueError(
            "series and network node names disagree; align them first"
        )
    if spec.n_cov != net.n_cov:
        raise ValueError("model and network disagree on covariate count")
    vals = vts.values
    n_times, n_nodes = vals.shape
    check_finite_cells(vals, vts.node_names)
    p = spec.p
    if n_times <= p:
        raise InsufficientDataError(
            f"series has {n_times} rows; order {p} needs at least {p + 1}"
        )
    n_block = n_times - p
    y0 = vals[p:]
    lag_vals = [vals[p - j: n_times - j] for j in range(1, p + 1)]
    kept = ~np.isnan(y0)
    for lv in lag_vals:
        kept &= ~np.isnan(lv)
    if not kept.any():
        raise InsufficientDataError(
            "every candidate row has a missing response or own lag"
        )

    m_total = param_count(spec, n_nodes)
    names = parameter_names(spec, n_nodes)
    if spec.alpha_mode == "per_group":
        gidx = node_group_index(spec, n_nodes)
        n_groups = int(gidx.max()) + 1
    w = stage_weights(net, spec)
    cols = np.zeros((n_block, n_nodes, m_total))
    col = 0
    node_range = np.arange(n_nodes)
    for j in range(1, p + 1):
        miss = np.isnan(lag_vals[j - 1])
        own = np.where(miss, 0.0, lag_vals[j - 1])
        if spec.alpha_mode == "global":
            cols[:, :, col] = own
            col += 1
        elif spec.alpha_mode == "per_node":
            cols[:, node_range, col + node_range] = own
            col += n_nodes
        else:
            cols[:, node_range, col + gidx] = own
            col += n_groups
        gap = miss.any(axis=1)
        observed = (~miss[gap]).astype(float)
        for r in range(1, spec.s[j - 1] + 1):
            den = observed @ sum(
                w[(r, c)] for c in range(1, spec.n_cov + 1)
            ).T
            for c in range(1, spec.n_cov + 1):
                reg = np.zeros((n_block, n_nodes))
                reg[~gap] = own[~gap] @ w[(r, c)].T
                num = own[gap] @ w[(r, c)].T
                reg[gap] = np.divide(
                    num, den, out=np.zeros_like(num), where=den > 0.0
                )
                if spec.alpha_mode == "per_group":
                    cols[:, node_range, col + gidx] = reg
                    col += n_groups
                else:
                    cols[:, :, col] = reg
                    col += 1

    keep_flat = kept.reshape(-1)
    x = cols.reshape(n_block * n_nodes, m_total)
    if not keep_flat.all():
        x = x[keep_flat]
    y = y0.reshape(-1)[keep_flat]
    t_ids = np.repeat(np.arange(p + 1, n_times + 1), n_nodes)
    node_ids = np.tile(np.arange(1, n_nodes + 1), n_block)
    row_index = np.column_stack([t_ids, node_ids])[keep_flat]
    return DesignProblem(
        y=y,
        x=x,
        row_index=row_index,
        kept_mask=kept,
        column_names=names,
        n_times=n_times,
        n_nodes=n_nodes,
    )

