"""Simulation of network autoregressions.

Two deliberately independent recursions are provided.  ``gnar_simulate``
iterates the per-node equation, summing each node's own lags and weighted
stage-r neighbour averages.  ``var_simulate`` iterates the matrix recursion
``x_t = phi_1 x_{t-1} + ... + phi_p x_{t-p} + u_t``.  Under matching
coefficients (see :func:`gnar.model.to_var_matrices`) and a shared seed they
must produce identical paths, which the test suite checks; never collapse
one into the other.

Both start from ``p`` zero presample rows, run ``burn_in`` discarded steps,
and draw all innovations in one call, in time-major, node-minor order: per
time step one standard normal per node, node 1 first, scaled by its sigma.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import StationarityWarning
from .model import (
    CoefficientSet,
    ModelSpec,
    alpha_by_node,
    beta_by_node,
    stationarity_margin,
)
from .network import Network, connection_weights
from .rng import RngStream
from .series import SeriesMatrix


def _check_sim_args(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError("simulation length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn-in must be >= 0")


def _neighbour_terms(net: Network, max_stage: int):
    """Per (node, stage, covariate): member indices and weights, 0-based."""
    terms: list[list[dict[int, tuple[np.ndarray, np.ndarray]]]] = []
    for i in range(1, net.n_nodes + 1):
        per_stage = []
        for r in range(1, max_stage + 1):
            wm = connection_weights(net, i, r)
            by_cov: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for c in range(1, net.n_cov + 1):
                idx = np.array(
                    [q - 1 for (q, cov) in wm.weights if cov == c], dtype=int
                )
                w = np.array(
                    [wm.weights[(q + 1, c)] for q in idx], dtype=float
                )
                if idx.size:
                    by_cov[c] = (idx, w)
            per_stage.append(by_cov)
        terms.append(per_stage)
    return terms


def gnar_simulate(net: Network, spec: ModelSpec, coef: CoefficientSet,
                  n: int, rng: RngStream, burn_in: int = 50) -> SeriesMatrix:
    """Simulate ``n`` observations by iterating the per-node equation."""
    _check_sim_args(n, burn_in)
    n_nodes = net.n_nodes
    if coef.n_nodes != n_nodes:
        raise ValueError("coefficient set and network disagree on node count")
    if spec.n_cov != net.n_cov:
        raise ValueError("model and network disagree on covariate count")
    check = stationarity_margin(spec, coef)
    if not check.sufficient_condition_holds:
        warnings.warn(
            "coefficient mass reaches "
            f"{float(np.max(check.margins)):.6g} >= 1 on some node; the "
            "sufficient stationarity bound fails and the simulated series "
            "may diverge",
            StationarityWarning,
            stacklevel=2,
        )
    p = spec.p
    a = alpha_by_node(spec, coef, n_nodes)
    b = beta_by_node(spec, coef, n_nodes)
    terms = _neighbour_terms(net, spec.max_stage)
    x = np.zeros((p + burn_in + n, n_nodes))
    z = rng.gaussians((burn_in + n) * n_nodes).reshape(-1, n_nodes)
    for t in range(p, x.shape[0]):
        for i in range(n_nodes):
            acc = 0.0
            for j in range(1, p + 1):
                lag_row = x[t - j]
                acc += a[j - 1, i] * lag_row[i]
                for r in range(1, spec.s[j - 1] + 1):
                    for c, (idx, w) in terms[i][r - 1].items():
                        acc += b[j - 1][r - 1, c - 1, i] * float(
                            w @ lag_row[idx]
                        )
            x[t, i] = acc + coef.sigma[i] * z[t - p, i]
    return SeriesMatrix(x[p + burn_in:].copy(), net.node_names)


def var_simulate(phis: Sequence[np.ndarray], sigma, n: int, rng: RngStream,
                 burn_in: int = 50,
                 node_names: Sequence[str] | None = None) -> SeriesMatrix:
    """Simulate ``n`` observations of ``x_t = sum_k phi_k x_{t-k} + u_t``."""
    _check_sim_args(n, burn_in)
    phis = [np.asarray(m, dtype=float) for m in phis]
    if not phis:
        raise ValueError("need at least one lag matrix")
    n_nodes = phis[0].shape[0]
    for m in phis:
        if m.shape != (n_nodes, n_nodes):
            raise ValueError("lag matrices must share one square shape")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0:
        sigma = np.full(n_nodes, float(sigma))
    if sigma.shape != (n_nodes,):
        raise ValueError(f"sigma must have shape ({n_nodes},)")
    p = len(phis)
    x = np.zeros((p + burn_in + n, n_nodes))
    u = sigma * rng.gaussians((burn_in + n) * n_nodes).reshape(-1, n_nodes)
    for t in range(p, x.shape[0]):
        acc = u[t - p]
        for k, phi in enumerate(phis, start=1):
            acc = acc + phi @ x[t - k]
        x[t] = acc
    names = tuple(node_names) if node_names is not None else tuple(
        f"node{i}" for i in range(1, n_nodes + 1)
    )
    return SeriesMatrix(x[p + burn_in:].copy(), names)


def simulate_from_fit(fit, net: Network, n: int, rng: RngStream,
                      burn_in: int = 50) -> SeriesMatrix:
    """Simulate from fitted coefficients with residual-estimated sigma."""
    return gnar_simulate(net, fit.spec, fit.coef, n, rng, burn_in=burn_in)
