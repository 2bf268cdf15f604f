"""Simulation of network autoregressions.

Two deliberately independent recursions are provided.  ``gnar_simulate``
iterates the node equation over the stage weight matrices, one vector step
per time point: ``x_t = sum_j a_j * x_{t-j} + sum_{j,r,c} b_{j,r,c} *
(W[r, c] @ x_{t-j}) + sigma * z_t``.  ``var_simulate`` iterates the matrix
recursion ``x_t = phi_1 x_{t-1} + ... + phi_p x_{t-p} + u_t``.  Under
matching coefficients (see :func:`gnar.model.to_var_matrices`) and a shared
seed they must produce the same paths up to float summation order, which
the test suite checks; never route ``gnar_simulate`` through the ``phi_j``.

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
    _node_equation,
    stationarity_margin,
)
# connection_weights stays a module name: the layer tracer in
# perfbench/spans.py patches it here
from .network import Network, connection_weights  # noqa: F401
from .rng import RngStream
from .series import SeriesMatrix


def _check_sim_args(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError("simulation length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn-in must be >= 0")


def gnar_simulate(net: Network, spec: ModelSpec, coef: CoefficientSet,
                  n: int, rng: RngStream, burn_in: int = 50) -> SeriesMatrix:
    """Simulate ``n`` observations by iterating the node equation."""
    _check_sim_args(n, burn_in)
    step = _node_equation(net, spec, coef)
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
    x = np.zeros((p + burn_in + n, net.n_nodes))
    u = coef.sigma * rng.gaussians((burn_in + n) * net.n_nodes).reshape(
        -1, net.n_nodes)
    for t in range(p, x.shape[0]):
        x[t] = step(x[t - p:t][::-1]) + u[t - p]
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

