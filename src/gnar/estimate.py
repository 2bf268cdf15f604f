"""Least-squares estimation and model scoring.

The stacked regression of :mod:`gnar.design` is solved without an intercept
(the model is zero-mean).  Rank-deficient designs are resolved by the
minimum-norm solution, with a warning naming the aliased columns.  Standard
errors use ``sigma2 * diag((X'X)^+)`` with ``sigma2 = RSS / (rows - M)``.

The residual covariance divides by ``T_eff = T - p`` (the number of modelled
time points), counting missing residual cells as zero; per-node retained row
counts are reported so sparsely observed nodes are visible.  Information
criteria, with ``M`` the parameter count:

* ``BIC = ln det(Sigma_hat) + M ln(T_eff) / T_eff``
* ``AIC = ln det(Sigma_hat) + 2 M / T_eff``

A singular ``Sigma_hat`` is ridge-stabilised (``+ 1e-10 I``) with a warning;
passing ``stabilize=False`` raises instead.

``gls_restricted_estimate`` is a transparent oracle for complete data: the
closed-form restricted estimator built from the constraint matrix ``R`` and
a working innovation covariance.  With the identity covariance it must agree
with the stacked least-squares fit, which the test suite checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _qr_pivot

from .design import build_design
from .errors import (
    DataError,
    InsufficientDataError,
    RankDeficiencyWarning,
    SingularCovarianceWarning,
)
from .model import (
    CoefficientSet,
    ModelSpec,
    coefficients_from_gamma,
    constraint_matrix,
    model_label,
    model_spec_from_json,
    model_spec_to_json,
    param_count,
)
from .network import Network, network_from_json, network_to_json
from .series import SeriesMatrix

_RIDGE = 1e-10
_SINGULAR_RTOL = 1e-12


@dataclass(eq=False)
class FitResult:
    spec: ModelSpec
    net: Network
    gamma: np.ndarray
    se: np.ndarray
    names: list[str]
    coef: CoefficientSet
    fitted: np.ndarray
    residuals: np.ndarray
    sigma_u_hat: np.ndarray
    rss: float
    dof: int
    rank: int
    n_obs_used: int
    dropped_row_count: int
    n_obs_per_node: np.ndarray
    t_eff: int
    m: int
    bic: float
    aic: float
    loglik: float


def _stable_logdet(sigma: np.ndarray, stabilize: bool = True) -> float:
    # eigenvalues, not slogdet: a covariance of rank r < n picks up noise
    # eigenvalues ~1e-16 whose product can masquerade as a finite logdet
    eigs = np.linalg.eigvalsh(sigma)
    floor = _SINGULAR_RTOL * max(float(eigs[-1]), 0.0)
    if eigs[0] > floor:
        return float(np.log(eigs).sum())
    if not stabilize:
        raise DataError("singular innovation covariance")
    warnings.warn(
        f"innovation covariance is singular; adding ridge {_RIDGE:g} "
        "before taking the log determinant",
        SingularCovarianceWarning,
        stacklevel=3,
    )
    eigs = np.linalg.eigvalsh(sigma + _RIDGE * np.eye(sigma.shape[0]))
    if eigs[0] <= 0.0:
        raise DataError("innovation covariance is not stabilisable")
    return float(np.log(eigs).sum())


def bic_value(sigma_u: np.ndarray, t_eff: int, m: int,
              stabilize: bool = True) -> float:
    if t_eff < 1:
        raise ValueError("effective sample size must be >= 1")
    logdet = _stable_logdet(np.asarray(sigma_u, dtype=float), stabilize)
    return logdet + m * math.log(t_eff) / t_eff


def aic_value(sigma_u: np.ndarray, t_eff: int, m: int,
              stabilize: bool = True) -> float:
    if t_eff < 1:
        raise ValueError("effective sample size must be >= 1")
    logdet = _stable_logdet(np.asarray(sigma_u, dtype=float), stabilize)
    return logdet + 2.0 * m / t_eff


def loglik_value(sigma_u: np.ndarray, t_eff: int,
                 stabilize: bool = True) -> float:
    sigma_u = np.asarray(sigma_u, dtype=float)
    n = sigma_u.shape[0]
    logdet = _stable_logdet(sigma_u, stabilize)
    return (
        -0.5 * t_eff * n * (math.log(2.0 * math.pi) + 1.0)
        - 0.5 * t_eff * logdet
    )


def _aliased_columns(x: np.ndarray, rank: int,
                     names: list[str]) -> list[str]:
    _, _, pivots = _qr_pivot(x, mode="economic", pivoting=True)
    return sorted(names[k] for k in pivots[rank:])


def fit(vts: SeriesMatrix, net: Network, spec: ModelSpec) -> FitResult:
    """Least-squares fit of one model order on one network."""
    problem = build_design(vts, net, spec)
    n_rows, m = problem.x.shape
    if n_rows < m:
        raise InsufficientDataError(
            f"insufficient data for order: {n_rows} retained rows for "
            f"{m} parameters"
        )
    gamma, _, rank, _ = np.linalg.lstsq(problem.x, problem.y, rcond=None)
    if rank < m:
        aliased = _aliased_columns(problem.x, rank, problem.column_names)
        warnings.warn(
            f"design is rank deficient ({rank}/{m}); minimum-norm solution "
            f"used; aliased columns: {', '.join(aliased)}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    resid_vec = problem.y - problem.x @ gamma
    rss = float(resid_vec @ resid_vec)
    dof = n_rows - m
    xtx = problem.x.T @ problem.x
    xtx_inv = np.linalg.pinv(xtx) if rank < m else np.linalg.inv(xtx)
    if dof > 0:
        sigma2 = rss / dof
        se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
    else:
        se = np.full(m, np.nan)

    n_times, n_nodes = problem.n_times, problem.n_nodes
    fitted = np.full((n_times, n_nodes), np.nan)
    residuals = np.full((n_times, n_nodes), np.nan)
    t_idx = problem.row_index[:, 0] - 1
    i_idx = problem.row_index[:, 1] - 1
    fitted[t_idx, i_idx] = problem.x @ gamma
    residuals[t_idx, i_idx] = resid_vec

    t_eff = n_times - spec.p
    u = np.where(np.isnan(residuals[spec.p:]), 0.0, residuals[spec.p:])
    sigma_u = u.T @ u / t_eff
    counts = problem.kept_mask.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_sq = np.where(
            counts > 0, (u**2).sum(axis=0) / np.maximum(counts, 1), 0.0
        )
    sigma_node = np.sqrt(mean_sq)
    coef = coefficients_from_gamma(spec, n_nodes, gamma, sigma=sigma_node)
    return FitResult(
        spec=spec,
        net=net,
        gamma=gamma,
        se=se,
        names=problem.column_names,
        coef=coef,
        fitted=fitted,
        residuals=residuals,
        sigma_u_hat=sigma_u,
        rss=rss,
        dof=dof,
        rank=int(rank),
        n_obs_used=n_rows,
        dropped_row_count=(n_times - spec.p) * n_nodes - n_rows,
        n_obs_per_node=counts,
        t_eff=t_eff,
        m=m,
        bic=bic_value(sigma_u, t_eff, m),
        aic=aic_value(sigma_u, t_eff, m),
        loglik=loglik_value(sigma_u, t_eff),
    )


def gls_restricted_estimate(vts: SeriesMatrix, net: Network, spec: ModelSpec,
                            sigma_tilde=None) -> np.ndarray:
    """Closed-form restricted estimator for complete data.

    Solves ``{R'(ZZ' kron S^-1)R} gamma = R'(Z kron S^-1) vec(X)`` where
    ``X`` stacks the modelled observations by column, ``Z`` the lagged
    blocks, and ``S`` is the working innovation covariance (identity by
    default, in which case the result equals the stacked OLS estimate).
    """
    vals = vts.values
    if np.isnan(vals).any():
        raise DataError("restricted GLS requires complete data")
    n_times, n_nodes = vals.shape
    p = spec.p
    if n_times <= p:
        raise InsufficientDataError(
            f"series has {n_times} rows; order {p} needs at least {p + 1}"
        )
    if sigma_tilde is None:
        s_inv = np.eye(n_nodes)
    else:
        sigma_tilde = np.asarray(sigma_tilde, dtype=float)
        if sigma_tilde.shape != (n_nodes, n_nodes):
            raise ValueError("working covariance has the wrong shape")
        s_inv = np.linalg.inv(sigma_tilde)
    x_mat = vals[p:].T
    z = np.vstack([vals[p - k: n_times - k].T for k in range(1, p + 1)])
    r_mat = constraint_matrix(net, spec)
    lhs = r_mat.T @ np.kron(z @ z.T, s_inv) @ r_mat
    rhs = r_mat.T @ np.kron(z, s_inv) @ x_mat.reshape(-1, order="F")
    return np.linalg.solve(lhs, rhs)


# ---------------------------------------------------------------------------
# univariate baseline


@dataclass(eq=False)
class ArNodeFit:
    name: str
    order: int
    coef: np.ndarray
    sigma2: float
    criterion_value: float
    n_obs: int


@dataclass(eq=False)
class ArBaselineResult:
    node_fits: list[ArNodeFit]
    forecasts: np.ndarray
    criterion: str


def _ar_candidate(x: np.ndarray, order: int, criterion: str):
    """Zero-mean AR(order) least squares; None when infeasible."""
    n = x.shape[0]
    if order == 0:
        resp = x[~np.isnan(x)]
        rows = resp.shape[0]
        if rows == 0:
            return None
        sigma2 = float(resp @ resp) / rows
        coefs = np.empty(0)
    else:
        if n <= order:
            return None
        y = x[order:]
        design = np.column_stack(
            [x[order - k: n - k] for k in range(1, order + 1)]
        )
        ok = ~np.isnan(y) & ~np.isnan(design).any(axis=1)
        rows = int(ok.sum())
        if rows < order:
            return None
        coefs, _, _, _ = np.linalg.lstsq(design[ok], y[ok], rcond=None)
        resid = y[ok] - design[ok] @ coefs
        sigma2 = float(resid @ resid) / rows
    with np.errstate(divide="ignore"):
        logs2 = np.log(sigma2) if sigma2 > 0 else -np.inf
    if criterion == "bic":
        value = logs2 + order * math.log(rows) / rows
    else:
        value = logs2 + 2.0 * order / rows
    return coefs, sigma2, value, rows


def ar_baseline(vts: SeriesMatrix, max_p: int, criterion: str = "bic",
                h: int = 1) -> ArBaselineResult:
    """Per-node zero-mean AR fits with order chosen by BIC or AIC.

    Leading missing values are stripped per node; interior rows with missing
    response or lags are dropped.  Forecasts iterate each node's recursion
    from its most recent values, which must be observed.
    """
    if criterion not in ("bic", "aic"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_p < 0:
        raise ValueError("max order must be >= 0")
    if h < 1:
        raise ValueError("forecast horizon must be >= 1")
    fits = []
    forecasts = np.empty((h, vts.n_nodes))
    for i, name in enumerate(vts.node_names):
        col = vts.values[:, i]
        obs = np.flatnonzero(~np.isnan(col))
        if obs.size == 0:
            raise InsufficientDataError(f"node {name}: no observations")
        x = col[obs[0]:]
        best = None
        for order in range(max_p + 1):
            cand = _ar_candidate(x, order, criterion)
            if cand is None:
                continue
            coefs, sigma2, value, rows = cand
            key = (value, order)
            if best is None or key < best[0]:
                best = (key, order, coefs, sigma2, rows)
        if best is None:
            raise InsufficientDataError(
                f"node {name}: series too short after stripping"
            )
        _, order, coefs, sigma2, rows = best
        fits.append(
            ArNodeFit(
                name=name,
                order=order,
                coef=coefs,
                sigma2=sigma2,
                criterion_value=best[0][0],
                n_obs=rows,
            )
        )
        recent = list(x[len(x) - order:]) if order else []
        if any(np.isnan(v) for v in recent):
            raise DataError(
                f"node {name}: most recent {order} values must be observed "
                "to forecast"
            )
        for step in range(h):
            nxt = float(
                np.dot(coefs, recent[::-1])
            ) if order else 0.0
            recent.append(nxt)
            recent = recent[-order:] if order else []
            forecasts[step, i] = nxt
    return ArBaselineResult(
        node_fits=fits, forecasts=forecasts, criterion=criterion
    )


# ---------------------------------------------------------------------------
# serialisation


def fit_result_to_json(fit_result: FitResult) -> dict:
    names = fit_result.net.node_names
    return {
        "model": model_label(fit_result.spec),
        "alpha_mode": fit_result.spec.alpha_mode,
        "coefficients": dict(
            zip(fit_result.names, fit_result.gamma.tolist())
        ),
        "se": dict(zip(fit_result.names, fit_result.se.tolist())),
        "gamma": fit_result.gamma.tolist(),
        "sigma": fit_result.coef.sigma.tolist(),
        "sigma_u_hat": fit_result.sigma_u_hat.tolist(),
        "bic": fit_result.bic,
        "aic": fit_result.aic,
        "loglik": fit_result.loglik,
        "rss": fit_result.rss,
        "dof": fit_result.dof,
        "rank": fit_result.rank,
        "n_obs_used": fit_result.n_obs_used,
        "dropped_row_count": fit_result.dropped_row_count,
        "n_obs_per_node": {
            name: int(c)
            for name, c in zip(names, fit_result.n_obs_per_node)
        },
        "t_eff": fit_result.t_eff,
        "spec": model_spec_to_json(fit_result.spec, names),
        "network": network_to_json(fit_result.net),
    }


def coefficients_from_fit_json(obj: dict):
    """Rebuild ``(net, spec, coef)`` from a serialised fit."""
    try:
        net = network_from_json(obj["network"])
        spec = model_spec_from_json(obj["spec"], net.node_names)
        gamma = np.asarray(obj["gamma"], dtype=float)
        sigma = np.asarray(obj["sigma"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fit object: {exc}") from exc
    coef = coefficients_from_gamma(spec, net.n_nodes, gamma, sigma=sigma)
    return net, spec, coef
