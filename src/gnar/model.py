"""Model orders, coefficient containers, and their linear-map forms.

A model of order ``(p, s)`` regresses each node on its own lags 1..p and,
for lag ``j``, on stage-1..s_j weighted neighbour sums, optionally split by
covariate channel.  The autoregressive ``alpha`` terms are shared globally,
per node, or per node group; the neighbour ``beta`` terms are shared
globally (also in per-node mode) or per group.

The flattened parameter vector ``gamma`` uses one fixed ordering everywhere:
lag-major; within a lag the alpha block precedes the beta block; the beta
block ascends by stage, then covariate, then unit (node/group); units are
node index order or sorted group labels.  Display names follow the same
layout: ``alpha1``, ``beta1.1``, ``alpha2``, ... with suffix ``nodeK`` in
per-node mode and a quoted group label in per-group mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError
from .network import Network, weight_matrix

AlphaMode = Literal["global", "per_node", "per_group"]
_ALPHA_MODES = ("global", "per_node", "per_group")


@dataclass(frozen=True)
class ModelSpec:
    """Order and sharing structure of a network autoregression.

    ``s`` has one entry per lag: the maximum neighbour stage used at that
    lag (0 disables neighbour terms for the lag).  ``groups`` maps node id
    to a group label and is required exactly in per-group mode.
    """

    p: int
    s: tuple[int, ...]
    n_cov: int = 1
    alpha_mode: AlphaMode = "global"
    groups: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        s = tuple(int(v) for v in self.s)
        if len(s) != self.p:
            raise ValueError(f"s must list {self.p} stages, got {len(s)}")
        if any(v < 0 for v in s):
            raise ValueError("neighbour stages must be >= 0")
        if self.n_cov < 1:
            raise ValueError("covariate cardinality must be >= 1")
        if self.alpha_mode not in _ALPHA_MODES:
            raise ValueError(f"unknown alpha mode {self.alpha_mode!r}")
        groups = self.groups
        if groups is not None:
            if isinstance(groups, Mapping):
                items = groups.items()
            else:
                items = groups
            groups = tuple(sorted((int(k), str(v)) for k, v in items))
            ids = [k for k, _ in groups]
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate node id in groups")
        if self.alpha_mode == "per_group" and not groups:
            raise ValueError("per-group mode needs a node-to-group map")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "groups", groups)

    @property
    def max_stage(self) -> int:
        return max(self.s) if self.s else 0


def model_label(spec: ModelSpec) -> str:
    return f"GNAR({spec.p},[{','.join(str(v) for v in spec.s)}])"


def group_labels(spec: ModelSpec) -> tuple[str, ...]:
    if not spec.groups:
        return ()
    return tuple(sorted({label for _, label in spec.groups}))


def node_group_index(spec: ModelSpec, n_nodes: int) -> np.ndarray:
    """Index of each node's group among the sorted labels (per-group mode)."""
    labels = group_labels(spec)
    lookup = {label: g for g, label in enumerate(labels)}
    mapping = dict(spec.groups or ())
    idx = np.empty(n_nodes, dtype=int)
    for node in range(1, n_nodes + 1):
        if node not in mapping:
            raise ValueError(f"node {node} has no group label")
        idx[node - 1] = lookup[mapping[node]]
    return idx


def n_alpha_units(spec: ModelSpec, n_nodes: int) -> int:
    if spec.alpha_mode == "global":
        return 1
    if spec.alpha_mode == "per_node":
        return n_nodes
    return len(group_labels(spec))


def n_beta_units(spec: ModelSpec) -> int:
    return len(group_labels(spec)) if spec.alpha_mode == "per_group" else 1


def param_count(spec: ModelSpec, n_nodes: int) -> int:
    """Length of the flattened parameter vector."""
    sum_s = sum(spec.s)
    if spec.alpha_mode == "global":
        return spec.p + spec.n_cov * sum_s
    if spec.alpha_mode == "per_node":
        return n_nodes * spec.p + spec.n_cov * sum_s
    g = len(group_labels(spec))
    return g * (spec.p + spec.n_cov * sum_s)


def parameter_names(spec: ModelSpec, n_nodes: int) -> list[str]:
    """Display names aligned with the flattened parameter ordering."""
    labels = group_labels(spec)
    names: list[str] = []
    for j in range(1, spec.p + 1):
        if spec.alpha_mode == "global":
            names.append(f"alpha{j}")
        elif spec.alpha_mode == "per_node":
            names.extend(f"alpha{j}node{k}" for k in range(1, n_nodes + 1))
        else:
            names.extend(f"alpha{j} '{g}'" for g in labels)
        for r in range(1, spec.s[j - 1] + 1):
            for c in range(1, spec.n_cov + 1):
                base = f"beta{j}.{r}" if spec.n_cov == 1 else f"beta{j}.{r}.{c}"
                if spec.alpha_mode == "per_group":
                    names.extend(f"{base} '{g}'" for g in labels)
                else:
                    names.append(base)
    return names


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Model coefficients in unit-compact form.

    ``alpha`` is ``(p, units)`` with units = 1 (global), N (per node) or
    G (per group, sorted labels).  ``beta[j]`` is ``(s_j, C, units)`` with
    units = 1 except in per-group mode.  ``sigma`` holds per-node innovation
    standard deviations (non-negative; zero means a noiseless node).
    """

    alpha: np.ndarray
    beta: tuple[np.ndarray, ...]
    sigma: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.sigma.shape[0]


def make_coefficients(spec: ModelSpec, n_nodes: int, alpha, beta,
                      sigma=None) -> CoefficientSet:
    """Validate and coerce nested-list/array coefficients."""
    units_a = n_alpha_units(spec, n_nodes)
    units_b = n_beta_units(spec)
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 1 and units_a == 1:
        a = a.reshape(spec.p, 1)
    if a.shape != (spec.p, units_a):
        raise ValueError(
            f"alpha must have shape ({spec.p}, {units_a}), got {a.shape}"
        )
    if isinstance(beta, np.ndarray) and beta.ndim <= 2 and spec.p == 1:
        beta = [beta]
    if len(beta) != spec.p:
        raise ValueError(f"beta must list {spec.p} per-lag blocks")
    blocks = []
    for j, block in enumerate(beta):
        b = np.asarray(block, dtype=float)
        s_j = spec.s[j]
        if b.size == 0:
            b = b.reshape(s_j, spec.n_cov, units_b) if s_j == 0 else b
        if b.ndim == 1 and spec.n_cov == 1 and units_b == 1:
            b = b.reshape(-1, 1, 1)
        elif b.ndim == 2 and units_b == 1:
            b = b.reshape(b.shape[0], b.shape[1], 1)
        elif b.ndim == 2 and spec.n_cov == 1 and b.shape == (s_j, units_b):
            b = b.reshape(s_j, 1, units_b)
        if b.shape != (s_j, spec.n_cov, units_b):
            raise ValueError(
                f"beta block for lag {j + 1} must have shape "
                f"({s_j}, {spec.n_cov}, {units_b}), got {b.shape}"
            )
        blocks.append(b)
    if sigma is None:
        sig = np.ones(n_nodes)
    else:
        sig = np.asarray(sigma, dtype=float)
        if sig.ndim == 0:
            sig = np.full(n_nodes, float(sig))
    if sig.shape != (n_nodes,):
        raise ValueError(f"sigma must have shape ({n_nodes},)")
    if np.any(~np.isfinite(sig)) or np.any(sig < 0):
        raise ValueError("sigma entries must be finite and non-negative")
    for arr in [a, *blocks]:
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
    return CoefficientSet(alpha=a, beta=tuple(blocks), sigma=sig)


def alpha_by_node(spec: ModelSpec, coef: CoefficientSet,
                  n_nodes: int) -> np.ndarray:
    """Per-node alpha values, shape ``(p, N)``."""
    if spec.alpha_mode == "global":
        return np.repeat(coef.alpha, n_nodes, axis=1)
    if spec.alpha_mode == "per_node":
        return coef.alpha
    idx = node_group_index(spec, n_nodes)
    return coef.alpha[:, idx]


def beta_by_node(spec: ModelSpec, coef: CoefficientSet,
                 n_nodes: int) -> list[np.ndarray]:
    """Per-node beta values, one ``(s_j, C, N)`` block per lag."""
    out = []
    if spec.alpha_mode == "per_group":
        idx = node_group_index(spec, n_nodes)
        for block in coef.beta:
            out.append(block[:, :, idx])
    else:
        for block in coef.beta:
            out.append(np.repeat(block, n_nodes, axis=2))
    return out


class StationarityCheck(NamedTuple):
    margins: np.ndarray
    sufficient_condition_holds: bool


def stationarity_margin(spec: ModelSpec,
                        coef: CoefficientSet) -> StationarityCheck:
    """Per-node absolute coefficient mass; all below 1 is sufficient for a
    stationary solution (the converse does not hold)."""
    n = coef.n_nodes
    margins = np.abs(alpha_by_node(spec, coef, n)).sum(axis=0)
    for block in beta_by_node(spec, coef, n):
        if block.size:
            margins = margins + np.abs(block).sum(axis=(0, 1))
    return StationarityCheck(
        margins=margins,
        sufficient_condition_holds=bool(np.all(margins < 1.0)),
    )


def stage_weights(net: Network,
                  spec: ModelSpec) -> dict[tuple[int, int], np.ndarray]:
    """Unmasked ``W[r, c] = weight_matrix(net, r, c)`` for every stage and
    covariate channel the model uses, keyed by ``(r, c)``."""
    return {
        (r, c): weight_matrix(net, r, c)
        for r in range(1, spec.max_stage + 1)
        for c in range(1, spec.n_cov + 1)
    }


def _node_equation(net: Network, spec: ModelSpec, coef: CoefficientSet):
    """The node equation without its innovation, for all nodes at once.

    Returns ``step(lags)`` with ``lags[j - 1] = x_{t-j}``, computing
    ``sum_j a_j * x_{t-j} + sum_{j,r,c} b_{j,r,c} * (W[r, c] @ x_{t-j})``
    with per-node ``a``, ``b``: a stage-by-stage recursion that never forms
    the lag matrices of :func:`to_var_matrices`.
    """
    n = net.n_nodes
    if coef.n_nodes != n:
        raise ValueError("coefficient set and network disagree on node count")
    if spec.n_cov != net.n_cov:
        raise ValueError("model and network disagree on covariate count")
    a = alpha_by_node(spec, coef, n)
    b = beta_by_node(spec, coef, n)
    w = stage_weights(net, spec)
    terms = [
        (a[j], [(b[j][r - 1, c - 1], w[(r, c)])
                for r in range(1, spec.s[j] + 1)
                for c in range(1, spec.n_cov + 1)])
        for j in range(spec.p)
    ]

    def step(lags) -> np.ndarray:
        acc = np.zeros(n)
        for (a_j, neighbours), row in zip(terms, lags):
            acc = acc + a_j * row
            for b_jrc, w_rc in neighbours:
                acc = acc + b_jrc * (w_rc @ row)
        return acc

    return step


def to_var_matrices(net: Network, spec: ModelSpec,
                    coef: CoefficientSet) -> list[np.ndarray]:
    """Lag matrices ``phi_1..phi_p`` of the equivalent linear recursion:
    ``phi_j = diag(alpha_j) + sum_{r,c} diag(beta_{j,r,c}) W^{(r,c)}``."""
    n = net.n_nodes
    if coef.n_nodes != n:
        raise ValueError("coefficient set and network disagree on node count")
    if spec.n_cov != net.n_cov:
        raise ValueError("model and network disagree on covariate count")
    a = alpha_by_node(spec, coef, n)
    b = beta_by_node(spec, coef, n)
    w = stage_weights(net, spec)
    phis = []
    for j in range(spec.p):
        phi = np.diag(a[j])
        for r in range(1, spec.s[j] + 1):
            for c in range(1, spec.n_cov + 1):
                phi = phi + b[j][r - 1, c - 1][:, None] * w[(r, c)]
        phis.append(phi)
    return phis


def companion_matrix(phis: Sequence[np.ndarray]) -> np.ndarray:
    """Block companion form of a lag-matrix list: top block row
    ``[phi_1 ... phi_p]`` above a shifted identity."""
    phis = [np.asarray(m, dtype=float) for m in phis]
    if not phis:
        raise ValueError("need at least one lag matrix")
    n = phis[0].shape[0]
    for m in phis:
        if m.shape != (n, n):
            raise ValueError("lag matrices must share one square shape")
    p = len(phis)
    comp = np.zeros((n * p, n * p))
    comp[:n, :] = np.hstack(phis)
    if p > 1:
        comp[n:, :-n] = np.eye(n * (p - 1))
    return comp


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue iteration failed to converge: {exc}"
        ) from exc
    return float(np.max(np.abs(eig)))


def constraint_matrix(net: Network, spec: ModelSpec) -> np.ndarray:
    """Matrix ``R`` with ``vec([phi_1 ... phi_p]) = R @ gamma`` (column-major
    vec), columns in the flattened parameter ordering."""
    n = net.n_nodes
    m_total = param_count(spec, n)
    labels = group_labels(spec)
    if spec.alpha_mode == "per_group":
        gidx = node_group_index(spec, n)
    w = stage_weights(net, spec)
    r_mat = np.zeros((spec.p * n * n, m_total))
    col = 0
    for j in range(spec.p):
        block = slice(j * n * n, (j + 1) * n * n)

        def put(mat):
            nonlocal col
            r_mat[block, col] = mat.reshape(-1, order="F")
            col += 1

        if spec.alpha_mode == "global":
            put(np.eye(n))
        elif spec.alpha_mode == "per_node":
            for k in range(n):
                d = np.zeros((n, n))
                d[k, k] = 1.0
                put(d)
        else:
            for g in range(len(labels)):
                put(np.diag((gidx == g).astype(float)))
        for r in range(1, spec.s[j] + 1):
            for c in range(1, spec.n_cov + 1):
                if spec.alpha_mode == "per_group":
                    for g in range(len(labels)):
                        put(w[(r, c)] * (gidx == g)[:, None])
                else:
                    put(w[(r, c)])
    return r_mat


def gamma_from_coefficients(spec: ModelSpec,
                            coef: CoefficientSet) -> np.ndarray:
    """Flatten a coefficient set into the canonical parameter vector."""
    parts = []
    for j in range(spec.p):
        parts.append(coef.alpha[j])
        if coef.beta[j].size:
            parts.append(coef.beta[j].ravel())
    return np.concatenate(parts) if parts else np.empty(0)


def coefficients_from_gamma(spec: ModelSpec, n_nodes: int, gamma,
                            sigma=None) -> CoefficientSet:
    """Inverse of :func:`gamma_from_coefficients`."""
    gamma = np.asarray(gamma, dtype=float).ravel()
    m_total = param_count(spec, n_nodes)
    if gamma.shape != (m_total,):
        raise ValueError(f"expected {m_total} parameters, got {gamma.shape}")
    units_a = n_alpha_units(spec, n_nodes)
    units_b = n_beta_units(spec)
    alpha = np.empty((spec.p, units_a))
    beta = []
    pos = 0
    for j in range(spec.p):
        alpha[j] = gamma[pos:pos + units_a]
        pos += units_a
        size = spec.s[j] * spec.n_cov * units_b
        beta.append(
            gamma[pos:pos + size].reshape(spec.s[j], spec.n_cov, units_b)
        )
        pos += size
    return make_coefficients(spec, n_nodes, alpha, beta, sigma)


# ---------------------------------------------------------------------------
# serialisation


def model_spec_to_json(spec: ModelSpec,
                       node_names: Sequence[str] | None = None) -> dict:
    obj = {
        "p": spec.p,
        "s": list(spec.s),
        "C": spec.n_cov,
        "alpha_mode": spec.alpha_mode,
    }
    if spec.groups is not None:
        if node_names is not None:
            obj["groups"] = {
                node_names[k - 1]: v for k, v in spec.groups
            }
        else:
            obj["groups"] = {str(k): v for k, v in spec.groups}
    return obj


def model_spec_from_json(obj: dict,
                         node_names: Sequence[str] | None = None) -> ModelSpec:
    try:
        groups_raw = obj.get("groups")
        groups = None
        if groups_raw is not None:
            groups = []
            for key, label in groups_raw.items():
                if node_names is not None and key in node_names:
                    node = node_names.index(key) + 1
                else:
                    node = int(key)
                groups.append((node, str(label)))
        return ModelSpec(
            p=int(obj["p"]),
            s=tuple(int(v) for v in obj["s"]),
            n_cov=int(obj.get("C", 1)),
            alpha_mode=str(obj.get("alpha_mode", "global")),
            groups=tuple(groups) if groups is not None else None,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model spec object: {exc}") from exc


def coefficients_to_json(spec: ModelSpec, coef: CoefficientSet) -> dict:
    return {
        "alpha": coef.alpha.tolist(),
        "beta": [b.tolist() for b in coef.beta],
        "sigma": coef.sigma.tolist(),
    }


def coefficients_from_json(spec: ModelSpec, n_nodes: int,
                           obj: dict) -> CoefficientSet:
    try:
        return make_coefficients(
            spec, n_nodes, obj["alpha"], obj["beta"], obj.get("sigma")
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient object: {exc}") from exc
