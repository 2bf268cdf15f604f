"""Workload inputs made from the workload seed with numpy alone.

Nothing here calls the package under test: the Erdos-Renyi draw, the stage
weights and the series recursion are written out below, so a commit that
rewrites ``gnar.netsearch.erdos_renyi`` or ``gnar.sim.gnar_simulate`` still
receives bit-identical inputs.  Every job of a run gets its own generator,
``default_rng([seed, job])``, and therefore its own network, so no job can
reuse a cache filled by an earlier job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# GNAR(2, [2, 1]) with global alpha; absolute coefficient mass 0.8 < 1, so
# the sufficient stationarity bound holds on every network.
ALPHA = (0.25, 0.15)
BETA = ((0.2, 0.1), (0.1,))
STAGES = (2, 1)
BURN_IN = 100


@dataclass(frozen=True)
class Panel:
    """One generated input: the series (if any) and the file paths."""

    values: np.ndarray | None
    net_path: Path
    series_path: Path | None


def node_names(n: int) -> list[str]:
    return [f"node{i}" for i in range(1, n + 1)]


def er_adjacency(rng: np.random.Generator, n: int, prob: float) -> np.ndarray:
    """Undirected Erdos-Renyi draw as a symmetric boolean matrix."""
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    return upper | upper.T


def stage_weights(adj: np.ndarray, max_stage: int) -> list[np.ndarray]:
    """Row-normalised stage-r neighbourhood matrices for unit edge lengths.

    Stage r holds the nodes first reached in exactly r hops; with unit
    lengths every member sits at distance r, so inverse-length weights are
    uniform over the stage.
    """
    n = adj.shape[0]
    a = adj.astype(np.int64)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=np.int64)
    out = []
    for _ in range(max_stage):
        layer = ((frontier @ a) > 0) & ~reached
        reached |= layer
        frontier = layer.astype(np.int64)
        size = layer.sum(axis=1, keepdims=True)
        out.append(np.divide(layer, size, out=np.zeros((n, n)),
                             where=size > 0))
    return out


def simulate_panel(rng: np.random.Generator, adj: np.ndarray,
                   n_times: int) -> np.ndarray:
    """Node-equation recursion of the GNAR(2, [2, 1]) model above."""
    n = adj.shape[0]
    w = stage_weights(adj, max(STAGES))
    phis = []
    for j, s_j in enumerate(STAGES):
        phi = ALPHA[j] * np.eye(n)
        for r in range(s_j):
            phi = phi + BETA[j][r] * w[r]
        phis.append(phi)
    x = np.zeros((len(STAGES) + BURN_IN + n_times, n))
    noise = rng.standard_normal(x.shape)
    for t in range(len(STAGES), x.shape[0]):
        acc = noise[t].copy()
        for j, phi in enumerate(phis, start=1):
            acc += phi @ x[t - j]
        x[t] = acc
    return x[len(STAGES) + BURN_IN:]


def write_network(adj: np.ndarray, path: Path) -> None:
    n = adj.shape[0]
    rows, cols = np.nonzero(np.triu(adj, k=1))
    obj = {
        "n_nodes": n,
        "names": node_names(n),
        "directed": False,
        "C": 1,
        "edges": [
            {"from": int(i) + 1, "to": int(j) + 1, "dist": 1.0, "cov": 1}
            for i, j in zip(rows, cols)
        ],
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def write_series(values: np.ndarray, path: Path) -> None:
    lines = [",".join(node_names(values.shape[1]))]
    for row in values:
        lines.append(",".join(
            "NA" if np.isnan(v) else format(v, ".17g") for v in row.tolist()
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_panel(rng: np.random.Generator, workdir: Path, n_nodes: int,
               prob: float, n_times: int | None,
               missing_share: float = 0.0) -> Panel:
    """Draw a network and, when ``n_times`` is given, a series on it.

    ``missing_share`` blanks that share of cells independently at random.
    """
    adj = er_adjacency(rng, n_nodes, prob)
    net_path = workdir / "net.json"
    write_network(adj, net_path)
    if n_times is None:
        return Panel(None, net_path, None)
    values = simulate_panel(rng, adj, n_times)
    if missing_share > 0.0:
        values[rng.random(values.shape) < missing_share] = np.nan
    series_path = workdir / "series.csv"
    write_series(values, series_path)
    return Panel(values, net_path, series_path)


def input_properties(values: np.ndarray | None, p: int) -> dict[str, float]:
    """Missing share of the panel and distinct missingness patterns per lag.

    A pattern is the set of nodes missing in one row of a lag window
    ``values[p - j : T - j]``; the masked-reweighting cost grows with their
    number.  A workload without an input panel reports zeros.
    """
    if values is None:
        return {"input.missing_share": 0.0, "input.patterns_per_lag": 0.0}
    miss = np.isnan(values)
    n_times = miss.shape[0]
    counts = [
        np.unique(miss[p - j: n_times - j], axis=0).shape[0]
        for j in range(1, p + 1)
    ]
    return {
        "input.missing_share": float(miss.mean()),
        "input.patterns_per_lag": float(np.mean(counts)),
    }
