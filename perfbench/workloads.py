"""The four workloads: CLI arguments for one job and that job's output check.

Each ``prepare_*`` function draws a job's inputs into ``jobdir`` and returns
a :class:`Job`.  ``Job.check`` raises :class:`CheckFailed` when an output
disagrees with a reference the package ships (``connection_weights``,
``var_simulate``, a serial refit), at tolerance ``TOL`` relative to
``max(1, |value|)``; that is no looser than acceptance criterion 04.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from gnar.estimate import fit
from gnar.forecast import predict, prediction_error
from gnar.model import ModelSpec, coefficients_from_json, to_var_matrices
from gnar.netsearch import erdos_renyi
from gnar.network import connection_weights, load_network, network_to_json
from gnar.rng import RngStream
from gnar.series import SeriesMatrix
from gnar.sim import var_simulate

TOL = 1e-10
SAMPLED_CELLS = 24


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    argv: list[str]
    check: Callable[[], None]
    properties: dict[str, float]


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= TOL * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [
        [math.nan if tok == "NA" else float(tok) for tok in line.split(",")]
        for line in lines[1:] if line
    ]
    return header, np.asarray(rows, dtype=float).reshape(len(rows), -1)


# ---------------------------------------------------------------------------
# gappy-fit


def prepare_gappy_fit(rng: np.random.Generator, jobdir: Path) -> Job:
    p, stages = 2, (2, 1)
    panel = inputs.make_panel(rng, jobdir, n_nodes=100, prob=0.04,
                              n_times=250, missing_share=0.05)
    fit_path, resid_path = jobdir / "fit.json", jobdir / "residuals.csv"
    argv = [
        "fit", "--series", str(panel.series_path), "--net",
        str(panel.net_path), "--p", str(p), "--s", "2,1",
        "--out", str(fit_path), "--residuals-out", str(resid_path),
    ]
    cells_rng = np.random.default_rng(rng.integers(2**63))

    def check() -> None:
        x = panel.values
        coefs = json.loads(fit_path.read_text(encoding="utf-8"))[
            "coefficients"]
        _, resid = _read_csv(resid_path)
        if resid.shape != x.shape:
            raise CheckFailed(f"residuals shape {resid.shape} != {x.shape}")
        # a row is kept exactly when its response and own lags are observed
        kept = np.zeros(x.shape, dtype=bool)
        kept[p:] = ~np.isnan(x[p:])
        for j in range(1, p + 1):
            kept[p:] &= ~np.isnan(x[p - j: x.shape[0] - j])
        if not np.array_equal(kept, ~np.isnan(resid)):
            raise CheckFailed("kept cells differ from the own-lag rule")
        net = load_network(panel.net_path)
        cells = np.argwhere(kept)
        pick = cells_rng.choice(len(cells), SAMPLED_CELLS, replace=False)
        for t, i in cells[pick]:
            fitted = 0.0
            for j in range(1, p + 1):
                lag = x[t - j]
                fitted += coefs[f"alpha{j}"] * lag[i]
                observed = [q + 1 for q in np.flatnonzero(~np.isnan(lag))]
                for r in range(1, stages[j - 1] + 1):
                    wm = connection_weights(net, int(i) + 1, r,
                                            mask=observed)
                    reg = sum(w * lag[q - 1]
                              for (q, _), w in wm.weights.items() if w)
                    fitted += coefs[f"beta{j}.{r}"] * reg
            _close(x[t, i] - resid[t, i], fitted,
                   f"fitted cell (t={t + 1}, node={i + 1})")

    return Job(argv, check, inputs.input_properties(panel.values, p))


# ---------------------------------------------------------------------------
# order-select


def prepare_order_select(rng: np.random.Generator, jobdir: Path) -> Job:
    p, max_stage = 2, 2
    panel = inputs.make_panel(rng, jobdir, n_nodes=50, prob=0.08,
                              n_times=400)
    table_path, best_path = jobdir / "grid.csv", jobdir / "best.json"
    argv = [
        "ic-grid", "--series", str(panel.series_path), "--net",
        str(panel.net_path), "--p", str(p), "--max-stage", str(max_stage),
        "--alpha-mode", "per_node", "--out", str(table_path),
        "--best-out", str(best_path),
    ]

    def check() -> None:
        header, table = _read_csv(table_path)
        want = [(a, b) for a in range(max_stage + 1)
                for b in range(max_stage + 1)]
        got = [(int(a), int(b)) for a, b in table[:, :2]]
        if header != ["b1", "b2", "value"] or got != want:
            raise CheckFailed(f"grid rows {got} != {want}")
        if not np.all(np.isfinite(table[:, 2])):
            raise CheckFailed("criterion table holds NaN on complete data")
        best = json.loads(best_path.read_text(encoding="utf-8"))
        s = tuple(best["spec"]["s"])
        _close(best["value"], float(table[:, 2].min()), "argmin value")
        _close(best["value"], float(table[want.index(s), 2]),
               "argmin row")
        net = load_network(panel.net_path)
        spec = ModelSpec(p=p, s=s, alpha_mode="per_node")
        series = SeriesMatrix(panel.values, net.node_names)
        _close(fit(series, net, spec).bic, best["value"], "argmin refit")

    return Job(argv, check, inputs.input_properties(panel.values, p))


# ---------------------------------------------------------------------------
# net-search

SEARCH_SPECS = [{"p": 1, "s": [1]}, {"p": 2, "s": [2, 1]}]


def prepare_net_search(rng: np.random.Generator, jobdir: Path) -> Job:
    n_nodes, prob, n_networks, train_end, target = 200, 0.02, 10, 295, 300
    panel = inputs.make_panel(rng, jobdir, n_nodes=n_nodes, prob=prob,
                              n_times=target)
    specs_path = jobdir / "specs.json"
    specs_path.write_text(json.dumps(SEARCH_SPECS), encoding="utf-8")
    # fresh candidate networks per job, so no job hits another's caches
    master_seed = int(rng.integers(2**40))
    table_path, best_path = jobdir / "search.csv", jobdir / "best_net.json"
    argv = [
        "net-search", "--series", str(panel.series_path), "--specs",
        str(specs_path), "--n-networks", str(n_networks), "--prob",
        str(prob), "--master-seed", str(master_seed), "--train-end",
        str(train_end), "--target", str(target), "--table-out",
        str(table_path), "--best-net-out", str(best_path),
    ]

    def check() -> None:
        _, table = _read_csv(table_path)
        rows = [(int(a), int(b), float(e)) for a, b, e in table]
        want = {(master_seed + k, j) for k in range(n_networks)
                for j in range(len(SEARCH_SPECS))}
        if {(a, b) for a, b, _ in rows} != want or len(rows) != len(want):
            raise CheckFailed("search table does not list every candidate")
        if rows != sorted(rows, key=lambda row: (row[2], row[0], row[1])):
            raise CheckFailed("search table is not ranked")
        seed, spec_id, error = rows[0]
        names = inputs.node_names(n_nodes)
        net = erdos_renyi(seed, n_nodes, prob, names)
        if json.loads(best_path.read_text(encoding="utf-8")) != \
                network_to_json(net):
            raise CheckFailed("best network differs from its seed's draw")
        spec = ModelSpec(p=SEARCH_SPECS[spec_id]["p"],
                         s=tuple(SEARCH_SPECS[spec_id]["s"]))
        train = SeriesMatrix(panel.values[:train_end], names)
        result = fit(train, net, spec)
        pred = predict(net, spec, result.coef, train, target - train_end)
        _close(error, prediction_error(pred[-1], panel.values[target - 1]),
               "winning candidate re-scored serially")

    return Job(argv, check, inputs.input_properties(panel.values, 2))


# ---------------------------------------------------------------------------
# simulate


def prepare_simulate(rng: np.random.Generator, jobdir: Path) -> Job:
    n_nodes, n, burn_in = 50, 1000, 50
    panel = inputs.make_panel(rng, jobdir, n_nodes=n_nodes, prob=0.08,
                              n_times=None)
    spec_obj = {"p": len(inputs.STAGES), "s": list(inputs.STAGES)}
    coef_obj = {
        "alpha": [[a] for a in inputs.ALPHA],
        "beta": [[[[b]] for b in lag] for lag in inputs.BETA],
        "sigma": rng.uniform(0.5, 1.5, n_nodes).tolist(),
    }
    spec_path, coef_path = jobdir / "spec.json", jobdir / "coef.json"
    spec_path.write_text(json.dumps(spec_obj), encoding="utf-8")
    coef_path.write_text(json.dumps(coef_obj), encoding="utf-8")
    sim_seed = int(rng.integers(2**40))
    out_path = jobdir / "sim.csv"
    argv = [
        "simulate", "--net", str(panel.net_path), "--spec", str(spec_path),
        "--coef", str(coef_path), "--n", str(n), "--burn-in", str(burn_in),
        "--seed", str(sim_seed), "--out", str(out_path),
    ]

    def check() -> None:
        _, got = _read_csv(out_path)
        net = load_network(panel.net_path)
        spec = ModelSpec(p=spec_obj["p"], s=tuple(spec_obj["s"]))
        coef = coefficients_from_json(spec, n_nodes, coef_obj)
        ref = var_simulate(to_var_matrices(net, spec, coef), coef.sigma, n,
                           RngStream(sim_seed), burn_in=burn_in)
        if got.shape != ref.values.shape:
            raise CheckFailed(f"path shape {got.shape} != {ref.values.shape}")
        worst = float(np.max(np.abs(got - ref.values)))
        if not worst < TOL:
            raise CheckFailed(f"node vs lag-matrix recursion: |diff| {worst}")

    return Job(argv, check, inputs.input_properties(None, 2))


# Workloads whose time goes mostly to per-node Python loops on small arrays
# (the traced shares are in the README); their jobs are timed against the
# reference kernel with its small-array rounds.  order-select spends 82% in
# the least-squares solve and is timed against the kernel without them.
SMALL_ARRAY_WORK = {"gappy-fit", "net-search", "simulate"}

WORKLOADS: dict[str, Callable[[np.random.Generator, Path], Job]] = {
    "gappy-fit": prepare_gappy_fit,
    "order-select": prepare_order_select,
    "net-search": prepare_net_search,
    "simulate": prepare_simulate,
}
