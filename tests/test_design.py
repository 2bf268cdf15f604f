"""Stacked-regression construction and its missing-data conventions."""

import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnar import (
    DataError,
    Edge,
    InsufficientDataError,
    ModelSpec,
    Network,
    RngStream,
    SeriesMatrix,
    build_design,
    connection_weights,
    dump_design_csv,
    gamma_from_coefficients,
    gnar_simulate,
    make_coefficients,
    neighbour_regressor,
    to_var_matrices,
    weight_matrix,
)
from conftest import make_five_net, random_instance, random_network


def simulated_series(n=200, seed=0):
    net = make_five_net()
    spec = ModelSpec(p=2, s=(1, 1))
    coef = make_coefficients(spec, 5, alpha=[0.2, 0.2], beta=[[0.2], [0.1]],
                             sigma=1.0)
    return net, spec, gnar_simulate(net, spec, coef, n=n, rng=RngStream(seed))


# --- neighbour_regressor ------------------------------------------------------


def test_neighbour_regressor_single_member():
    net = make_five_net()
    wm = connection_weights(net, 4, 1)  # D: thirds over A, B, C
    values = np.array([1.0, 2.0, 3.0, 99.0, 5.0])
    assert neighbour_regressor(values, wm) == pytest.approx(2.0)


def test_neighbour_regressor_renormalizes_over_observed():
    net = make_five_net()
    wm = connection_weights(net, 1, 1)  # A: {D: .5, E: .5}
    values = np.array([0.0, 0.0, 0.0, 4.0, np.nan])
    assert neighbour_regressor(values, wm) == pytest.approx(4.0)


def test_neighbour_regressor_all_missing_gives_zero():
    net = make_five_net()
    wm = connection_weights(net, 1, 1)
    values = np.array([0.0, 0.0, 0.0, np.nan, np.nan])
    assert neighbour_regressor(values, wm) == 0.0


def test_neighbour_regressor_empty_weight_map():
    net = Network(n_nodes=2)  # no edges at all
    wm = connection_weights(net, 1, 1)
    assert neighbour_regressor(np.array([1.0, 2.0]), wm) == 0.0


# --- shapes and ordering --------------------------------------------------------


def test_design_shape_fully_observed():
    net, spec, vts = simulated_series()
    problem = build_design(vts, net, spec)
    assert problem.y.shape == (990,)
    assert problem.x.shape == (990, 4)
    assert problem.n_rows == 990
    assert problem.column_names == ["alpha1", "beta1.1", "alpha2", "beta2.1"]
    assert problem.kept_mask.all()
    # rows run t-major, node-minor, with 1-based time indices from p+1
    assert problem.row_index[0].tolist() == [3, 1]
    assert problem.row_index[5].tolist() == [4, 1]
    assert problem.row_index[-1].tolist() == [200, 5]


def test_design_alpha_columns_are_own_lags():
    net, spec, vts = simulated_series(n=50)
    problem = build_design(vts, net, spec)
    for row in range(0, problem.n_rows, 7):
        t, i = problem.row_index[row]
        assert problem.y[row] == vts.values[t - 1, i - 1]
        assert problem.x[row, 0] == vts.values[t - 2, i - 1]
        assert problem.x[row, 2] == vts.values[t - 3, i - 1]


def test_stage_zero_spec_has_no_beta_columns():
    net, _, vts = simulated_series(n=30)
    spec = ModelSpec(p=2, s=(0, 0))
    problem = build_design(vts, net, spec)
    assert problem.x.shape == (140, 2)
    assert problem.column_names == ["alpha1", "alpha2"]


def test_too_short_series_raises():
    net = make_five_net()
    vts = SeriesMatrix(np.zeros((2, 5)), net.node_names)
    with pytest.raises(InsufficientDataError):
        build_design(vts, net, ModelSpec(p=2, s=(0, 0)))


def test_name_mismatch_raises():
    net = make_five_net()
    vts = SeriesMatrix(np.zeros((9, 5)), ("A", "B", "C", "D", "X"))
    with pytest.raises(ValueError):
        build_design(vts, net, ModelSpec(p=1, s=(0,)))


# --- missing-data conventions ----------------------------------------------------


def masked_series(t_lo=49, t_hi=150):
    """Node C unobserved for time indices 50..150 (1-based)."""
    net, spec, vts = simulated_series()
    values = vts.values.copy()
    values[t_lo:t_hi, 2] = np.nan
    return net, spec, SeriesMatrix(values, vts.node_names)


def test_rows_dropped_iff_response_or_own_lag_missing():
    net, spec, vts = masked_series()
    problem = build_design(vts, net, spec)
    miss = np.isnan(vts.values)
    p = spec.p
    kept = problem.kept_mask.ravel()
    k = 0
    for t in range(p + 1, 201):
        for i in range(1, 6):
            own_missing = any(miss[t - 1 - j, i - 1] for j in range(1, p + 1))
            want_keep = not (miss[t - 1, i - 1] or own_missing)
            assert kept[k] == want_keep, (t, i)
            k += 1
    assert (~problem.kept_mask[:, 2]).sum() > 0
    # neighbour D never loses a row: its own history is complete
    assert problem.kept_mask[:, 3].all()
    # retained rows carry no missing values anywhere
    assert np.isfinite(problem.y).all()
    assert np.isfinite(problem.x).all()
    assert problem.n_rows == kept.sum()


def test_neighbour_columns_renormalize_against_oracle():
    net, spec, vts = masked_series()
    problem = build_design(vts, net, spec)
    values = vts.values
    rows = problem.row_index
    for row in range(0, problem.n_rows, 11):
        t, i = rows[row]
        for lag, col in ((1, 1), (2, 3)):
            at = values[t - 1 - lag]
            obs = tuple(int(q + 1) for q in np.flatnonzero(~np.isnan(at)))
            wm = connection_weights(net, int(i), 1, mask=obs)
            want = neighbour_regressor(at, wm)
            assert problem.x[row, col] == pytest.approx(want, abs=1e-14)


def test_wholly_missing_stage_contributes_zero_but_keeps_row():
    # E's only stage-1 neighbour is A; hide A at one time point
    net, spec, vts = simulated_series(n=30)
    values = vts.values.copy()
    values[9, 0] = np.nan  # A missing at t=10
    problem = build_design(SeriesMatrix(values, vts.node_names), net, spec)
    row = np.flatnonzero(
        (problem.row_index[:, 0] == 11) & (problem.row_index[:, 1] == 5)
    )
    assert row.size == 1
    assert problem.x[row[0], 1] == 0.0


def test_infinite_cell_raises_naming_time_and_node():
    net, spec, vts = simulated_series(n=30)
    values = vts.values.copy()
    values[6, 3] = -np.inf
    with pytest.raises(DataError, match=r"time 7, node 'D'"):
        build_design(SeriesMatrix(values, vts.node_names), net, spec)


def _stage_column_layout(spec):
    """``(column, lag, stage, covariate)`` of each global-mode beta column."""
    layout, col = [], 0
    for j in range(1, spec.p + 1):
        col += 1  # alpha_j
        for r in range(1, spec.s[j - 1] + 1):
            for c in range(1, spec.n_cov + 1):
                layout.append((col, j, r, c))
                col += 1
    return layout


@given(st.integers(min_value=0, max_value=10_000), st.booleans(),
       st.integers(min_value=1, max_value=2),
       st.sampled_from([0.05, 0.2, 0.4]))
def test_stage_columns_match_masked_connection_weights(seed, directed, n_cov,
                                                       miss):
    rng = RngStream(seed)
    n_nodes = 3 + int(rng.uniform() * 5)
    net = random_network(rng, n_nodes, n_cov=n_cov, directed=directed)
    p = 1 + int(rng.uniform() * 2)
    # stages up to 4 on at most 7 nodes leave many deeper stages empty
    spec = ModelSpec(p=p, s=tuple(1 + int(rng.uniform() * 4)
                                  for _ in range(p)), n_cov=n_cov)
    n_times = 16
    full = rng.gaussians(n_times * n_nodes).reshape(n_times, n_nodes)
    layout = _stage_column_layout(spec)

    # complete panel: the plain unmasked product, bit for bit
    problem = build_design(SeriesMatrix(full, net.node_names), net, spec)
    want = problem.x.copy()
    for col, j, r, c in layout:
        lag = full[p - j: n_times - j]
        want[:, col] = (lag @ weight_matrix(net, r, c).T).reshape(-1)
    assert problem.x.tobytes() == want.tobytes()

    # random gaps, plus one time row observed at a single node so that
    # node's every stage is wholly unobserved there
    values = full.copy()
    values[rng.uniforms(values.size).reshape(values.shape) < miss] = np.nan
    t_hidden = int(rng.uniform() * n_times)
    keep = int(rng.uniform() * n_nodes)
    values[t_hidden, np.arange(n_nodes) != keep] = np.nan
    problem = build_design(SeriesMatrix(values, net.node_names), net, spec)
    for row, (t, i) in enumerate(problem.row_index):
        for col, j, r, c in layout:
            lag_row = values[t - 1 - j]
            observed = tuple(int(q) + 1
                             for q in np.flatnonzero(~np.isnan(lag_row)))
            wm = connection_weights(net, int(i), r, mask=observed)
            oracle = neighbour_regressor(lag_row, wm, cov=c)
            assert abs(problem.x[row, col] - oracle) <= 1e-12


def test_all_rows_dropped_raises():
    net = make_five_net()
    values = np.full((6, 5), np.nan)
    with pytest.raises(InsufficientDataError):
        build_design(SeriesMatrix(values, net.node_names), net,
                     ModelSpec(p=1, s=(1,)))


# --- equivalences -------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=100))
def test_design_reproduces_var_mean(seed):
    net, spec, coef = random_instance(seed, n_cov=1 + seed % 2)
    vts = gnar_simulate(net, spec, coef, n=30, rng=RngStream(seed))
    problem = build_design(vts, net, spec)
    gamma = gamma_from_coefficients(spec, coef)
    phis = to_var_matrices(net, spec, coef)
    mean = problem.x @ gamma
    for row in range(problem.n_rows):
        t, i = problem.row_index[row]
        want = sum(
            phis[j - 1][i - 1] @ vts.values[t - 1 - j]
            for j in range(1, spec.p + 1)
        )
        assert mean[row] == pytest.approx(want, abs=1e-12)


def test_relabeling_equivariance():
    # renaming node k to position perm[k-1] permutes rows within each time
    # block and leaves the global-model design values unchanged
    net, spec, vts = simulated_series(n=40)
    pos = np.array([3, 1, 5, 2, 4]) - 1  # old node k -> new index pos[k-1]
    new_edges = tuple(
        Edge(int(pos[e.from_id - 1]) + 1, int(pos[e.to_id - 1]) + 1,
             e.dist, e.cov)
        for e in net.edges
    )
    names = [""] * 5
    for old in range(5):
        names[pos[old]] = net.node_names[old]
    order = np.argsort(pos)  # new column j holds old column order[j]
    net2 = Network(n_nodes=5, edges=new_edges, node_names=tuple(names))
    vts2 = SeriesMatrix(vts.values[:, order], tuple(names))
    a = build_design(vts, net, spec)
    b = build_design(vts2, net2, spec)
    assert a.n_rows == b.n_rows
    for blk in range(a.n_rows // 5):
        sl = slice(5 * blk, 5 * blk + 5)
        assert np.allclose(a.x[sl], b.x[sl][pos], atol=1e-12)
        assert np.allclose(a.y[sl], b.y[sl][pos], atol=0)


def test_dump_design_csv(tmp_path):
    net, spec, vts = simulated_series(n=20)
    problem = build_design(vts, net, spec)
    path = tmp_path / "design.csv"
    dump_design_csv(problem, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "node", "y", "alpha1", "beta1.1", "alpha2",
                       "beta2.1"]
    assert len(rows) == problem.n_rows + 1
    assert float(rows[1][2]) == problem.y[0]
