"""Tests for iterated forecasts and forecast scoring."""

import numpy as np
import pytest
from conftest import make_five_net, random_instance
from hypothesis import given, strategies as st

from gnar import (
    DataError,
    InsufficientDataError,
    ModelSpec,
    RngStream,
    SeriesMatrix,
    gamma_from_coefficients,
    make_coefficients,
    predict,
    prediction_error,
    to_var_matrices,
)


def _history(net, spec, seed, extra_rows=0):
    rows = spec.p + extra_rows
    vals = RngStream(seed).uniforms(rows * net.n_nodes)
    return vals.reshape(rows, net.n_nodes) + 0.5


def test_one_step_forecast_is_the_lag_polynomial():
    for seed in range(10):
        net, spec, coef = random_instance(seed, max_nodes=6, max_p=3)
        hist = _history(net, spec, seed + 40, extra_rows=2)
        phis = to_var_matrices(net, spec, coef)
        expected = sum(
            phi @ hist[-j] for j, phi in enumerate(phis, start=1)
        )
        got = predict(net, spec, coef, hist, h=1)
        assert got.shape == (1, net.n_nodes)
        assert np.max(np.abs(got[0] - expected)) < 1e-12


@given(st.integers(min_value=0, max_value=200))
def test_predict_equals_var_route(seed):
    alpha_mode = ("global", "per_node", "per_group")[seed % 3]
    net, spec, coef = random_instance(seed, n_cov=1 + seed % 2,
                                      alpha_mode=alpha_mode)
    hist = _history(net, spec, seed + 300, extra_rows=1)
    phis = to_var_matrices(net, spec, coef)
    x = list(hist)
    for _ in range(4):
        x.append(sum(phi @ x[-j] for j, phi in enumerate(phis, start=1)))
    got = predict(net, spec, coef, hist, h=4)
    assert np.max(np.abs(got - np.array(x[-4:]))) < 1e-12


def test_pure_autoregression_decays_geometrically():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,))
    coef = make_coefficients(spec, 5, alpha=[0.5], beta=[[]], sigma=0.0)
    hist = _history(net, spec, 3)
    out = predict(net, spec, coef, hist, h=6)
    for k in range(6):
        assert np.array_equal(out[k], 0.5 ** (k + 1) * hist[-1])


def test_zero_history_forecasts_zero():
    net, spec, coef = random_instance(4, max_nodes=5, max_p=2)
    hist = np.zeros((spec.p + 1, net.n_nodes))
    out = predict(net, spec, coef, hist, h=4)
    assert np.all(out == 0.0)


def test_longer_horizons_extend_shorter_ones():
    for seed in (0, 3, 7):
        net, spec, coef = random_instance(seed, max_nodes=6, max_p=3)
        hist = _history(net, spec, seed + 11)
        one = predict(net, spec, coef, hist, h=1)
        two = predict(net, spec, coef, hist, h=2)
        assert np.array_equal(two[0], one[0])
        assert np.array_equal(predict(net, spec, coef, hist, h=5)[:2], two)


def test_forecasts_from_stable_coefficients_decay():
    for seed in range(5):
        net, spec, coef = random_instance(seed, max_nodes=6, max_p=2,
                                          margin_below=0.9)
        hist = _history(net, spec, seed + 70)
        out = predict(net, spec, coef, hist, h=200)
        assert np.max(np.abs(out[-1])) < 1e-6 * np.max(np.abs(hist))


def test_forecast_is_linear_in_the_history():
    net, spec, coef = random_instance(6, max_nodes=6, max_p=2)
    hist = _history(net, spec, 29, extra_rows=1)
    base = predict(net, spec, coef, hist, h=3)
    doubled = predict(net, spec, coef, 2.0 * hist, h=3)
    assert np.array_equal(doubled, 2.0 * base)
    tripled = predict(net, spec, coef, 3.0 * hist, h=3)
    assert np.max(np.abs(tripled - 3.0 * base)) < 1e-12


def test_series_matrix_and_array_histories_agree():
    net, spec, coef = random_instance(8, max_nodes=5, max_p=2)
    hist = _history(net, spec, 51, extra_rows=2)
    as_series = SeriesMatrix(hist, net.node_names)
    assert np.array_equal(
        predict(net, spec, coef, as_series, h=3),
        predict(net, spec, coef, hist, h=3),
    )


def test_missing_cell_in_the_forecast_window_is_an_error():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(1, 1))
    coef = make_coefficients(spec, 5, alpha=[0.3, 0.2],
                             beta=[[0.2], [0.1]], sigma=0.0)
    hist = _history(net, spec, 9, extra_rows=3)
    broken = hist.copy()
    broken[-1, 2] = np.nan
    with pytest.raises(DataError, match="own lag 1 of node C"):
        predict(net, spec, coef, broken, h=1)
    broken = hist.copy()
    broken[-2, 4] = np.nan
    with pytest.raises(DataError, match="own lag 2 of node E"):
        predict(net, spec, coef, broken, h=3)
    broken = hist.copy()
    broken[-1, 3] = np.nan
    broken[-2, 1] = np.nan
    with pytest.raises(DataError, match="own lag 2 of node B is missing"):
        predict(net, spec, coef, broken, h=2)
    broken = hist.copy()
    broken[-1, 0] = np.inf
    with pytest.raises(DataError, match="own lag 1 of node A is not finite"):
        predict(net, spec, coef, broken, h=1)


def test_missing_cells_before_the_window_are_ignored():
    net, spec, coef = random_instance(5, max_nodes=5, max_p=2)
    hist = _history(net, spec, 33, extra_rows=4)
    holed = hist.copy()
    holed[: -spec.p] = np.nan
    assert np.array_equal(
        predict(net, spec, coef, holed, h=3),
        predict(net, spec, coef, hist[-spec.p:], h=3),
    )


def test_forecast_argument_validation():
    net, spec, coef = random_instance(1, max_nodes=5, max_p=2)
    hist = _history(net, spec, 2)
    with pytest.raises(ValueError):
        predict(net, spec, coef, hist, h=0)
    with pytest.raises(InsufficientDataError):
        predict(net, spec, coef, hist[: spec.p - 1], h=1)
    with pytest.raises(ValueError):
        predict(net, spec, coef, hist[:, : net.n_nodes - 1], h=1)


def test_prediction_error_examples():
    flat = np.zeros((7, 5))
    assert prediction_error(flat, flat) == 0.0
    assert prediction_error(flat + 1.0, flat) == 35.0
    pred = np.array([[1.0, 2.0, 3.0]])
    actual = np.array([[0.0, np.nan, 1.0]])
    assert prediction_error(pred, actual) == 5.0
    with pytest.raises(DataError):
        prediction_error(pred, np.full((1, 3), np.nan))
    with pytest.raises(ValueError):
        prediction_error(pred, np.zeros((2, 3)))


def test_prediction_error_accepts_series_actuals():
    pred = np.array([[1.0, 1.0], [2.0, 2.0]])
    actual = SeriesMatrix(np.array([[1.0, 0.0], [2.0, np.nan]]),
                          ("n1", "n2"))
    assert prediction_error(pred, actual) == 1.0


def test_noiseless_simulation_is_forecastable():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(2, 1))
    coef = make_coefficients(spec, 5, alpha=[0.4, 0.2],
                             beta=[[0.15, 0.1], [0.05]], sigma=0.0)
    truth = gamma_from_coefficients(spec, coef)
    assert truth.shape == (5,)
    phis = to_var_matrices(net, spec, coef)
    x = np.empty((30, 5))
    x[:2] = _history(net, spec, 77)
    for t in range(2, 30):
        x[t] = phis[0] @ x[t - 1] + phis[1] @ x[t - 2]
    out = predict(net, spec, coef, x[:20], h=10)
    assert np.max(np.abs(out - x[20:])) < 1e-10
