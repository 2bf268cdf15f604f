"""Simulation routes: node recursion, VAR recursion, and their agreement.

The two simulators are written independently on purpose (per-node loop vs
matrix recursion) and must agree bit-for-bit up to float accumulation order
because they consume the same noise stream.  Heavier property tests drive
``var_simulate`` only, relying on the equivalence tests here to transfer the
result to ``gnar_simulate``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnar import (
    ModelSpec,
    RngStream,
    SeriesMatrix,
    StationarityWarning,
    gnar_simulate,
    make_coefficients,
    to_var_matrices,
    var_simulate,
)
from conftest import make_five_net, random_instance


def stationary_example():
    spec = ModelSpec(p=2, s=(1, 0))
    coef = make_coefficients(spec, 5, alpha=[0.2, 0.3], beta=[[0.3], []],
                             sigma=1.0)
    return make_five_net(), spec, coef


@given(st.integers(min_value=0, max_value=200))
def test_gnar_equals_var_route(seed):
    net, spec, coef = random_instance(seed, n_cov=1 + seed % 2)
    x = gnar_simulate(net, spec, coef, n=40, rng=RngStream(seed),
                      burn_in=10)
    phis = to_var_matrices(net, spec, coef)
    y = var_simulate(phis, coef.sigma, n=40, rng=RngStream(seed),
                     burn_in=10, node_names=net.node_names)
    assert x.node_names == y.node_names
    assert np.max(np.abs(x.values - y.values)) <= 1e-10


def test_simulation_is_deterministic():
    net, spec, coef = stationary_example()
    a = gnar_simulate(net, spec, coef, n=100, rng=RngStream(7))
    b = gnar_simulate(net, spec, coef, n=100, rng=RngStream(7))
    assert np.array_equal(a.values, b.values)
    c = gnar_simulate(net, spec, coef, n=100, rng=RngStream(8))
    assert not np.array_equal(a.values, c.values)


def test_zero_sigma_zero_start_gives_zero_series():
    net, spec, _ = stationary_example()
    coef = make_coefficients(spec, 5, alpha=[0.2, 0.3], beta=[[0.3], []],
                             sigma=0.0)
    x = gnar_simulate(net, spec, coef, n=50, rng=RngStream(1))
    assert np.array_equal(x.values, np.zeros((50, 5)))


def test_output_shape_and_no_missing():
    net, spec, coef = stationary_example()
    x = gnar_simulate(net, spec, coef, n=123, rng=RngStream(3))
    assert isinstance(x, SeriesMatrix)
    assert x.values.shape == (123, 5)
    assert not np.isnan(x.values).any()
    assert x.node_names == net.node_names


def test_noise_order_is_time_major_node_minor():
    # with alpha = 0 and unit sigma the output IS the noise stream
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,))
    coef = make_coefficients(spec, 5, alpha=[0.0], beta=[[]], sigma=1.0)
    x = gnar_simulate(net, spec, coef, n=4, rng=RngStream(11), burn_in=2)
    z = RngStream(11).gaussians(5 * 6).reshape(6, 5)
    assert np.array_equal(x.values, z[2:])


def test_univariate_ar1_reconstruction():
    # one node, p=1: x_t = 0.5 x_{t-1} + 2 z_t, reconstructed by hand
    phis = [np.array([[0.5]])]
    x = var_simulate(phis, [2.0], n=6, rng=RngStream(21), burn_in=3)
    z = RngStream(21).gaussians(9)
    prev = 0.0
    full = []
    for t in range(9):
        prev = 0.5 * prev + 2.0 * z[t]
        full.append(prev)
    assert np.allclose(x.values[:, 0], full[3:], atol=1e-14)


def test_ar1_autocorrelation_near_theory():
    phis = [np.array([[0.5]])]
    x = var_simulate(phis, [1.0], n=5000, rng=RngStream(99)).values[:, 0]
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r - 0.5) < 0.1


def test_pure_noise_mean_shrinks():
    phis = [np.zeros((3, 3))]
    x = var_simulate(phis, np.ones(3), n=20_000, rng=RngStream(5))
    assert abs(x.values.mean()) < 4.0 / np.sqrt(60_000)


def test_burn_in_discards_prefix():
    net, spec, coef = stationary_example()
    long = gnar_simulate(net, spec, coef, n=60, rng=RngStream(13),
                         burn_in=0)
    short = gnar_simulate(net, spec, coef, n=40, rng=RngStream(13),
                          burn_in=20)
    assert np.array_equal(long.values[20:], short.values)


def test_invalid_arguments():
    net, spec, coef = stationary_example()
    with pytest.raises(ValueError):
        gnar_simulate(net, spec, coef, n=0, rng=RngStream(0))
    with pytest.raises(ValueError):
        gnar_simulate(net, spec, coef, n=10, rng=RngStream(0), burn_in=-1)
    with pytest.raises(ValueError):
        var_simulate([np.eye(2)], [1.0, 1.0], n=0, rng=RngStream(0))


def test_explosive_model_warns():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.2], beta=[[0.85]])
    with pytest.warns(StationarityWarning):
        gnar_simulate(net, spec, coef, n=20, rng=RngStream(0))
    # margin exactly 1.0 is already outside the sufficient region
    border = make_coefficients(spec, 5, alpha=[0.5], beta=[[0.5]])
    with pytest.warns(StationarityWarning):
        gnar_simulate(net, spec, border, n=20, rng=RngStream(0))


def test_stationary_model_does_not_warn(recwarn):
    net, spec, coef = stationary_example()
    gnar_simulate(net, spec, coef, n=20, rng=RngStream(0))
    assert not [w for w in recwarn.list
                if issubclass(w.category, StationarityWarning)]


def test_stationary_runs_stay_bounded():
    # margin < 1 keeps long simulations finite and moderate; var route
    # stands in for both (equivalence is established above)
    for seed in range(100):
        net, spec, coef = random_instance(seed, margin_below=0.9)
        phis = to_var_matrices(net, spec, coef)
        x = var_simulate(phis, coef.sigma, n=10_000, rng=RngStream(seed))
        assert np.isfinite(x.values).all()
        assert np.max(np.abs(x.values)) < 1e4

