"""Tests for least-squares fitting, information criteria, and baselines."""

import json
import math
import warnings

import numpy as np
import pytest
from conftest import make_five_net, random_instance

from gnar import (
    DataError,
    InsufficientDataError,
    ModelSpec,
    RankDeficiencyWarning,
    RngStream,
    SeriesMatrix,
    SingularCovarianceWarning,
    aic_value,
    ar_baseline,
    bic_value,
    build_design,
    coefficients_from_fit_json,
    fit,
    fit_result_to_json,
    gamma_from_coefficients,
    gls_restricted_estimate,
    gnar_simulate,
    loglik_value,
    make_coefficients,
    to_var_matrices,
    var_simulate,
)


def _complete_series(net, spec, coef, n, seed):
    vts = gnar_simulate(net, spec, coef, n, RngStream(seed))
    assert not np.isnan(vts.values).any()
    return vts


# ---------------------------------------------------------------------------
# coefficient recovery


def test_recovery_per_node_stage_one():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,), alpha_mode="per_node")
    coef = make_coefficients(spec, 5, alpha=[[0.4, 0.0, -0.6, 0.0, 0.0]],
                             beta=[[0.3]], sigma=1.0)
    vts = _complete_series(net, spec, coef, 200, seed=41)
    res = fit(vts, net, spec)
    assert res.names == [
        "alpha1node1", "alpha1node2", "alpha1node3", "alpha1node4",
        "alpha1node5", "beta1.1",
    ]
    truth = gamma_from_coefficients(spec, coef)
    assert np.max(np.abs(res.gamma - truth)) < 0.2


def test_recovery_global_two_lags():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(2, 0))
    coef = make_coefficients(spec, 5, alpha=[0.2, 0.2],
                             beta=[[0.25, 0.25], []], sigma=1.0)
    vts = _complete_series(net, spec, coef, 200, seed=7)
    res = fit(vts, net, spec)
    assert res.names == ["alpha1", "beta1.1", "beta1.2", "alpha2"]
    truth = gamma_from_coefficients(spec, coef)
    assert np.max(np.abs(res.gamma - truth)) < 0.2


def test_noiseless_data_recovers_coefficients_exactly():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(1, 1))
    coef = make_coefficients(spec, 5, alpha=[0.5, 0.2],
                             beta=[[0.2], [0.05]], sigma=0.0)
    phis = to_var_matrices(net, spec, coef)
    rng = RngStream(13)
    x = np.empty((25, 5))
    x[:2] = rng.uniforms(10).reshape(2, 5) + 0.5
    for t in range(2, 25):
        x[t] = phis[0] @ x[t - 1] + phis[1] @ x[t - 2]
    res = fit(SeriesMatrix(x, net.node_names), net, spec)
    truth = gamma_from_coefficients(spec, coef)
    assert np.max(np.abs(res.gamma - truth)) < 1e-10
    assert res.rss < 1e-18


def test_estimation_error_shrinks_with_sample_size():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.3], beta=[[0.4]], sigma=1.0)
    phis = to_var_matrices(net, spec, coef)
    truth = gamma_from_coefficients(spec, coef)
    wins = 0
    for seed in range(100):
        small = var_simulate(phis, 1.0, 150, RngStream(2 * seed + 1),
                             node_names=net.node_names)
        big = var_simulate(phis, 1.0, 1500, RngStream(2 * seed + 2),
                           node_names=net.node_names)
        err_small = np.linalg.norm(fit(small, net, spec).gamma - truth)
        err_big = np.linalg.norm(fit(big, net, spec).gamma - truth)
        wins += err_big < err_small
    assert wins >= 90


# ---------------------------------------------------------------------------
# algebraic properties of the fit


def test_fitted_plus_residuals_reconstruct_retained_cells():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.3], beta=[[0.4]], sigma=1.0)
    vts = gnar_simulate(net, spec, coef, 120, RngStream(5))
    vals = vts.values.copy()
    vals[30:60, 2] = np.nan
    masked = SeriesMatrix(vals, net.node_names)
    res = fit(masked, net, spec)
    kept = ~np.isnan(res.fitted)
    assert kept.sum() == res.n_obs_used
    assert np.array_equal(kept, ~np.isnan(res.residuals))
    recon = res.fitted[kept] + res.residuals[kept]
    assert np.max(np.abs(recon - vals[kept])) < 1e-12
    assert np.isnan(res.fitted[0]).all()
    assert np.isnan(res.fitted[40, 2])


def test_standard_errors_match_closed_form():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(1, 1))
    coef = make_coefficients(spec, 5, alpha=[0.3, 0.1],
                             beta=[[0.2], [0.1]], sigma=1.0)
    vts = _complete_series(net, spec, coef, 80, seed=3)
    res = fit(vts, net, spec)
    problem = build_design(vts, net, spec)
    xtx_inv = np.linalg.inv(problem.x.T @ problem.x)
    expected = np.sqrt(res.rss / res.dof * np.diag(xtx_inv))
    assert np.max(np.abs(res.se - expected)) < 1e-10


def test_normal_equations_hold_at_the_estimate():
    # any least-squares solution satisfies them, minimum-norm ones included,
    # so instances with empty top-stage neighbour sets stay in scope
    for seed in range(6):
        net, spec, coef = random_instance(seed, max_nodes=6, max_p=2)
        vts = _complete_series(net, spec, coef, 70, seed=seed + 100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            res = fit(vts, net, spec)
        problem = build_design(vts, net, spec)
        grad = problem.x.T @ (problem.y - problem.x @ res.gamma)
        scale = max(1.0, np.max(np.abs(problem.x.T @ problem.y)))
        assert np.max(np.abs(grad)) < 1e-8 * scale


def test_per_node_stage_zero_fit_is_independent_ar_fits():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,), alpha_mode="per_node")
    coef = make_coefficients(spec, 5,
                             alpha=[[0.5, -0.3, 0.2, 0.0, 0.7]],
                             beta=[[]], sigma=1.0)
    vts = _complete_series(net, spec, coef, 150, seed=9)
    res = fit(vts, net, spec)
    x = vts.values
    for i in range(5):
        z, y = x[:-1, i], x[1:, i]
        assert abs(res.gamma[i] - (z @ y) / (z @ z)) < 1e-12


def test_innovation_cov_matches_residual_moment():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.3], beta=[[0.4]], sigma=1.0)
    vts = gnar_simulate(net, spec, coef, 90, RngStream(21))
    vals = vts.values.copy()
    vals[10:25, 4] = np.nan
    res = fit(SeriesMatrix(vals, net.node_names), net, spec)
    u = res.residuals[spec.p:]
    u = np.where(np.isnan(u), 0.0, u)
    expected = u.T @ u / res.t_eff
    assert np.max(np.abs(res.sigma_u_hat - expected)) < 1e-14


# ---------------------------------------------------------------------------
# restricted GLS


def test_gls_with_identity_weighting_equals_least_squares():
    for seed in (0, 1, 2, 5):
        net, spec, coef = random_instance(seed, max_nodes=6, max_p=2,
                                          max_stage=1)
        vts = _complete_series(net, spec, coef, 60, seed=seed + 50)
        ols = fit(vts, net, spec).gamma
        gls = gls_restricted_estimate(vts, net, spec)
        assert np.max(np.abs(gls - ols)) < 1e-8


def test_gls_identity_agreement_per_node_mode():
    net, spec, coef = random_instance(3, max_nodes=5, max_p=2,
                                      max_stage=1, alpha_mode="per_node")
    vts = _complete_series(net, spec, coef, 80, seed=77)
    ols = fit(vts, net, spec).gamma
    gls = gls_restricted_estimate(vts, net, spec)
    assert np.max(np.abs(gls - ols)) < 1e-8


def test_gls_invariant_to_scaling_the_working_covariance():
    net, spec, coef = random_instance(2, max_nodes=5, max_p=2, max_stage=1)
    vts = _complete_series(net, spec, coef, 60, seed=31)
    base = gls_restricted_estimate(vts, net, spec)
    scaled = gls_restricted_estimate(vts, net, spec,
                                     sigma_tilde=3.7 * np.eye(net.n_nodes))
    assert np.max(np.abs(scaled - base)) < 1e-10


def test_gls_input_validation():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(1,))
    vals = RngStream(1).gaussians(50).reshape(10, 5)
    vts = SeriesMatrix(vals, net.node_names)
    with pytest.raises(ValueError):
        gls_restricted_estimate(vts, net, spec, sigma_tilde=np.eye(3))
    holed = vals.copy()
    holed[4, 2] = np.nan
    with pytest.raises(DataError):
        gls_restricted_estimate(SeriesMatrix(holed, net.node_names),
                                net, spec)
    short = SeriesMatrix(vals[:1], net.node_names)
    with pytest.raises(InsufficientDataError):
        gls_restricted_estimate(short, net, spec)


# ---------------------------------------------------------------------------
# information criteria


def test_information_criterion_reference_values():
    assert abs(bic_value(np.eye(5), 100, 4) - 0.18420680743952367) < 1e-10
    assert aic_value(np.eye(5), 100, 4) == 0.08
    n = 5
    expected = -0.5 * 100 * n * (math.log(2.0 * math.pi) + 1.0)
    assert abs(loglik_value(np.eye(n), 100) - expected) < 1e-10
    with pytest.raises(ValueError):
        bic_value(np.eye(2), 0, 1)


def test_aic_bic_gap_identity():
    for seed in (0, 4, 8):
        net, spec, coef = random_instance(seed, max_nodes=5, max_p=2,
                                          max_stage=1)
        vts = _complete_series(net, spec, coef, 60, seed=seed + 9)
        res = fit(vts, net, spec)
        gap = (2.0 - math.log(res.t_eff)) * res.m / res.t_eff
        assert abs((res.aic - res.bic) - gap) < 1e-12
        assert res.bic == bic_value(res.sigma_u_hat, res.t_eff, res.m)
        assert res.aic == aic_value(res.sigma_u_hat, res.t_eff, res.m)
        assert res.loglik == loglik_value(res.sigma_u_hat, res.t_eff)


def test_bic_penalty_increases_with_parameter_count():
    sigma = np.array([[1.5, 0.2], [0.2, 0.9]])
    values = [bic_value(sigma, 50, m) for m in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bic_prefers_generating_order():
    net = make_five_net()
    true_spec = ModelSpec(p=2, s=(2, 0))
    coef = make_coefficients(true_spec, 5, alpha=[0.2, 0.2],
                             beta=[[0.2, 0.15], []], sigma=1.0)
    phis = to_var_matrices(net, true_spec, coef)
    small_spec = ModelSpec(p=1, s=(0,))
    wins = 0
    for seed in range(40):
        vts = var_simulate(phis, 1.0, 800, RngStream(seed + 1),
                           node_names=net.node_names)
        # drop the first row so both fits see the same candidate rows
        tail = SeriesMatrix(vts.values[1:], net.node_names)
        wins += fit(vts, net, true_spec).bic < fit(tail, net, small_spec).bic
    assert wins >= 36


def test_singular_covariance_stabilised_with_warning():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,))
    vals = RngStream(6).gaussians(15).reshape(3, 5)
    vts = SeriesMatrix(vals, net.node_names)
    with pytest.warns(SingularCovarianceWarning):
        res = fit(vts, net, spec)
    assert math.isfinite(res.bic)
    with pytest.raises(DataError, match="singular"):
        bic_value(res.sigma_u_hat, res.t_eff, res.m, stabilize=False)


# ---------------------------------------------------------------------------
# degenerate designs


def test_rank_deficiency_warns_and_names_aliased_column():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,), alpha_mode="per_node")
    vals = RngStream(8).gaussians(100).reshape(20, 5)
    vals[:, 2] = 0.0
    vts = SeriesMatrix(vals, net.node_names)
    with pytest.warns(RankDeficiencyWarning, match="alpha1node3"):
        with warnings.catch_warnings():
            # the constant node also zeroes its residual variance; that
            # side effect is covered elsewhere
            warnings.filterwarnings("ignore", category=SingularCovarianceWarning)
            res = fit(vts, net, spec)
    assert res.rank == 4
    assert res.m == 5


def test_too_few_rows_for_parameter_count():
    net = make_five_net()
    spec = ModelSpec(p=2, s=(2, 2))
    vals = RngStream(2).gaussians(15).reshape(3, 5)
    vts = SeriesMatrix(vals, net.node_names)
    with pytest.raises(InsufficientDataError, match="insufficient data"):
        fit(vts, net, spec)


def test_zero_degrees_of_freedom_gives_nan_standard_errors():
    net = make_five_net()
    spec = ModelSpec(p=1, s=(0,), alpha_mode="per_node")
    vals = RngStream(4).uniforms(10).reshape(2, 5) + 0.5
    vts = SeriesMatrix(vals, net.node_names)
    with pytest.warns(SingularCovarianceWarning):
        res = fit(vts, net, spec)
    assert res.dof == 0
    assert np.isnan(res.se).all()
    assert res.rss < 1e-20


# ---------------------------------------------------------------------------
# univariate baseline


def _ar2_path(c1, c2, n, x0, x1):
    out = np.empty(n)
    out[0], out[1] = x0, x1
    for t in range(2, n):
        out[t] = c1 * out[t - 1] + c2 * out[t - 2]
    return out


def test_ar_baseline_recovers_noiseless_recursions():
    col1 = _ar2_path(0.6, -0.8, 80, 1.0, 0.5)
    col2 = _ar2_path(-0.5, -0.7, 80, 0.8, -0.3)
    vts = SeriesMatrix(np.column_stack([col1, col2]), ("a", "b"))
    res = ar_baseline(vts, max_p=2, criterion="bic", h=3)
    assert [f.order for f in res.node_fits] == [2, 2]
    assert np.allclose(res.node_fits[0].coef, [0.6, -0.8], atol=1e-8)
    assert np.allclose(res.node_fits[1].coef, [-0.5, -0.7], atol=1e-8)
    assert res.node_fits[0].sigma2 < 1e-16
    for i, col in enumerate((col1, col2)):
        c = res.node_fits[i].coef
        recent = list(col[-2:])
        for step in range(3):
            nxt = c[0] * recent[-1] + c[1] * recent[-2]
            assert abs(res.forecasts[step, i] - nxt) < 1e-10
            recent.append(nxt)


def test_ar_baseline_prefers_order_zero_on_white_noise():
    picks = 0
    for seed in range(100):
        x = RngStream(seed).gaussians(200).reshape(200, 1)
        res = ar_baseline(SeriesMatrix(x, ("n1",)), max_p=2)
        picks += res.node_fits[0].order == 0
    assert picks >= 80


def test_ar_baseline_constant_zero_series():
    vts = SeriesMatrix(np.zeros((40, 1)), ("z",))
    res = ar_baseline(vts, max_p=3, h=2)
    node = res.node_fits[0]
    assert node.order == 0
    assert node.coef.size == 0
    assert node.sigma2 == 0.0
    assert np.all(res.forecasts == 0.0)


def test_ar_baseline_strips_leading_missing_values():
    base = _ar2_path(0.6, -0.8, 60, 1.0, 0.5) + 0.01
    padded = np.r_[np.nan, np.nan, np.nan, base]
    a = ar_baseline(SeriesMatrix(base[:, None], ("x",)), max_p=2)
    b = ar_baseline(SeriesMatrix(padded[:, None], ("x",)), max_p=2)
    assert a.node_fits[0].order == b.node_fits[0].order
    assert a.node_fits[0].n_obs == b.node_fits[0].n_obs
    assert np.array_equal(a.node_fits[0].coef, b.node_fits[0].coef)


def test_ar_baseline_drops_rows_touching_interior_gaps():
    rng = RngStream(17)
    x = np.empty(100)
    x[0] = rng.normal()
    for t in range(1, 100):
        x[t] = 0.8 * x[t - 1] + rng.normal()
    holed = x.copy()
    holed[40] = np.nan
    res = ar_baseline(SeriesMatrix(holed[:, None], ("x",)), max_p=1)
    assert res.node_fits[0].order == 1
    y, z = holed[1:], holed[:-1]
    ok = ~np.isnan(y) & ~np.isnan(z)
    manual = (z[ok] @ y[ok]) / (z[ok] @ z[ok])
    assert abs(res.node_fits[0].coef[0] - manual) < 1e-12
    assert res.node_fits[0].n_obs == int(ok.sum())


def test_ar_baseline_argument_and_data_errors():
    vts = SeriesMatrix(np.ones((10, 1)), ("x",))
    with pytest.raises(ValueError):
        ar_baseline(vts, max_p=1, criterion="aicc")
    with pytest.raises(ValueError):
        ar_baseline(vts, max_p=-1)
    with pytest.raises(ValueError):
        ar_baseline(vts, max_p=1, h=0)
    empty = SeriesMatrix(np.full((10, 1), np.nan), ("x",))
    with pytest.raises(InsufficientDataError, match="no observations"):
        ar_baseline(empty, max_p=1)


def test_ar_baseline_requires_observed_recent_values_to_forecast():
    rng = RngStream(23)
    x = np.empty(80)
    x[0] = rng.normal()
    for t in range(1, 80):
        x[t] = 0.8 * x[t - 1] + rng.normal()
    x[-1] = np.nan
    with pytest.raises(DataError, match="most recent"):
        ar_baseline(SeriesMatrix(x[:, None], ("x",)), max_p=1)


# ---------------------------------------------------------------------------
# serialisation


def test_fit_serialisation_round_trip():
    net, spec, coef = random_instance(11, max_nodes=5, max_p=2,
                                      max_stage=1, alpha_mode="per_group")
    vts = _complete_series(net, spec, coef, 70, seed=19)
    res = fit(vts, net, spec)
    blob = json.loads(json.dumps(fit_result_to_json(res)))
    net2, spec2, coef2 = coefficients_from_fit_json(blob)
    assert net2.n_nodes == net.n_nodes
    assert net2.edges == net.edges
    assert spec2 == spec
    assert np.allclose(coef2.alpha, res.coef.alpha, atol=1e-15)
    for b1, b2 in zip(coef2.beta, res.coef.beta):
        assert np.allclose(b1, b2, atol=1e-15)
    assert np.allclose(coef2.sigma, res.coef.sigma, atol=1e-15)
    assert blob["coefficients"] == dict(zip(res.names, res.gamma.tolist()))
    with pytest.raises(ValueError, match="malformed"):
        coefficients_from_fit_json({"model": "GNAR(1,[1])"})
