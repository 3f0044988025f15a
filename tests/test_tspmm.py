import numpy as np
import pytest

from pmmest.cumulants import pmm2_weight
from pmmest.mcbench import InnovationSpec, sample_innovations
from pmmest.tscore import (
    ModelOrder,
    TsParams,
    fit_css,
    minimize_qn,
    simulate_arima,
)
from pmmest.tspmm import (
    fit_ar_pmm2,
    fit_ts_pmm2,
    fit_ts_pmm3,
    forecast,
    pmm2_objective,
    pmm3_objective,
)


def params_for(order, phi=(), theta=(), Phi=(), Theta=(), mean=0.0):
    return TsParams(np.asarray(phi, float), np.asarray(theta, float),
                    np.asarray(Phi, float), np.asarray(Theta, float), mean)


def simulate_ar1(n, phi=0.7, innovations="gamma", seed=0, burnin=100):
    rng = np.random.default_rng(seed)
    spec = InnovationSpec(innovations)
    eps = sample_innovations(spec, n + burnin, rng)
    order = ModelOrder(p=1, include_mean=False)
    return simulate_arima(order, params_for(order, phi=[phi]), eps, burnin)


class TestArPmm2:
    def test_gamma_ar1_recovery(self):
        x = simulate_ar1(200, seed=42)
        fit = fit_ar_pmm2(x, p=1)
        assert fit.method == "PMM2"
        assert fit.converged
        assert fit.params.phi[0] == pytest.approx(0.7, abs=0.12)
        assert fit.residuals.size == x.size
        assert 0.0 <= fit.g_coefficient <= 1.0

    def test_gaussian_matches_css(self):
        x = simulate_ar1(400, innovations="gaussian", seed=5)
        pmm2 = fit_ar_pmm2(x, p=1)
        css = fit_css(x, ModelOrder(p=1))
        # symmetric innovations: PMM2 is OLS up to the cumulant noise
        assert pmm2.params.phi[0] == pytest.approx(css.params.phi[0], abs=0.02)

    def test_mse_ratio_near_g2(self):
        # AR(1), gamma innovations, 500 replications at n = 200
        rng_root = np.random.SeedSequence(2024)
        ratios_num, ratios_den = [], []
        for i, child in enumerate(rng_root.spawn(500)):
            rng = np.random.default_rng(child)
            eps = sample_innovations(InnovationSpec("gamma"), 300, rng)
            order = ModelOrder(p=1, include_mean=False)
            x = simulate_arima(order, params_for(order, phi=[0.7]), eps, 100)
            phi_css = fit_css(x, ModelOrder(p=1)).params.phi[0]
            phi_pmm2 = fit_ar_pmm2(x, p=1).params.phi[0]
            ratios_num.append((phi_pmm2 - 0.7) ** 2)
            ratios_den.append((phi_css - 0.7) ** 2)
        ghat = np.mean(ratios_num) / np.mean(ratios_den)
        assert 0.45 <= ghat <= 0.75


class TestTsPmm2:
    def test_symmetric_innovations_match_css(self):
        rng = np.random.default_rng(9)
        order = ModelOrder(q=1, include_mean=False)
        x = simulate_arima(order, params_for(order, theta=[0.5]),
                           rng.standard_normal(400), burnin=100)
        css = fit_css(x, order)
        pmm2 = fit_ts_pmm2(x, order)
        assert pmm2.method == "PMM2"
        assert pmm2.params.theta[0] == pytest.approx(css.params.theta[0], abs=0.02)

    def test_ma1_grid_oracle(self):
        # the estimator is the local minimizer reached from the CSS start, so
        # the brute-force grid scans the basin around that start (Q itself is
        # unbounded below far outside it)
        rng = np.random.default_rng(3)
        order = ModelOrder(q=1, include_mean=False)
        eps = sample_innovations(InnovationSpec("gamma"), 140, rng)
        x = simulate_arima(order, params_for(order, theta=[0.5]), eps, 60)
        fit = fit_ts_pmm2(x, order)
        css = fit_css(x, order)
        c = pmm2_weight(css.moments.m2, css.moments.m3, css.moments.m4)
        t0 = css.params.theta[0]
        grid = np.linspace(t0 - 0.4, min(t0 + 0.4, 0.95), 3201)
        q = [pmm2_objective(x, params_for(order, theta=[t]), order, c, css.moments.m2)
             for t in grid]
        assert abs(fit.params.theta[0] - grid[np.argmin(q)]) < 1e-3

    def test_objective_dominance(self):
        for seed in (1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            order = ModelOrder(p=1, d=1, q=0)
            eps = sample_innovations(InnovationSpec("gamma"), 300, rng)
            x = simulate_arima(order, params_for(order, phi=[0.7]), eps, 100)
            css = fit_css(x, order)
            pmm2 = fit_ts_pmm2(x, order)
            c = pmm2_weight(css.moments.m2, css.moments.m3, css.moments.m4)
            w = np.diff(x)
            q_css = pmm2_objective(w, css.params, order, c, css.moments.m2)
            assert pmm2.objective <= q_css + 1e-9

    def test_zero_frozen_m3_degenerates_to_css(self):
        # with c = 0 the polynomial objective is half the CSS objective, so
        # both optimizers must find the same argmin
        rng = np.random.default_rng(12)
        order = ModelOrder(q=1, include_mean=False)
        x = simulate_arima(order, params_for(order, theta=[0.4]),
                           rng.standard_normal(200), burnin=50)
        css = fit_css(x, order)

        def q_half(vec):
            return pmm2_objective(x, TsParams.from_vector(vec, order), order,
                                  0.0, css.moments.m2)

        vec, fun, ok = minimize_qn(q_half, css.params.to_vector(order))
        assert ok
        assert vec[0] == pytest.approx(css.params.theta[0], abs=1e-6)
        assert fun == pytest.approx(css.objective / 2.0, rel=1e-8)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(8)
        order = ModelOrder(p=1, q=1)
        eps = sample_innovations(InnovationSpec("gamma"), 360, rng)
        x = simulate_arima(order, params_for(order, phi=[0.5], theta=[0.3]), eps, 100)
        fit = fit_ts_pmm2(x, order)
        fit_shift = fit_ts_pmm2(x + 10.0, order)
        assert fit_shift.params.mean == pytest.approx(fit.params.mean + 10.0, abs=1e-4)
        assert fit_shift.params.phi[0] == pytest.approx(fit.params.phi[0], abs=1e-6)
        assert fit_shift.params.theta[0] == pytest.approx(fit.params.theta[0], abs=1e-6)


class TestTsPmm3:
    def test_gaussian_matches_css(self):
        rng = np.random.default_rng(10)
        order = ModelOrder(q=1, include_mean=False)
        x = simulate_arima(order, params_for(order, theta=[0.5]),
                           rng.standard_normal(500), burnin=100)
        css = fit_css(x, order)
        pmm3 = fit_ts_pmm3(x, order)
        assert pmm3.method == "PMM3"
        assert pmm3.params.theta[0] == pytest.approx(css.params.theta[0], abs=0.03)

    def test_ma1_grid_oracle(self):
        rng = np.random.default_rng(14)
        order = ModelOrder(q=1, include_mean=False)
        eps = sample_innovations(InnovationSpec("uniform"), 160, rng)
        x = simulate_arima(order, params_for(order, theta=[0.5]), eps, 60)
        fit = fit_ts_pmm3(x, order)
        css = fit_css(x, order)
        from pmmest.cumulants import pmm3_weights
        b1, b3 = pmm3_weights(css.moments.m2, css.moments.m4, css.moments.m6)
        grid = np.linspace(-0.95, 0.95, 3801)
        q = [pmm3_objective(x, params_for(order, theta=[t]), order, b1, b3)
             for t in grid]
        assert abs(fit.params.theta[0] - grid[np.argmin(q)]) < 1e-3

    def test_pure_ar_uses_regression_route_and_gains(self):
        # AR(1) with uniform innovations: PMM3 variance clearly below CSS
        root = np.random.SeedSequence(77)
        est_css, est_p3 = [], []
        order = ModelOrder(p=1, include_mean=False)
        fit_order = ModelOrder(p=1)
        for child in root.spawn(500):
            rng = np.random.default_rng(child)
            eps = sample_innovations(InnovationSpec("uniform"), 600, rng)
            x = simulate_arima(order, params_for(order, phi=[0.7]), eps, 100)
            est_css.append(fit_css(x, fit_order).params.phi[0])
            est_p3.append(fit_ts_pmm3(x, fit_order).params.phi[0])
        ratio = np.var(est_p3) / np.var(est_css)
        assert ratio < 1.0
        assert 0.19 <= ratio <= 0.49

    def test_platykurtic_b1_warning(self):
        rng = np.random.default_rng(20)
        order = ModelOrder(q=1, include_mean=False)
        eps = sample_innovations(InnovationSpec("uniform"), 400, rng)
        x = simulate_arima(order, params_for(order, theta=[0.5]), eps, 100)
        fit = fit_ts_pmm3(x, order)
        assert any("nonconvex" in w for w in fit.warnings)


class TestWarningsOncePerFit:
    def test_lag_design_clamp_noted_once(self):
        # +-1 innovations: gamma4 + 2 = 0, so the regression and the series
        # fit both clamp g2
        rng = np.random.default_rng(0)
        order = ModelOrder(p=1)
        x = simulate_arima(order, params_for(order, phi=[0.5]),
                           rng.choice([-1.0, 1.0], 90), burnin=50)
        fit = fit_ts_pmm2(x, order)
        assert fit.warnings == ["sample cumulants inadmissible for g2; clamped to 0"]

    def test_two_stage_unit_circle_noted_once(self):
        # the CSS stage and the PMM2 stage both end on the unit circle
        order = ModelOrder(p=1, q=1, P=1, Q=1, s=4)
        x = simulate_arima(order, params_for(order, [0.5], [0.3], [0.4], [0.2]),
                           np.random.default_rng(17).uniform(-1.0, 1.0, 90), burnin=50)
        fit = fit_ts_pmm2(x, order)
        assert fit.method == "PMM2"
        assert fit.warnings == [
            "AR polynomial has a root on or inside the unit circle (non-stationary region)",
            "MA polynomial has a root on or inside the unit circle (non-invertible region)"]


class TestForecast:
    def test_ar1_closed_form(self):
        x = simulate_ar1(120, seed=2)
        fit = fit_css(x, ModelOrder(p=1, include_mean=False))
        phi = fit.params.phi[0]
        fc = forecast(fit, 4)
        expected = [phi**h * x[-1] for h in range(1, 5)]
        assert fc == pytest.approx(expected, rel=1e-10)

    def test_ar1_with_mean(self):
        x = simulate_ar1(200, seed=3) + 5.0
        fit = fit_css(x, ModelOrder(p=1))
        phi, mu = fit.params.phi[0], fit.params.mean
        fc = forecast(fit, 1)
        assert fc[0] == pytest.approx(mu + phi * (x[-1] - mu), rel=1e-10)

    def test_random_walk_constant(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.standard_normal(50))
        fit = fit_css(x, ModelOrder(d=1))
        fc = forecast(fit, 3)
        assert fc == pytest.approx([x[-1]] * 3, abs=1e-10)

    def test_ma1_memory(self):
        rng = np.random.default_rng(5)
        order = ModelOrder(q=1)
        x = simulate_arima(order, params_for(order, theta=[0.5], mean=2.0),
                           rng.standard_normal(300), burnin=100)
        fit = fit_css(x, order)
        fc = forecast(fit, 3)
        theta, mu = fit.params.theta[0], fit.params.mean
        assert fc[0] == pytest.approx(mu + theta * fit.residuals[-1], rel=1e-8)
        assert fc[1] == pytest.approx(mu, rel=1e-10)
        assert fc[2] == pytest.approx(mu, rel=1e-10)

    def test_horizon_validation(self):
        x = simulate_ar1(100, seed=6)
        fit = fit_css(x, ModelOrder(p=1))
        with pytest.raises(ValueError):
            forecast(fit, 0)
