import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmmest.tscore as tscore
from pmmest.cumulants import _SCORES, pmm2_weight
from pmmest.errors import DegenerateMomentsError
from pmmest.mcbench import InnovationSpec, sample_innovations
from pmmest.tscore import (
    ModelOrder,
    TsParams,
    _capped,
    css_residuals,
    difference,
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

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="AR design requires p >= 1, got 0"):
            fit_ar_pmm2(simulate_ar1(50), 0)


def test_white_noise_without_mean_has_no_parameters(monkeypatch):
    # The PMM2 stage has nothing to minimize: its quasi-Newton run starts at
    # an empty vector, and the covariance of no parameters is 0 x 0.
    starts = []

    def spy(f, x0, H0=None):
        starts.append(np.asarray(x0).size)
        return minimize_qn(f, x0, H0)

    monkeypatch.setattr(tscore, "minimize_qn", spy)
    fit = fit_ts_pmm2(simulate_ar1(60, phi=0.0, seed=3), ModelOrder(include_mean=False))
    assert starts == [0]
    assert (fit.method, fit.converged, fit.coefficients.size) == ("PMM2", True, 0)
    assert tscore.ts_asymptotic_covariance(fit).shape == (0, 0)


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

    @pytest.mark.parametrize("order, coef", [
        (ModelOrder(q=1, include_mean=False), {"theta": [0.5]}),
        (ModelOrder(p=1, d=1), {"phi": [0.7]}),
    ], ids=["ma1", "ari110"])
    def test_public_objective_is_the_one_minimized(self, order, coef):
        # the reported objective is pmm2_objective at the estimate, bit for bit
        rng = np.random.default_rng(5)
        eps = sample_innovations(InnovationSpec("gamma"), 300, rng)
        x = simulate_arima(order, params_for(order, **coef), eps, 100)
        fit = fit_ts_pmm2(x, order)
        assert fit.method == "PMM2" and fit.converged
        mom = fit.moments
        c = pmm2_weight(mom.m2, mom.m3, mom.m4)
        w = difference(x, order.d, order.D, order.s)
        assert pmm2_objective(w, fit.params, order, c, mom.m2) == fit.objective

    def test_public_objective_is_inf_past_the_explosion_cap(self):
        # at theta = 1.5 the residual recursion grows like 1.5^t: far past
        # 1000 frozen sd, where the cubic objective would be unbounded below
        rng = np.random.default_rng(6)
        order = ModelOrder(q=1, include_mean=False)
        x = sample_innovations(InnovationSpec("gamma"), 300, rng)
        css = fit_css(x, order)
        c = pmm2_weight(css.moments.m2, css.moments.m3, css.moments.m4)
        q = pmm2_objective(x, params_for(order, theta=[1.5]), order, c, css.moments.m2)
        assert q == math.inf

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


def qn_reference(x, order):
    """minimize_qn on the frozen PMM2 objective from the CSS start, as the
    two-stage fit ran it for every order before the Newton route: returns
    (coefficients, objective, converged, objective at the CSS start)."""
    css = fit_css(x, order)
    mom = css.moments
    c = pmm2_weight(mom.m2, mom.m3, mom.m4)
    w = difference(x, order.d, order.D, order.s)

    def q(vec):
        return pmm2_objective(w, TsParams.from_vector(vec, order), order, c, mom.m2)

    start = css.params.to_vector(order)
    vec, fun, converged = minimize_qn(q, start)
    return vec, fun, converged, q(start)


def relative_gradient(x, order, phi, mom):
    """max_j |dQ/dphi_j| max(1, |phi_j|) / max(|Q|, m * m2) of the frozen ARI
    PMM2 objective Q, for CSS moments ``mom``."""
    w = difference(x, order.d, order.D, order.s)
    score, c = _SCORES["PMM2"], pmm2_weight(mom.m2, mom.m3, mom.m4)
    e = css_residuals(w, params_for(order, phi=phi), order)
    Z = np.column_stack([np.r_[np.zeros(j), w[:w.size - j]] for j in range(1, order.p + 1)])
    grad = Z.T @ score.psi(e, (c,), mom.m2)
    q = score.objective(e, (c,), mom.m2)
    return float(np.max(np.abs(grad) * np.maximum(1.0, np.abs(phi)))
                 / max(abs(q), w.size * mom.m2))


class TestAriPmm2Newton:
    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 2), d=st.integers(1, 2),
           family=st.sampled_from(["gamma", "uniform", "gaussian"]),
           n=st.integers(30, 500), pacf=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_quasi_newton_on_the_same_objective(self, p, d, family, n, pacf, seed):
        phi = [pacf[0]] if p == 1 else [pacf[0] * (1.0 - pacf[1]), pacf[1]]
        order = ModelOrder(p=p, d=d)
        eps = sample_innovations(InnovationSpec(family), n + 50, np.random.default_rng(seed))
        x = simulate_arima(order, params_for(order, phi=phi), eps, 50)
        fit = fit_ts_pmm2(x, order)
        if fit.method != "PMM2":  # unusable CSS moments: the CSS fit is returned
            return
        vec, fun, qn_converged, q_css = qn_reference(x, order)
        assert fit.objective <= q_css + 1e-9  # acceptance criterion 7's dominance
        assert fit.objective <= fun + 1e-9 * max(1.0, abs(fun))
        if fit.converged:
            assert relative_gradient(x, order, fit.params.phi, fit.moments) < 1e-6
        if fit.converged and qn_converged:
            # minimize_qn may stop on its 1e-12 relative objective change short
            # of the optimum (seen: 6e-7 off in phi at a relative gradient of
            # 6e-7, n = 438); 1e-7 holds wherever it reached the optimum
            qn_gradient = relative_gradient(x, order, vec, fit.moments)
            tol = 1e-7 if qn_gradient < 1e-8 else 1e-5
            np.testing.assert_allclose(fit.params.phi, vec, rtol=0, atol=tol)

    def test_never_calls_minimize_qn(self, monkeypatch):
        def forbidden(f, x0):
            raise AssertionError("minimize_qn called")

        monkeypatch.setattr(tscore, "minimize_qn", forbidden)
        rng = np.random.default_rng(4)
        for order in (ModelOrder(p=1, d=1), ModelOrder(p=2, d=2), ModelOrder(p=1, D=1, s=4)):
            eps = sample_innovations(InnovationSpec("gamma"), 200, rng)
            x = simulate_arima(order, params_for(order, phi=[0.4] * order.p), eps, 50)
            fit = fit_ts_pmm2(x, order)
            assert fit.method == "PMM2" and fit.converged

    def test_runaway_is_not_convergence(self):
        # +-1 errors at n = 20: the frozen cubic objective is unbounded below
        # along the descent path from this CSS start, and the iterates run
        # into the explosion cap near phi = 550, where the steps shrink to
        # nothing at a large gradient
        order = ModelOrder(p=1, d=1)
        eps = np.random.default_rng(70).choice([-1.0, 1.0], 20)
        x = simulate_arima(order, params_for(order, phi=[0.5]), eps)
        fit = fit_ts_pmm2(x, order)
        assert fit.method == "PMM2"
        assert not fit.converged
        assert "PMM2 optimizer did not converge" in fit.warnings
        assert abs(fit.params.phi[0]) > 10.0
        assert relative_gradient(x, order, fit.params.phi, fit.moments) > 1.0


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
        q = [_capped(_SCORES["PMM3"], (b1, b3), css.moments.m2,
                     css_residuals(x, params_for(order, theta=[t]), order))
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


def gamma_arma11(n=150, seed=4):
    order = ModelOrder(p=1, q=1)
    eps = sample_innovations(InnovationSpec("gamma"), n + 50, np.random.default_rng(seed))
    return simulate_arima(order, params_for(order, [0.5], [0.3], mean=1.0), eps, 50), order


class TestSharedCssStage:
    """A PMM fit may start from the caller's CSS fit of the same series; it
    gives the fit made without one and never returns or changes that fit."""

    @pytest.mark.parametrize("method, fitter", [("PMM2", fit_ts_pmm2), ("PMM3", fit_ts_pmm3)])
    def test_same_fit_as_without(self, method, fitter):
        x, order = gamma_arma11()
        css = fit_css(x, order)
        before = list(css.warnings)
        fit = tscore._fit_series(method, x, order, css=css)
        alone = fitter(x, order)
        assert fit.method == method
        assert fit.coefficients.tobytes() == alone.coefficients.tobytes()
        assert fit.residuals.tobytes() == alone.residuals.tobytes()
        assert (fit.objective, fit.converged, fit.warnings) == \
            (alone.objective, alone.converged, alone.warnings)
        assert css.warnings == before

    @pytest.mark.parametrize("method, fitter", [("PMM2", fit_ts_pmm2), ("PMM3", fit_ts_pmm3)])
    def test_undefined_weights_return_a_noted_copy(self, method, fitter, monkeypatch):
        def undefined(mom):
            raise DegenerateMomentsError("weights undefined")

        monkeypatch.setitem(_SCORES, method,
                            dataclasses.replace(_SCORES[method], weights=undefined))
        x, order = gamma_arma11()
        css = fit_css(x, order)
        before = list(css.warnings)
        fit = tscore._fit_series(method, x, order, css=css)
        assert fit is not css
        assert css.warnings == before
        note = f"CSS residual moments leave the {method} weights undefined; returning CSS fit"
        assert fit.warnings == before + [note]
        assert fit.method == "CSS"
        assert fit.coefficients.tobytes() == css.coefficients.tobytes()
        assert fit.residuals.tobytes() == css.residuals.tobytes()
        assert (fit.objective, fit.converged, fit.moments, fit.g_coefficient) == \
            (css.objective, css.converged, css.moments, css.g_coefficient)
        alone = fitter(x, order)
        assert alone.warnings == fit.warnings
        assert alone.coefficients.tobytes() == fit.coefficients.tobytes()

    @pytest.mark.parametrize("method", ["CSS", "PMM2"])
    def test_no_tsparams_per_fit(self, method, monkeypatch):
        # the optimizers, the residuals and the fit record hold the parameter
        # vector; a fit builds no TsParams, in particular none per evaluation
        x, order = gamma_arma11()
        made = []

        class Counted(TsParams):
            # a subclass, because CPython cannot undo setting __new__ on a class
            def __new__(cls, *args, **kwargs):
                made.append(cls)
                return super().__new__(cls)

        monkeypatch.setattr(tscore, "TsParams", Counted)
        fit = tscore._fit_series(method, x, order)
        assert fit.method == method and fit.converged
        assert made == []

    def test_degenerate_moments_return_a_noted_copy(self):
        x, order = gamma_arma11()
        css = dataclasses.replace(fit_css(x, order), moments=None)
        before = list(css.warnings)
        fit = tscore._fit_series("PMM2", x, order, css=css)
        assert fit is not css
        assert css.warnings == before
        assert fit.warnings == before + ["degenerate CSS residual moments; returning CSS fit"]
        assert fit.coefficients.tobytes() == css.coefficients.tobytes()
        assert fit.moments is None and fit.method == "CSS"


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


def forecast_by_lags(fit, horizon):
    """Reference forecasts: the recursion written as a loop over every lag."""
    order = fit.order
    w = difference(fit.original_series, order.d, order.D, order.s)
    num, den = tscore._Layout(order).polynomials(fit.coefficients)
    a, b = -num[1:], den[1:]
    z = list(w - fit.params.mean)
    eps = list(fit.residuals)
    wf = np.empty(horizon)
    for h in range(horizon):
        t = len(z)
        val = 0.0
        for j, aj in enumerate(a, start=1):
            if t - j >= 0:
                val += aj * z[t - j]
        for k, bk in enumerate(b, start=1):
            if t - k >= 0:
                val += bk * eps[t - k]
        z.append(val)
        eps.append(0.0)
        wf[h] = val + fit.params.mean
    if order.d + order.D > 0:
        return tscore.integrate_forecast(fit.original_series, wf, order.d, order.D, order.s)
    return wf


@pytest.mark.parametrize("order, coefs", [
    (ModelOrder(q=2), dict(theta=[0.5, -0.3])),
    (ModelOrder(p=2, q=2), dict(phi=[0.5, -0.2], theta=[0.4, 0.2])),
    (ModelOrder(p=1, d=1, q=1), dict(phi=[0.5], theta=[0.3])),
    (ModelOrder(p=1, q=1, P=1, D=1, Q=1, s=4),
     dict(phi=[0.5], theta=[0.3], Phi=[0.4], Theta=[-0.3])),
    (ModelOrder(), {}),
], ids=["ma2", "arma22", "arima111", "sarima", "white-noise"])
def test_forecast_matches_the_lag_loop(order, coefs):
    eps = sample_innovations(InnovationSpec("gamma"), 300, np.random.default_rng(11))
    x = simulate_arima(order, params_for(order, mean=1.0, **coefs), eps, burnin=100)
    fit = fit_css(x, order)
    span = max(len(fit.params.phi) + len(fit.params.Phi) * order.s,
               len(fit.params.theta) + len(fit.params.Theta) * order.s)
    for horizon in {1, max(span - 1, 1), span + 7}:
        np.testing.assert_allclose(forecast(fit, horizon), forecast_by_lags(fit, horizon),
                                   rtol=1e-12, atol=0.0)


class TestNewtonStop:
    @pytest.mark.parametrize("n", [100, 500])
    def test_full_step_at_tolerance_ends_the_iteration(self, n):
        # Newton from the returned phi moves it by the step the stopping rule
        # skips; the frozen objective stays at or below the CSS one
        order = ModelOrder(p=1, d=1)
        score = _SCORES["PMM2"]
        for seed in range(20):
            eps = sample_innovations(InnovationSpec("gamma"), n, np.random.default_rng(seed))
            x = simulate_arima(order, TsParams([0.5], [], [], [], 0.0), eps)
            css = fit_css(x, order)
            w = difference(x, 1)
            weights = score.weights(css.moments)
            m2 = css.moments.m2
            with np.errstate(over="ignore", invalid="ignore"):
                phi, converged = tscore._newton_ar(score, weights, m2, w, css.coefficients)
                again, _ = tscore._newton_ar(score, weights, m2, w, phi)
                assert converged
                assert np.abs(again - phi).max() <= 1e-9 * max(1.0, np.abs(phi).max())
                q = [_capped(score, weights, m2, css_residuals(w, v, order))
                     for v in (phi, css.coefficients)]
            assert q[0] <= q[1]
