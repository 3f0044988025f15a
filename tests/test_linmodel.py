import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import symmetric_orthogonal_errors, unconverged_pmm2_problem
from pmmest import linmodel
from pmmest.cumulants import pmm2_weight, pmm3_weights
from pmmest.errors import InputTooShortError, SingularDesignError
from pmmest.linmodel import (
    DesignProblem,
    asymptotic_covariance,
    build_design,
    confidence_intervals,
    fit_ols,
    fit_pmm2,
    fit_pmm3,
    information_criteria,
)


def gamma_problem(n=200, seed=42, slope=2.0, intercept=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    eps = rng.gamma(2.0, 1.0, n) - 2.0
    return build_design(intercept + slope * x + eps, [x], column_names=["x"])


class TestOls:
    def test_exact_line(self):
        prob = DesignProblem(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                             np.array([1.0, 3.0, 5.0]))
        fit = fit_ols(prob)
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert np.abs(fit.residuals).max() < 1e-12
        assert fit.g_coefficient == 1.0 and fit.iterations == 0

    def test_identity_column(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 3))
        fit = fit_ols(DesignProblem(X, X[:, 1].copy()))
        expected = np.array([0.0, 1.0, 0.0])
        assert fit.coefficients == pytest.approx(expected, abs=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = rng.standard_normal(50)
        fit = fit_ols(DesignProblem(X, y))
        assert np.abs(X.T @ fit.residuals).max() < 1e-8

    def test_rank_deficient_raises(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x, 2.0 * x])
        with pytest.raises(SingularDesignError):
            DesignProblem(X, x)

    @pytest.mark.parametrize("k", [10, 12, 50, 160])
    def test_rank_check_is_scale_free(self, k):
        # a predictor 1e10 and more times its intercept's units was called
        # rank deficient, and at 1e160 the squares of its column norm overflowed;
        # the coefficients scale with it exactly
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        y = 1.0 + 2.0 * x + rng.gamma(2.0, 1.0, 100) - 2.0
        base = fit_ols(build_design(y, [x])).coefficients
        scaled = fit_ols(build_design(y, [x * 10.0**k])).coefficients
        assert scaled * [1.0, 10.0**k] == pytest.approx(base, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
           log_scales=st.lists(st.floats(-12.0, 12.0), min_size=4, max_size=4),
           log_gap=st.floats(-16.0, 0.0))
    def test_rank_verdict_is_that_of_unit_norm_columns(self, seed, k, log_scales, log_gap):
        # the check on X itself only passes designs the unit-norm one passes
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, k))
        X[:, -1] = X[:, 0] + 10.0**log_gap * X[:, -1]  # near-collinear when k > 1
        X *= 10.0 ** np.array(log_scales[:k])
        r = np.linalg.qr(X)[1]
        sv = np.linalg.svd(r / np.sqrt((r * r).sum(axis=0)), compute_uv=False)
        ratio = sv[-1] / sv[0] / linmodel.RANK_RTOL
        assume(abs(ratio - 1.0) > 1e-6)
        if ratio <= 1.0:
            with pytest.raises(SingularDesignError, match="rank deficient"):
                DesignProblem(X, rng.standard_normal(30))
        else:
            DesignProblem(X, rng.standard_normal(30))

    def test_zero_column_is_rank_deficient(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.zeros(10)])
        with pytest.raises(SingularDesignError):
            DesignProblem(X, np.arange(10.0))
        with pytest.raises(SingularDesignError):
            DesignProblem(np.zeros((10, 1)), np.arange(10.0))

    def test_n_not_greater_than_k_raises(self):
        with pytest.raises(SingularDesignError):
            DesignProblem(np.eye(2), np.ones(2))

    def test_pmm_fitters_need_headroom(self):
        prob = DesignProblem(np.column_stack([np.ones(4), np.arange(4.0)]),
                             np.arange(4.0) * 2.0 + 0.5)
        with pytest.raises(InputTooShortError):
            fit_pmm2(prob)
        with pytest.raises(InputTooShortError):
            fit_pmm3(prob)


class TestFactorization:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 500), k=st.integers(1, 4))
    def test_projection_matches_lstsq(self, seed, n, k):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
        y = rng.standard_normal(n) * 10.0 + X @ rng.standard_normal(k)
        projection = DesignProblem(X, y)._proj
        expected = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.abs(projection @ y - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_design_is_factored_once(self, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(a) or qr(*a, **kw))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        prob = build_design(1.0 + 2.0 * x + rng.uniform(-1.0, 1.0, 100), [x])
        for fit in (fit_ols(prob), fit_pmm2(prob), fit_pmm3(prob)):
            assert fit.converged
            asymptotic_covariance(fit, prob)
        assert len(calls) == 1


class TestPmm2:
    def test_symmetric_residuals_reduce_to_ols(self):
        x, e = symmetric_orthogonal_errors()
        prob = build_design(1.0 + 2.0 * x + e, [x])
        ols = fit_ols(prob)
        fit = fit_pmm2(prob)
        assert fit.iterations == 1
        assert fit.converged
        assert fit.coefficients == pytest.approx(ols.coefficients, abs=1e-12)

    def test_gamma_dgp_recovers_coefficients(self):
        fit = fit_pmm2(gamma_problem(n=200, seed=42))
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(1.0, abs=0.15)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=0.15)
        assert 0.0 <= fit.g_coefficient <= 1.0

    def test_score_residual_bound(self):
        # fixed-point stopping rule implies the score norm bound
        tol = 1e-6
        for seed in (1, 2, 3):
            prob = gamma_problem(n=120, seed=seed)
            fit = fit_pmm2(prob, tol=tol)
            assert fit.converged
            mom = fit.moments
            c = pmm2_weight(mom.m2, mom.m3, mom.m4)
            eps = fit.residuals
            score = prob.X.T @ (eps + c * (eps * eps - mom.m2))
            xtx_norm = np.abs(prob.X.T @ prob.X).sum(axis=1).max()
            assert np.abs(score).max() < prob.n * tol * xtx_norm

    def test_fixed_point_matches_grid_minimizer(self):
        # n = 12 handcrafted problem; potential with frozen (c, m2) is
        # minimized over a dense beta grid around the fixed point
        rng = np.random.default_rng(5)
        x = np.linspace(-2.0, 2.0, 12)
        y = 0.5 + 1.5 * x + (rng.gamma(2.0, 1.0, 12) - 2.0)
        prob = build_design(y, [x])
        fit = fit_pmm2(prob, tol=1e-10)
        assert fit.converged
        mom = fit.moments
        c = pmm2_weight(mom.m2, mom.m3, mom.m4)

        def potential(beta):
            eps = y - prob.X @ beta
            return np.sum(eps**2 / 2.0 + c * (eps**3 / 3.0 - mom.m2 * eps))

        b0 = np.linspace(fit.coefficients[0] - 0.05, fit.coefficients[0] + 0.05, 101)
        b1 = np.linspace(fit.coefficients[1] - 0.05, fit.coefficients[1] + 0.05, 101)
        values = np.array([[potential(np.array([a, b])) for b in b1] for a in b0])
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert abs(b0[i] - fit.coefficients[0]) < 1e-3
        assert abs(b1[j] - fit.coefficients[1]) < 1e-3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        prob = gamma_problem(n=80, seed=seed)
        perm = rng.permutation(prob.n)
        fit = fit_pmm2(prob)
        fit_p = fit_pmm2(DesignProblem(prob.X[perm], prob.y[perm]))
        assert fit_p.coefficients == pytest.approx(fit.coefficients, abs=1e-12)

    def test_intercept_shift_equivariance(self):
        prob = gamma_problem(n=150, seed=9)
        shifted = DesignProblem(prob.X, prob.y + 5.0)
        fit, fit_s = fit_pmm2(prob), fit_pmm2(shifted)
        assert fit_s.coefficients[0] == pytest.approx(fit.coefficients[0] + 5.0, abs=1e-8)
        assert fit_s.coefficients[1] == pytest.approx(fit.coefficients[1], abs=1e-8)


class TestIteration:
    @pytest.mark.parametrize("fitter", [fit_pmm2, fit_pmm3])
    def test_moments_once_per_iterate(self, fitter, monkeypatch):
        # one moment set for the OLS start and one per step; the fit reports
        # the last, of its own residuals
        real, calls = linmodel.central_moments, []
        monkeypatch.setattr(linmodel, "central_moments",
                            lambda eps: calls.append(eps) or real(eps))
        fit = fitter(gamma_problem(n=120, seed=3))
        assert fit.iterations > 1
        assert len(calls) == fit.iterations + 1
        assert calls[-1] is fit.residuals

    def test_unconverged_fit_reports_on_the_record_alone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_pmm2(unconverged_pmm2_problem())
        assert (fit.converged, fit.iterations) == (False, 200)
        assert "no convergence after 200 iterations" in fit.warnings


class TestPmm3:
    def test_gaussian_like_reduces_to_ols(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(400)
        y = 1.0 + 2.0 * x + rng.standard_normal(400)
        prob = build_design(y, [x])
        ols, fit = fit_ols(prob), fit_pmm3(prob)
        b1, b3 = pmm3_weights(fit.moments.m2, fit.moments.m4, fit.moments.m6)
        assert abs(b3) * fit.moments.m2 < 0.2 * abs(b1)
        assert fit.coefficients == pytest.approx(ols.coefficients, abs=0.05)

    def test_newton_root_matches_grid_search(self):
        # n = 12 symmetric-error problem; the returned point must zero the
        # score and agree with a brute-force root search over beta
        x = np.linspace(-1.0, 1.0, 12)
        e = np.tile([0.9, -0.9, 0.3, -0.3], 3)  # symmetric, platykurtic
        y = 1.0 + 2.0 * x + e
        prob = build_design(y, [x])
        fit = fit_pmm3(prob, tol=1e-10)
        assert fit.converged
        mom = fit.moments
        b1, b3 = pmm3_weights(mom.m2, mom.m4, mom.m6)

        def score_norm(beta):
            eps = y - prob.X @ beta
            return np.abs(prob.X.T @ (b1 * eps + b3 * eps**3)).max()

        assert score_norm(fit.coefficients) < 1e-6
        b0g = np.linspace(fit.coefficients[0] - 0.05, fit.coefficients[0] + 0.05, 81)
        b1g = np.linspace(fit.coefficients[1] - 0.05, fit.coefficients[1] + 0.05, 81)
        values = np.array([[score_norm(np.array([a, b])) for b in b1g] for a in b0g])
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert abs(b0g[i] - fit.coefficients[0]) < 2e-3
        assert abs(b1g[j] - fit.coefficients[1]) < 2e-3

    def test_asymmetric_data_warns_but_fits(self):
        fit = fit_pmm3(gamma_problem(n=200, seed=4))
        assert any("symmetric" in w for w in fit.warnings)
        assert fit.converged


class TestInference:
    def test_ols_covariance_exact_form(self):
        prob = gamma_problem(n=60, seed=2)
        fit = fit_ols(prob)
        cov = asymptotic_covariance(fit, prob)
        expected = fit.moments.m2 * np.linalg.inv(prob.X.T @ prob.X)
        assert cov == pytest.approx(expected, rel=1e-10)

    def test_covariance_scale_equivariance(self):
        prob = gamma_problem(n=60, seed=8)
        fit = fit_ols(prob)
        doubled = DesignProblem(2.0 * prob.X, prob.y)
        fit2 = fit_ols(doubled)
        c1 = asymptotic_covariance(fit, prob)
        c2 = asymptotic_covariance(fit2, doubled)
        assert c2 == pytest.approx(c1 / 4.0, rel=1e-8)

    def test_pmm2_gamma_covariance_ratio(self):
        prob = gamma_problem(n=20_000, seed=10)
        ols, pmm2 = fit_ols(prob), fit_pmm2(prob)
        ratio = np.diag(asymptotic_covariance(pmm2, prob)) \
            / np.diag(asymptotic_covariance(ols, prob))
        assert ratio == pytest.approx([0.60, 0.60], abs=0.05)

    def test_confidence_interval_quantile(self):
        prob = gamma_problem(n=100, seed=3)
        fit = fit_ols(prob)
        ci = confidence_intervals(fit, prob, level=0.95)
        se = np.sqrt(np.diag(asymptotic_covariance(fit, prob)))
        half = (ci[:, 1] - ci[:, 0]) / 2.0
        assert half == pytest.approx(1.959963984540054 * se, rel=1e-12)

    def test_interval_width_shrinks_like_sqrt_n(self):
        base = gamma_problem(n=100, seed=6)
        X4 = np.tile(base.X, (4, 1))
        y4 = np.tile(base.y, 4)
        fit1 = fit_ols(base)
        fit4 = fit_ols(DesignProblem(X4, y4))
        w1 = np.diff(confidence_intervals(fit1, base), axis=1)
        w4 = np.diff(confidence_intervals(fit4, DesignProblem(X4, y4)), axis=1)
        assert w4 == pytest.approx(w1 / 2.0, rel=0.02)

    def test_pmm2_width_is_sqrt_g2_of_ols(self):
        prob = gamma_problem(n=500, seed=12)
        ols, pmm2 = fit_ols(prob), fit_pmm2(prob)
        w_ols = np.diff(confidence_intervals(ols, prob), axis=1)
        w_pmm2 = np.diff(confidence_intervals(pmm2, prob), axis=1)
        expected = math.sqrt(pmm2.g_coefficient * pmm2.moments.m2 / ols.moments.m2)
        assert w_pmm2 / w_ols == pytest.approx(expected, rel=0.01)

    def test_level_out_of_range(self):
        prob = gamma_problem(n=50, seed=1)
        with pytest.raises(ValueError):
            confidence_intervals(fit_ols(prob), prob, level=1.2)


class TestInformationCriteria:
    def test_unit_variance_residuals(self):
        prob = gamma_problem(n=64, seed=13)
        fit = fit_ols(prob)
        fit.residuals = np.tile([1.0, -1.0], 32)  # RSS/n = 1
        loglik, aic, bic = information_criteria(fit)
        assert loglik == pytest.approx(-32.0 * (math.log(2.0 * math.pi) + 1.0))
        assert aic - bic == pytest.approx((2.0 - math.log(64)) * 3)

    def test_useless_column_never_hurts_loglik(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(80)
        y = 1.0 + x + rng.standard_normal(80)
        small = build_design(y, [x])
        big = build_design(y, [x, rng.standard_normal(80)])
        ll_small, _, _ = information_criteria(fit_ols(small))
        ll_big, _, _ = information_criteria(fit_ols(big))
        assert ll_big >= ll_small - 1e-10

    def test_zero_rss_flagged_infinite(self):
        prob = DesignProblem(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                             np.array([1.0, 3.0, 5.0]))
        fit = fit_ols(prob)
        fit.residuals = np.zeros(3)
        with pytest.warns(RuntimeWarning):
            loglik, aic, bic = information_criteria(fit)
        assert math.isinf(loglik)
