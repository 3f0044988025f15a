import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import unconverged_css_series
from pmmest import tscore
from pmmest.errors import FitFailureError, InputTooShortError
from pmmest.tscore import (
    ModelOrder,
    TsParams,
    _Layout,
    _unit_region_warnings,
    ar_design_matrix,
    css_residuals,
    difference,
    fit_css,
    integrate_forecast,
    minimize_qn,
    simulate_arima,
    ts_asymptotic_covariance,
)
from pmmest.tspmm import fit_ts_pmm2, fit_ts_pmm3


def params_for(order, phi=(), theta=(), Phi=(), Theta=(), mean=0.0):
    return TsParams(np.asarray(phi, float), np.asarray(theta, float),
                    np.asarray(Phi, float), np.asarray(Theta, float), mean)


class TestModelOrder:
    def test_seasonal_requires_period(self):
        with pytest.raises(ValueError):
            ModelOrder(P=1)
        with pytest.raises(ValueError):
            ModelOrder(P=1, s=1)

    def test_include_mean_defaults(self):
        assert ModelOrder(p=1).include_mean is True
        assert ModelOrder(p=1, d=1).include_mean is False
        assert ModelOrder(p=1, D=1, s=4).include_mean is False

    def test_include_mean_forced_false_under_differencing(self):
        assert ModelOrder(p=1, d=1, include_mean=True).include_mean is False

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ModelOrder(p=-1)


class TestTsParams:
    @pytest.mark.parametrize("field", ["phi", "theta", "Phi", "Theta"])
    def test_multi_dimensional_coefficients_rejected(self, field):
        fields = {"phi": [], "theta": [], "Phi": [], "Theta": [], field: [[0.5]]}
        with pytest.raises(ValueError, match=f"{field} must be one-dimensional"):
            TsParams(**fields, mean=0.0)

    def test_fields_coerced_to_float_vectors(self):
        params = TsParams(0.5, (1, 2), [], np.array([3], dtype=np.int64), 1)
        for v in (params.phi, params.theta, params.Phi, params.Theta):
            assert v.dtype == np.float64 and v.ndim == 1
        assert params.theta.tolist() == [1.0, 2.0] and params.mean == 1.0

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.tuples(*[st.integers(0, 3)] * 4), include_mean=st.booleans(),
           data=st.data())
    def test_from_vector_equals_constructor_bit_for_bit(self, sizes, include_mean, data):
        p, q, P, Q = sizes
        order = ModelOrder(p=p, q=q, P=P, Q=Q, s=4 if P or Q else 0,
                           include_mean=include_mean)
        values = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1e-300, 3e300])
                                    | st.floats(allow_nan=False),
                                    min_size=order.n_params, max_size=order.n_params))
        vec = np.array(values, dtype=float)
        fast = TsParams.from_vector(vec, order)
        i = np.cumsum([0, p, q, P, Q])
        ref = TsParams(vec[i[0]:i[1]], vec[i[1]:i[2]], vec[i[2]:i[3]], vec[i[3]:i[4]],
                       vec[i[4]] if include_mean else 0.0)
        for name in ("phi", "theta", "Phi", "Theta"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert type(fast.mean) is type(ref.mean) is float
        assert np.float64(fast.mean).tobytes() == np.float64(ref.mean).tobytes()

    @pytest.mark.parametrize("vec", [np.zeros((2, 1)), np.zeros(3)])
    def test_from_vector_rejects_a_wrong_shape(self, vec):
        order = ModelOrder(p=1, q=1, include_mean=False)
        with pytest.raises(ValueError, match="expected a vector of 2 parameters"):
            TsParams.from_vector(vec, order)
        with pytest.raises(ValueError, match="expected a vector of 2 parameters"):
            css_residuals(np.zeros(5), vec, order)


class TestDifference:
    def test_first_difference(self):
        assert difference(np.array([1.0, 2.0, 4.0]), d=1).tolist() == [1.0, 2.0]

    def test_seasonal_difference(self):
        out = difference(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), D=1, s=2)
        assert out.tolist() == [2.0, 2.0, 2.0, 2.0]

    def test_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0])
        assert difference(x).tolist() == x.tolist()

    def test_too_short(self):
        with pytest.raises(InputTooShortError):
            difference(np.ones(4), d=1, D=1, s=4)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(0, 2), D=st.integers(0, 2),
           s=st.sampled_from([0, 2, 4, 12]), seed=st.integers(0, 2**31),
           m=st.integers(30, 40))
    @example(d=2, D=2, s=2, seed=727, m=30)
    def test_round_trip(self, d, D, s, seed, m):
        if D > 0 and s == 0:
            s = 2
        if s == 0:
            D = 0
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(60).cumsum()
        w = difference(x, d, D, s)
        lost = d + D * s
        restored = integrate_forecast(x[:m], w[m - lost:], d, D, s)
        # rounding error grows with the size of the series and with each
        # order of integration; over 1,500 seeds per case the largest error
        # stayed below 2% of this tolerance
        tol = 1e-13 * 4.0 ** (d + D) * np.max(np.abs(x))
        assert restored == pytest.approx(x[m:], abs=tol)

    def test_random_walk_integration(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        out = integrate_forecast(x, np.zeros(3), d=1)
        assert out.tolist() == [8.0, 8.0, 8.0]

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(0, 2), D=st.integers(1, 2), s=st.sampled_from([2, 3, 4, 12]),
           h=st.integers(0, 40), seed=st.integers(0, 2**31))
    def test_seasonal_integration_equals_element_loop(self, d, D, s, h, seed):
        rng = np.random.default_rng(seed)
        history = rng.standard_normal(d + D * s + 5).cumsum()
        fc = rng.standard_normal(h)
        # reference: the element-by-element recursion out[t] = fc[t] + out[t - s]
        regular = [history]
        for _ in range(d):
            regular.append(np.diff(regular[-1]))
        seasonal = [regular[-1]]
        for _ in range(D):
            seasonal.append(seasonal[-1][s:] - seasonal[-1][:-s])
        expected = fc
        for j in range(D, 0, -1):
            seed_values = seasonal[j - 1][-s:]
            out = np.empty(expected.size)
            for t, v in enumerate(expected):
                out[t] = v + (seed_values[t] if t < s else out[t - s])
            expected = out
        for j in range(d, 0, -1):
            expected = np.cumsum(expected) + regular[j - 1][-1]
        assert integrate_forecast(history, fc, d, D, s).tobytes() == expected.tobytes()


class TestArDesign:
    def test_single_lag(self):
        prob = ar_design_matrix(np.array([1.0, 2.0, 3.0, 4.0]), p=1, include_mean=False)
        assert prob.y.tolist() == [2.0, 3.0, 4.0]
        assert prob.X[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_two_lags(self):
        prob = ar_design_matrix(np.arange(1.0, 7.0), p=2, include_mean=False)
        assert prob.X[0].tolist() == [2.0, 1.0]
        assert prob.X[1].tolist() == [3.0, 2.0]

    @pytest.mark.parametrize("n, p, include_mean", [(11, 5, True), (6, 3, False)])
    def test_no_more_rows_than_columns_is_too_short(self, n, p, include_mean):
        with pytest.raises(InputTooShortError, match="lag design"):
            ar_design_matrix(np.arange(float(n)), p=p, include_mean=include_mean)

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            ar_design_matrix(np.arange(10.0), p=0)


def _lag_product(c, C, s, ma):
    """The AR polynomial of ``_Layout.polynomials``, leading 1 included, with
    lag coefficients ``c`` and seasonal ones ``C`` at period ``s``; the MA one
    when ``ma``."""
    p, P = len(c), len(C)
    order = ModelOrder(p=0 if ma else p, q=p if ma else 0, P=0 if ma else P,
                       Q=P if ma else 0, s=s if P else 0, include_mean=False)
    return _Layout(order).polynomials(np.concatenate([c, C]))[1 if ma else 0]


class TestExpandPolynomial:
    """``_Layout.polynomials``: the full lag polynomial, leading 1 included."""

    def test_seasonal_cross_term(self):
        out = _lag_product(np.array([0.5]), np.array([0.3]), 12, False)
        assert out[1] == pytest.approx(-0.5)
        assert out[12] == pytest.approx(-0.3)
        assert out[13] == pytest.approx(0.15)
        assert np.count_nonzero(out[1:]) == 3

    def test_empty_seasonal_is_identity(self):
        out = _lag_product(np.array([0.4, -0.1]), np.empty(0), 0, False)
        assert out.tolist() == [1.0, -0.4, 0.1]

    def test_empty_both(self):
        assert _lag_product(np.empty(0), np.empty(0), 0, False).tolist() == [1.0]

    def test_degree_adds(self):
        out = _lag_product(np.array([0.5, 0.2]), np.array([0.3, 0.1]), 4, False)
        assert out.size == 1 + 2 + 4 * 2

    def test_ma_expansion_sign(self):
        out = _lag_product(np.array([0.5]), np.array([0.3]), 4, True)
        assert out[1] == pytest.approx(0.5)
        assert out[4] == pytest.approx(0.3)
        assert out[5] == pytest.approx(+0.15)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(0, 4), P=st.integers(0, 2), s=st.sampled_from([0, 4, 12]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_convolution_reference_bit_for_bit(self, p, P, s, seed):
        rng = np.random.default_rng(seed)
        # signed zeros included: the reference's convolution turns -0.0 into 0.0
        pool = np.array([0.0, -0.0, 0.5, -0.25, 1e-300, -3.0])
        c = rng.choice(pool, p) * rng.uniform(0.5, 2.0, p)
        C = rng.choice(pool, P if s else 0)
        ar, ma = _lag_product(c, C, s, False), _lag_product(c, C, s, True)
        assert (ar[0], ma[0]) == (1.0, 1.0)
        assert (-ar[1:]).tobytes() == _expand_reference(c, C, s).tobytes()
        assert ma[1:].tobytes() == (-_expand_reference(-c, -C, s)).tobytes()


def _expand_reference(c, C, s):
    """Reference expansion: both factors convolved, a seasonal [1.0] included."""
    p1 = np.concatenate([[1.0], -np.asarray(c, dtype=float)])
    p2 = np.zeros(1 + s * len(C))
    p2[0] = 1.0
    for k in range(len(C)):
        p2[s * (k + 1)] = -C[k]
    return -np.convolve(p1, p2)[1:]


def _unit_region_reference(params, order):
    """Unit-circle warnings from the expanded lag coefficients, each polynomial
    handed to np.roots as [c_L, ..., c_1, 1]."""
    warns = []
    for name, coefs, region in (
            ("AR", _lag_product(params.phi, params.Phi, order.s, False)[1:], "non-stationary"),
            ("MA", _lag_product(params.theta, params.Theta, order.s, True)[1:],
             "non-invertible")):
        if coefs.size:
            roots = np.roots(np.concatenate([coefs[::-1], [1.0]]))
            if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-8:
                warns.append(f"{name} polynomial has a root on or inside the unit "
                             f"circle ({region} region)")
    return warns


# -1e-6 -+ 1e-9 and -1.01e-6 -+ 1e-9 put sum |c_l| on either side of the margin
# 1 - 1e-6 of _unit_region_warnings' bound (the latter for degree 1, where
# the bound carries a factor 1 + 1e-8)
_OFFSETS = st.sampled_from([-1e-3, -1.01e-6 - 1e-9, -1.01e-6 + 1e-9, -1e-6 - 1e-9, -1e-6,
                            -1e-6 + 1e-9, -2e-8, -1e-8, -1e-12, 0.0,
                            1e-12, 1e-8, 2e-8, 1e-6, 1e-3, 0.3])


def _lag_coefficients(rng, degree, how, eps):
    """c of 1 + sum_l c_l z^l: sum |c_l| = 1 + eps ("sum"), a real root or a
    complex pair of modulus 1 + eps ("root"), or uniform on [-1, 1] ("plain")."""
    if degree == 0:
        return np.empty(0)
    if how == "sum":
        c = rng.uniform(-1.0, 1.0, degree)
        return c * ((1.0 + eps) / np.abs(c).sum())
    if how == "root":
        roots = rng.uniform(1.5, 4.0, degree) * rng.choice([-1.0, 1.0], degree)
        roots = roots.astype(complex)
        if degree >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.1, 3.0)
            roots[:2] = (1.0 + eps) * np.exp([1j * angle, -1j * angle])
        else:
            roots[0] = rng.choice([-1.0, 1.0]) * (1.0 + eps)
        return np.real(np.poly(1.0 / roots))[1:]
    return rng.uniform(-1.0, 1.0, degree)


_HOW = st.sampled_from(["sum", "root", "plain"])


class TestUnitRegionWarnings:
    @settings(max_examples=400, deadline=None)
    @given(p=st.integers(0, 4), q=st.integers(0, 4), P=st.integers(0, 2),
           Q=st.integers(0, 2), s=st.sampled_from([0, 4, 12]), how=st.tuples(_HOW, _HOW),
           eps=st.tuples(_OFFSETS, _OFFSETS), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_always_roots_reference(self, p, q, P, Q, s, how, eps, seed):
        if not s:
            P = Q = 0
        rng = np.random.default_rng(seed)
        order = ModelOrder(p=p, q=q, P=P, Q=Q, s=s)
        params = params_for(order,
                            phi=-_lag_coefficients(rng, p, how[0], eps[0]),
                            theta=_lag_coefficients(rng, q, how[1], eps[1]),
                            Phi=-_lag_coefficients(rng, P, "plain", 0.0) * 0.5,
                            Theta=_lag_coefficients(rng, Q, "plain", 0.0) * 0.5)
        warns = []
        _unit_region_warnings(*_Layout(order).polynomials(params.to_vector(order)), warns)
        assert warns == _unit_region_reference(params, order)

    @pytest.mark.parametrize("field", ["phi", "theta", "Phi", "Theta"])
    def test_nan_coefficients_raise_like_reference(self, field):
        order = ModelOrder(p=1, q=1, P=1, Q=1, s=4)
        values = {"phi": [0.5], "theta": [0.2], "Phi": [0.1], "Theta": [0.1], field: [np.nan]}
        params = params_for(order, **values)
        with pytest.raises(Exception) as ref:
            _unit_region_reference(params, order)
        with pytest.raises(ref.type, match=re.escape(str(ref.value))):
            _unit_region_warnings(*_Layout(order).polynomials(params.to_vector(order)), [])


class TestCssResiduals:
    def test_ar1_recursion(self):
        order = ModelOrder(p=1, include_mean=False)
        eps = css_residuals(np.array([1.0, 2.0, 3.0]), params_for(order, phi=[0.5]), order)
        assert eps == pytest.approx([1.0, 1.5, 2.0])

    def test_ma1_recursion(self):
        order = ModelOrder(q=1, include_mean=False)
        eps = css_residuals(np.array([1.0, 1.0]), params_for(order, theta=[0.5]), order)
        assert eps == pytest.approx([1.0, 0.5])

    def test_all_zero_parameters(self):
        order = ModelOrder(p=1, q=1)
        w = np.array([2.0, 4.0, 1.0])
        eps = css_residuals(w, params_for(order, phi=[0.0], theta=[0.0], mean=1.5), order)
        assert eps == pytest.approx(w - 1.5)

    def test_seasonal_recursion_matches_manual(self):
        order = ModelOrder(p=1, P=1, s=4, include_mean=False)
        params = params_for(order, phi=[0.5], Phi=[0.3])
        rng = np.random.default_rng(0)
        w = rng.standard_normal(12)
        eps = css_residuals(w, params, order)
        # manual: e_t = w_t - 0.5 w_{t-1} - 0.3 w_{t-4} + 0.15 w_{t-5}
        manual = np.empty(12)
        for t in range(12):
            v = w[t]
            if t >= 1:
                v -= 0.5 * w[t - 1]
            if t >= 4:
                v -= 0.3 * w[t - 4]
            if t >= 5:
                v += 0.15 * w[t - 5]
            manual[t] = v
        assert eps == pytest.approx(manual, abs=1e-12)

    def test_ar_rows_equal_regression_residuals(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(40)
        order = ModelOrder(p=2, include_mean=False)
        params = params_for(order, phi=[0.4, -0.2])
        eps = css_residuals(w, params, order)
        prob = ar_design_matrix(w, p=2, include_mean=False)
        reg_resid = prob.y - prob.X @ np.array([0.4, -0.2])
        assert eps[2:] == pytest.approx(reg_resid, abs=1e-12)


def gamma_ar1_half(scale):
    """A Gamma AR(1) series, phi = 0.5 and n = 300, times ``scale``."""
    eps = np.random.default_rng(42).gamma(2.0, 1.0, 450) - 2.0
    order = ModelOrder(p=1, include_mean=False)
    return scale * simulate_arima(order, params_for(order, phi=[0.5]), eps, burnin=150)


class TestFitCss:
    @pytest.mark.parametrize("k", [10, 20, 50])
    def test_ar1_with_mean_at_large_scales(self, k):
        # the lag design's intercept and lag columns differ by the data scale;
        # the rank check used to reject them from about 1e10
        order = ModelOrder(p=1)
        phi = fit_css(gamma_ar1_half(1.0), order).params.phi[0]
        assert fit_css(gamma_ar1_half(10.0**k), order).params.phi[0] == pytest.approx(
            phi, rel=1e-10)

    def test_non_finite_coefficients_are_a_fit_failure(self):
        # PMM3's weights overflow at this scale; the fit reached NaN and
        # np.roots raised a bare LinAlgError
        with pytest.raises(FitFailureError, match="non-finite coefficients"):
            fit_ts_pmm3(gamma_ar1_half(1e50), ModelOrder(p=1))

    def test_ar1_recovery(self):
        rng = np.random.default_rng(42)
        order = ModelOrder(p=1)
        x = simulate_arima(order, params_for(order, phi=[0.7]),
                           rng.standard_normal(300), burnin=100)
        fit = fit_css(x, order)
        assert fit.converged
        assert fit.params.phi[0] == pytest.approx(0.7, abs=0.12)

    def test_white_noise_ar1_near_zero(self):
        rng = np.random.default_rng(24)
        fit = fit_css(rng.standard_normal(200), ModelOrder(p=1))
        assert fit.params.phi[0] == pytest.approx(0.0, abs=0.15)

    def test_ma1_matches_grid_search(self):
        rng = np.random.default_rng(6)
        order = ModelOrder(q=1, include_mean=False)
        x = simulate_arima(order, params_for(order, theta=[0.5]),
                           rng.standard_normal(80), burnin=40)
        fit = fit_css(x, order)
        grid = np.linspace(-0.95, 0.95, 3801)
        css = [np.sum(css_residuals(x, params_for(order, theta=[t]), order) ** 2)
               for t in grid]
        assert abs(fit.params.theta[0] - grid[np.argmin(css)]) < 1e-3

    def test_objective_not_worse_than_start(self):
        rng = np.random.default_rng(8)
        order = ModelOrder(p=1, q=1)
        x = simulate_arima(order, params_for(order, phi=[0.5], theta=[0.3]),
                           rng.standard_normal(260), burnin=60)
        fit = fit_css(x, order)
        start = params_for(order, phi=[0.0], theta=[0.0], mean=float(np.mean(x)))
        start_obj = np.sum(css_residuals(x, start, order) ** 2)
        assert fit.objective <= start_obj + 1e-9

    def test_trivial_mean_only_model(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(50) + 3.0
        fit = fit_css(x, ModelOrder())
        assert fit.params.mean == pytest.approx(np.mean(x), abs=1e-12)
        assert fit.residuals == pytest.approx(x - np.mean(x), abs=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(InputTooShortError):
            fit_css(np.ones(6), ModelOrder(p=1))

    def test_unconverged_fit_reports_on_the_record_alone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_css(unconverged_css_series(), ModelOrder(p=1, q=1))
        assert not fit.converged
        assert "CSS optimizer did not converge" in fit.warnings

    def test_covariance_requires_a_converged_fit(self):
        fit = fit_css(unconverged_css_series(), ModelOrder(p=1, q=1))
        with pytest.raises(FitFailureError, match="requires a converged fit"):
            ts_asymptotic_covariance(fit)

    @pytest.mark.parametrize("fitter", [fit_css, fit_ts_pmm2, fit_ts_pmm3])
    @pytest.mark.parametrize("n, order", [
        (11, ModelOrder(p=5)),         # passes the length rule, lag design too small
        (7, ModelOrder(p=1, d=1)),     # fails the length rule
        (8, ModelOrder(q=1, P=1, s=2)),
    ])
    def test_every_method_shares_one_length_rule(self, fitter, n, order):
        x = np.random.default_rng(3).standard_normal(n).cumsum()
        with pytest.raises(InputTooShortError):
            fitter(x, order)

    @pytest.mark.parametrize("fitter, extra", [(fit_ts_pmm2, 4), (fit_ts_pmm3, 6)])
    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_length_rule_covers_the_pmm_lag_design(self, fitter, extra, d, p):
        # the lag design of k columns needs k + extra rows; ARI PMM2 takes the
        # two-stage route, which needs only more than p + d + 5 observations
        k = p + int(d == 0)
        shortest = p + d + 6
        if fitter is fit_ts_pmm3 or d == 0:
            shortest = max(shortest, d + p + k + extra)
        x = np.random.default_rng(0).standard_normal(shortest + 1)
        if d:
            x = x.cumsum()
        order = ModelOrder(p=p, d=d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (shortest - 2, shortest - 1):
                with pytest.raises(InputTooShortError, match=f"series length {n} too short"):
                    fitter(x[:n], order)
            for n in (shortest, shortest + 1):
                assert fitter(x[:n], order).params.phi.size == p


class TestMinimizeQn:
    def test_stops_on_non_finite_gradient(self):
        # a difference point past |x| = 1 sees +inf: the gradient is infinite
        calls = []

        def f(v):
            calls.append(v.copy())
            return float(v @ v) if np.max(np.abs(v)) < 1.0 else np.inf

        x0 = np.array([1.0 - 1e-7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, fx, converged = minimize_qn(f, x0)
        assert (x.tobytes(), fx, converged) == (x0.tobytes(), float(x0 @ x0), False)
        assert len(calls) == 3

    def test_relative_drop_stop_takes_no_last_gradient(self):
        # The offset makes the 1e-12 relative drop test fire while the gradient
        # is still far above 1e-8; the run then ends on the accepted trial
        # point, with no gradient taken there.
        calls = []

        def f(v):
            calls.append(v.copy())
            return 1e6 + float((v - 3.0) @ (v - 3.0))

        x, fx, converged = minimize_qn(f, np.array([0.0, 1.0]))
        assert converged
        assert np.max(np.abs(x - 3.0)) > 1e-8  # not the gradient-norm stop
        assert calls[-1].tobytes() == x.tobytes()
        assert f(x) == fx


class TestSimulate:
    def test_zero_params_identity(self):
        order = ModelOrder(include_mean=False)
        eps = np.array([1.0, -2.0, 0.5, 3.0])
        assert simulate_arima(order, params_for(order), eps).tolist() == eps.tolist()

    def test_random_walk_is_cumsum(self):
        order = ModelOrder(d=1)
        eps = np.array([1.0, 2.0, -1.0, 0.5])
        out = simulate_arima(order, params_for(order), eps)
        assert out == pytest.approx(np.cumsum(eps))

    def test_ar1_autocorrelation(self):
        rng = np.random.default_rng(33)
        order = ModelOrder(p=1, include_mean=False)
        x = simulate_arima(order, params_for(order, phi=[0.7]),
                           rng.standard_normal(60_000), burnin=500)
        xd = x - x.mean()
        acf1 = np.dot(xd[1:], xd[:-1]) / np.dot(xd, xd)
        assert acf1 == pytest.approx(0.7, abs=0.05)

    def test_seasonal_integration_round_trip(self):
        order = ModelOrder(p=1, D=1, s=4, include_mean=False)
        rng = np.random.default_rng(4)
        x = simulate_arima(order, params_for(order, phi=[0.4]),
                           rng.standard_normal(120), burnin=20)
        w = difference(x, 0, 1, 4)
        # the seasonally differenced series is the AR(1) recursion output
        order0 = ModelOrder(p=1, include_mean=False)
        eps = css_residuals(w, params_for(order0, phi=[0.4]), order0)
        assert np.isfinite(eps).all()
        assert w.size == x.size - 4


_layout_orders = st.builds(
    lambda p, q, P, Q, s, d, mean: ModelOrder(p=p, q=q, P=P if s else 0, Q=Q if s else 0,
                                              s=s, d=d, include_mean=mean),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([0, 4, 12]), st.integers(0, 1), st.booleans())


class TestLayout:
    """``_Layout``: one per fit, its polynomials written in place."""

    @staticmethod
    def reference_residuals(w, vec, order):
        # the reference expansion of both polynomials, then the one filter
        phi, theta, Phi, Theta, mean = tscore._split(vec, order)
        num = np.concatenate([[1.0], -_expand_reference(phi, Phi, order.s)])
        den = np.concatenate([[1.0], -_expand_reference(-theta, -Theta, order.s)])
        return tscore._lfilter(num, den, w - mean)

    @settings(max_examples=300, deadline=None)
    @given(order=_layout_orders, n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_residuals_equal_reference_expansion_bit_for_bit(self, order, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n)
        pool = np.array([0.0, -0.0, 0.5, -0.25, 1e-300, -0.9])

        def draw():
            return rng.choice(pool, order.n_params) * rng.uniform(0.5, 1.0, order.n_params)

        v1, v2 = draw(), draw()
        kept = _Layout(order).polynomials(v1)  # a caller that keeps them owns them
        kept_bytes = [a.tobytes() for a in kept]
        layout = _Layout(order)
        e1 = css_residuals(w, v1, order, layout)
        e2 = css_residuals(w, v2, order, layout)
        assert e1.tobytes() == self.reference_residuals(w, v1, order).tobytes()
        assert e2.tobytes() == self.reference_residuals(w, v2, order).tobytes()
        assert css_residuals(w, v2, order).tobytes() == e2.tobytes()
        assert [a.tobytes() for a in kept] == kept_bytes

    def test_wrong_shape_is_a_value_error(self):
        order = ModelOrder(p=1, q=1)
        layout = _Layout(order)
        for bad in (np.zeros(2), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="expected a vector of 3 parameters, got shape"):
                css_residuals(np.ones(10), bad, order, layout)

    def test_a_fit_builds_its_polynomials_once(self, monkeypatch):
        calls = []
        polynomials = _Layout.polynomials
        monkeypatch.setattr(_Layout, "polynomials",
                            lambda self, vec: calls.append(1) or polynomials(self, vec))
        fit_css(np.random.default_rng(2).standard_normal(200), ModelOrder(p=1))
        assert len(calls) == 1


class TestRefitStart:
    def fit(self):
        order = ModelOrder(p=1, q=1)
        x = simulate_arima(order, params_for(order, phi=[0.5], theta=[0.3], mean=1.0),
                           np.random.default_rng(8).gamma(2.0, 1.0, 200) - 2.0)
        return fit_css(x, order)

    def test_inverse_of_jtj(self):
        fit = self.fit()
        vec, inverse = tscore._refit_start(fit)
        assert vec.tobytes() == fit.coefficients.tobytes()
        assert inverse @ tscore._residual_jtj(fit) == pytest.approx(np.eye(3), abs=1e-9)

    @pytest.mark.parametrize("jtj", [np.ones((3, 3)), np.diag([1.0, -1.0, 1.0])])
    def test_identity_where_cholesky_fails(self, monkeypatch, jtj):
        fit = self.fit()
        monkeypatch.setattr(tscore, "_residual_jtj", lambda f: jtj)
        start = tscore._refit_start(fit)
        assert start[1] is None
        seen = []
        qn = tscore.minimize_qn
        monkeypatch.setattr(tscore, "minimize_qn",
                            lambda f, x0, H0=None: seen.append(H0) or qn(f, x0, H0))
        refit = tscore._fit_series("PMM2", fit.original_series, fit.order, start=start)
        assert refit.converged and seen == [None, None]

    def test_no_start_for_orders_without_quasi_newton(self):
        fit = fit_css(np.random.default_rng(2).standard_normal(200), ModelOrder(p=1))
        assert tscore._refit_start(fit) is None

    def test_curvature_scales_the_initial_inverse_hessian(self, monkeypatch):
        fit = self.fit()
        start = tscore._refit_start(fit)
        seen = []
        qn = tscore.minimize_qn
        monkeypatch.setattr(tscore, "minimize_qn",
                            lambda f, x0, H0=None: seen.append(H0) or qn(f, x0, H0))
        refit = tscore._fit_series("PMM2", fit.original_series, fit.order, start=start)
        assert refit.converged
        assert seen[0].tobytes() == (0.5 * start[1]).tobytes()  # (2 J'J)^-1, CSS stage
        assert seen[1].tobytes() == (start[1] / 1.0).tobytes()  # PMM2's E[psi'] is 1
