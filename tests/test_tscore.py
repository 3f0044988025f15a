import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmest.errors import InputTooShortError
from pmmest.tscore import (
    ModelOrder,
    TsParams,
    _unit_region_warnings,
    ar_design_matrix,
    css_residuals,
    difference,
    expand_polynomial,
    fit_css,
    integrate_forecast,
    ma_expand_polynomial,
    simulate_arima,
)


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
        assert restored == pytest.approx(x[m:], abs=1e-12)

    def test_random_walk_integration(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        out = integrate_forecast(x, np.zeros(3), d=1)
        assert out.tolist() == [8.0, 8.0, 8.0]


class TestArDesign:
    def test_single_lag(self):
        prob = ar_design_matrix(np.array([1.0, 2.0, 3.0, 4.0]), p=1, include_mean=False)
        assert prob.y.tolist() == [2.0, 3.0, 4.0]
        assert prob.X[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_two_lags(self):
        prob = ar_design_matrix(np.arange(1.0, 7.0), p=2, include_mean=False)
        assert prob.X[0].tolist() == [2.0, 1.0]
        assert prob.X[1].tolist() == [3.0, 2.0]

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            ar_design_matrix(np.arange(10.0), p=0)


class TestExpandPolynomial:
    def test_seasonal_cross_term(self):
        out = expand_polynomial([0.5], [0.3], s=12)
        assert out[0] == pytest.approx(0.5)
        assert out[11] == pytest.approx(0.3)
        assert out[12] == pytest.approx(-0.15)
        assert np.count_nonzero(out) == 3

    def test_empty_seasonal_is_identity(self):
        assert expand_polynomial([0.4, -0.1]).tolist() == [0.4, -0.1]

    def test_empty_both(self):
        assert expand_polynomial([]).size == 0

    def test_degree_adds(self):
        out = expand_polynomial([0.5, 0.2], [0.3, 0.1], s=4)
        assert out.size == 2 + 4 * 2

    def test_ma_expansion_sign(self):
        out = ma_expand_polynomial([0.5], [0.3], s=4)
        assert out[0] == pytest.approx(0.5)
        assert out[3] == pytest.approx(0.3)
        assert out[4] == pytest.approx(+0.15)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(0, 4), P=st.integers(0, 2), s=st.sampled_from([0, 4, 12]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_convolution_reference_bit_for_bit(self, p, P, s, seed):
        rng = np.random.default_rng(seed)
        # signed zeros included: the reference's convolution turns -0.0 into 0.0
        pool = np.array([0.0, -0.0, 0.5, -0.25, 1e-300, -3.0])
        c = rng.choice(pool, p) * rng.uniform(0.5, 2.0, p)
        C = rng.choice(pool, P if s else 0)
        assert expand_polynomial(c, C, s).tobytes() == _expand_reference(c, C, s).tobytes()
        assert ma_expand_polynomial(c, C, s).tobytes() == \
            (-_expand_reference(-c, -C, s)).tobytes()


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
            ("AR", -expand_polynomial(params.phi, params.Phi, order.s), "non-stationary"),
            ("MA", ma_expand_polynomial(params.theta, params.Theta, order.s),
             "non-invertible")):
        if coefs.size:
            roots = np.roots(np.concatenate([coefs[::-1], [1.0]]))
            if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-8:
                warns.append(f"{name} polynomial has a root on or inside the unit "
                             f"circle ({region} region)")
    return warns


_OFFSETS = st.sampled_from([-1e-3, -1e-6, -2e-8, -1e-8, -1e-12, 0.0,
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
        _unit_region_warnings(params, order, warns)
        assert warns == _unit_region_reference(params, order)

    @pytest.mark.parametrize("field", ["phi", "theta", "Phi", "Theta"])
    def test_nan_coefficients_raise_like_reference(self, field):
        order = ModelOrder(p=1, q=1, P=1, Q=1, s=4)
        values = {"phi": [0.5], "theta": [0.2], "Phi": [0.1], "Theta": [0.1], field: [np.nan]}
        params = params_for(order, **values)
        with pytest.raises(Exception) as ref:
            _unit_region_reference(params, order)
        with pytest.raises(ref.type, match=re.escape(str(ref.value))):
            _unit_region_warnings(params, order, [])


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


class TestFitCss:
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
