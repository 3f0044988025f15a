import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmest.cumulants import (
    _SCORES,
    MomentSet,
    _clamped_g2,
    _clamped_g3,
    central_moments,
    g2_coefficient,
    g3_coefficient,
    pmm2_weight,
    pmm3_weights,
)
from pmmest.errors import (
    DegenerateMomentsError,
    InadmissibleCumulantsError,
    InputTooShortError,
    MomentOverflowError,
    PmmError,
)
from pmmest.linmodel import build_design, fit_ols, fit_pmm2
from pmmest.tscore import ModelOrder, _capped, ar_design_matrix
from pmmest.tspmm import fit_ts_pmm2

# Exact central moments (m2, m4, m6) of symmetric reference laws.
UNIFORM_M = (1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0)      # Uniform(-1, 1)
LAPLACE_M = (1.0, 6.0, 90.0)                       # Laplace with unit variance
TRIANGULAR_M = (1.0 / 6.0, 1.0 / 15.0, 1.0 / 28.0)  # symmetric triangular on (-1, 1)
GAUSSIAN_M = (1.0, 3.0, 15.0)


class TestCentralMoments:
    def test_symmetric_four_point(self):
        m = central_moments(np.array([-1.0, 0.0, 0.0, 1.0]))
        assert m.mean == 0.0
        assert m.m2 == pytest.approx(2.0 / 3.0)
        assert m.m3 == 0.0
        assert m.gamma3 == 0.0

    def test_too_short_raises(self):
        with pytest.raises(InputTooShortError):
            central_moments([-1.0, 0.0, 1.0])

    def test_constant_vector_degenerate(self):
        m = central_moments(np.full(10, 3.25))
        assert m.degenerate
        assert m.m2 == m.m3 == m.m4 == m.m6 == 0.0
        assert math.isnan(m.gamma3) and math.isnan(m.gamma4) and math.isnan(m.gamma6)

    def test_gamma_sample_cumulants(self):
        rng = np.random.default_rng(20240817)
        x = rng.gamma(2.0, 1.0, 100_000) - 2.0
        m = central_moments(x)
        assert m.gamma3 == pytest.approx(math.sqrt(2.0), abs=0.05)
        assert m.gamma4 == pytest.approx(3.0, abs=0.2)

    def test_uniform_sample_cumulants(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 100_000)
        m = central_moments(x)
        assert m.gamma4 == pytest.approx(-1.2, abs=0.05)
        assert m.gamma6 == pytest.approx(48.0 / 7.0, abs=0.3)

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 2**31))
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) + rng.gamma(2.0, 1.0, 64)
        base, scaled = central_moments(x), central_moments(scale * x)
        assert scaled.m2 == pytest.approx(scale**2 * base.m2, rel=1e-9)
        assert scaled.m3 == pytest.approx(scale**3 * base.m3, rel=1e-9)
        assert scaled.m4 == pytest.approx(scale**4 * base.m4, rel=1e-9)
        assert scaled.m6 == pytest.approx(scale**6 * base.m6, rel=1e-9)
        assert scaled.gamma3 == pytest.approx(base.gamma3, rel=1e-8, abs=1e-10)
        assert scaled.gamma4 == pytest.approx(base.gamma4, rel=1e-8, abs=1e-10)
        assert scaled.gamma6 == pytest.approx(base.gamma6, rel=1e-7, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 400),
           log_scale=st.floats(-8.0, 8.0), shift=st.floats(-1e3, 1e3))
    def test_textbook_moments_and_affine_equivariance(self, seed, n, log_scale, shift):
        # The shift is given in units of the scale: a shift far beyond the
        # spread of s*x erases x in floating point before any moment is taken.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + rng.gamma(2.0, 1.0, n)
        d = x - x.mean()
        base = central_moments(x)
        s = 10.0**log_scale
        moved = central_moments(s * x + s * shift)
        for k, got, got_moved in ((2, base.m2 * (n - 1) / n, moved.m2 * (n - 1) / n),
                                  (3, base.m3, moved.m3), (4, base.m4, moved.m4),
                                  (6, base.m6, moved.m6)):
            textbook, size = np.mean(d**k), np.mean(np.abs(d) ** k)
            assert abs(got - textbook) <= 1e-12 * size
            assert abs(got_moved - s**k * got) <= 1e-9 * s**k * size

    def test_overflowing_moments_raise_a_pmm_error(self):
        # finite m2 whose cube leaves the float range
        with np.errstate(over="ignore"), pytest.raises(MomentOverflowError, match="overflow"):
            central_moments(np.array([-1e110, 0.0, 0.0, 1e110]))

    @pytest.mark.parametrize("scale", [1e-55, 1e-160])
    def test_underflowing_moments_raise_a_pmm_error(self, scale):
        # m2 > 0 whose powers underflow to 0 made the cumulant divisions raise
        # a bare ZeroDivisionError, from every entry point
        x = np.random.default_rng(0).standard_normal(40) * scale
        with pytest.raises(MomentOverflowError, match="underflow"):
            central_moments(x)
        with pytest.raises(MomentOverflowError, match="underflow"):
            fit_ols(build_design(x, [np.arange(40.0)]))

    @pytest.mark.parametrize("fit", [
        lambda x: fit_ts_pmm2(x, ModelOrder(p=1)),
        lambda x: fit_pmm2(ar_design_matrix(x, 1)),
    ], ids=["fit_ts_pmm2", "fit_pmm2"])
    def test_diverging_pmm2_iteration_raises_a_pmm_error(self, fit):
        # the fixed-point iteration diverges on these 7 values until the
        # residual moments overflow; a replicate loop counts a PmmError as a
        # failed replicate, where a bare OverflowError would abort the run;
        # the overflow is that error alone, without numpy's RuntimeWarning
        x = np.random.default_rng(23).standard_normal(8)[:7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PmmError, match="overflow"):
                fit(x)

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(-1e100, 1e100), n=st.integers(4, 500))
    def test_constant_input_is_degenerate(self, value, n):
        m = central_moments(np.full(n, value))
        assert m.degenerate
        assert m.m2 == m.m3 == m.m4 == m.m6 == 0.0


class TestG2:
    @pytest.mark.parametrize("gamma3, gamma4, expected", [
        (math.sqrt(2.0), 3.0, 0.60),
        (-0.759, 5.858, 0.927),
        (1.633, 4.0, 0.556),
    ])
    def test_reference_values(self, gamma3, gamma4, expected):
        assert g2_coefficient(gamma3, gamma4) == pytest.approx(expected, abs=5e-4)

    def test_symmetric_gives_one(self):
        for gamma4 in (-1.5, 0.0, 2.0, 10.0):
            assert g2_coefficient(0.0, gamma4) == 1.0

    def test_denominator_nonpositive_raises(self):
        with pytest.raises(InadmissibleCumulantsError):
            g2_coefficient(0.1, -2.0)

    def test_cumulant_inequality_raises(self):
        with pytest.raises(InadmissibleCumulantsError):
            g2_coefficient(2.0, 1.0)  # gamma3^2 = 4 > 3

    @settings(max_examples=100, deadline=None)
    @given(gamma3=st.floats(-3.0, 3.0), slack=st.floats(1e-6, 10.0))
    def test_sign_flip_and_range(self, gamma3, slack):
        gamma4 = gamma3 * gamma3 + slack - 2.0  # admissible by construction
        g = g2_coefficient(gamma3, gamma4)
        assert g == g2_coefficient(-gamma3, gamma4)
        assert 0.0 <= g <= 1.0


class TestG3:
    @pytest.mark.parametrize("gamma4, gamma6, expected, tol", [
        (-1.2, 6.857, 0.30, 5e-4),
        (0.0, 0.0, 1.0, 0.0),
        (3.0, 30.0, 6.0 / 7.0, 1e-12),
        (-0.6, 1.7, 0.843, 5e-4),
    ])
    def test_reference_values(self, gamma4, gamma6, expected, tol):
        assert g3_coefficient(gamma4, gamma6) == pytest.approx(expected, abs=max(tol, 1e-12))

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleCumulantsError):
            g3_coefficient(-2.5, 50.0)
        with pytest.raises(InadmissibleCumulantsError):
            g3_coefficient(0.0, -6.0)  # zero denominator
        with pytest.raises(InadmissibleCumulantsError):
            g3_coefficient(3.0, -25.0)  # gamma4^2 = 9 > denominator = 8

    @settings(max_examples=100, deadline=None)
    @given(gamma4=st.floats(-1.9, 8.0), slack=st.floats(1e-6, 30.0))
    def test_range(self, gamma4, slack):
        gamma6 = gamma4 * gamma4 + slack - 6.0 - 9.0 * gamma4
        g = g3_coefficient(gamma4, gamma6)
        assert 0.0 <= g <= 1.0


def moments_with(gamma3=0.0, gamma4=0.0, gamma6=0.0):
    return MomentSet(100, 0.0, 1.0, 0.0, 3.0, 15.0, gamma3, gamma4, gamma6)


class TestSampleClamps:
    def test_admissible_equals_coefficients(self):
        warns = []
        assert _clamped_g2(moments_with(1.2, 2.0), warns) == g2_coefficient(1.2, 2.0)
        assert _clamped_g3(moments_with(0.0, -1.2, 6.857), warns) == g3_coefficient(-1.2, 6.857)
        assert warns == []

    def test_inadmissible_g2_clamps_to_zero(self):
        for gamma3, gamma4 in ((2.0, 0.0), (0.5, -2.5)):
            warns = []
            assert _clamped_g2(moments_with(gamma3, gamma4), warns) == 0.0
            assert warns == ["sample cumulants inadmissible for g2; clamped to 0"]

    def test_inadmissible_g3_clamps_into_unit_interval(self):
        # gamma4 < -2 (a two-point sample) with an otherwise valid formula value
        warns = []
        g = _clamped_g3(moments_with(0.0, -2.02, 16.27), warns)
        assert g == pytest.approx(1.0 - 2.02**2 / (6.0 - 9.0 * 2.02 + 16.27), rel=1e-12)
        assert 0.0 < g < 1.0 and len(warns) == 1
        assert _clamped_g3(moments_with(0.0, 3.0, -25.0), []) == 0.0

    def test_missing_moments_give_one(self):
        warns = []
        assert _clamped_g2(None, warns) == 1.0
        assert _clamped_g3(central_moments(np.ones(10)), warns) == 1.0
        assert len(warns) == 2


class TestPmm2Weight:
    def test_gamma_exact(self):
        c = pmm2_weight(2.0, 4.0, 24.0)
        assert c == pytest.approx(-0.2, abs=1e-15)
        # corrected-score variance m2 + 2cm3 + c^2(m4 - m2^2) hits m2 * g2
        var = 2.0 + 2.0 * c * 4.0 + c * c * (24.0 - 4.0)
        assert var == pytest.approx(1.2, abs=1e-12)
        assert var == pytest.approx(2.0 * 0.60, abs=1e-12)

    def test_symmetric_and_gaussian_give_zero(self):
        assert pmm2_weight(1.3, 0.0, 5.0) == 0.0
        assert pmm2_weight(1.0, 0.0, 3.0) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateMomentsError):
            pmm2_weight(2.0, 1.0, 4.0)  # m4 = m2^2

    @pytest.mark.parametrize("m2, m3, m4", [
        (2.0, 4.0, 24.0),            # Gamma(2,1)
        (1.0, 2.828427124746190, 15.0),  # chisq-like skewed
        (0.5, -0.3, 1.0),
    ])
    def test_grid_minimization_oracle(self, m2, m3, m4):
        # brute-force: Var(c) = m2 + 2 c m3 + c^2 (m4 - m2^2) over a fine grid
        c_hat = pmm2_weight(m2, m3, m4)
        grid = np.linspace(c_hat - 1.0, c_hat + 1.0, 20001)
        var = m2 + 2.0 * grid * m3 + grid**2 * (m4 - m2 * m2)
        step = grid[1] - grid[0]
        assert abs(grid[np.argmin(var)] - c_hat) <= step


class TestPmm3Weights:
    def test_uniform_exact(self):
        b1, b3 = pmm3_weights(*UNIFORM_M)
        assert b1 == pytest.approx(-7.5, rel=1e-12)
        assert b3 == pytest.approx(17.5, rel=1e-12)
        assert b1 + 3.0 * UNIFORM_M[0] * b3 == pytest.approx(10.0, rel=1e-12)

    def test_gaussian_reduces_to_ols(self):
        b1, b3 = pmm3_weights(*GAUSSIAN_M)
        assert b1 == pytest.approx(1.0, abs=1e-14)
        assert b3 == pytest.approx(0.0, abs=1e-14)

    def test_laplace_exact(self):
        b1, b3 = pmm3_weights(*LAPLACE_M)
        assert b1 == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert b3 == pytest.approx(-1.0 / 18.0, rel=1e-12)
        assert b1 + 3.0 * b3 == pytest.approx(7.0 / 6.0, rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(DegenerateMomentsError):
            pmm3_weights(1.0, 1.0, 1.0)
        with pytest.raises(DegenerateMomentsError):
            pmm3_weights(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("m2, m4, m6, gamma4, gamma6", [
        (*UNIFORM_M, -1.2, 48.0 / 7.0),
        (*LAPLACE_M, 3.0, 30.0),
        (*TRIANGULAR_M, -0.6, 12.0 / 7.0),
        (*GAUSSIAN_M, 0.0, 0.0),
    ])
    def test_implied_variance_matches_g3(self, m2, m4, m6, gamma4, gamma6):
        b1, b3 = pmm3_weights(m2, m4, m6)
        implied = 1.0 / (b1 + 3.0 * m2 * b3)
        assert implied == pytest.approx(m2 * g3_coefficient(gamma4, gamma6), rel=1e-10)


class TestScores:
    @pytest.mark.parametrize("method, weights", [("PMM2", (-0.7,)), ("PMM3", (1.3, -0.2))])
    def test_psi_and_dpsi_are_the_derivatives(self, method, weights):
        # the exact Newton step of an ARI PMM2 fit rests on both
        score, m2, h = _SCORES[method], 0.8, 1e-6
        e = np.linspace(-3.0, 3.0, 13)

        def q(v):
            return np.array([score.objective(np.array([t]), weights, m2) for t in v])

        def psi(v):
            return score.psi(v, weights, m2)

        np.testing.assert_allclose(psi(e), (q(e + h) - q(e - h)) / (2.0 * h),
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(score.dpsi(e, weights, m2),
                                   (psi(e + h) - psi(e - h)) / (2.0 * h), rtol=1e-7, atol=1e-7)


_OBJECTIVE_VALUES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


class TestScoreObjectives:
    """The in-place PMM objectives keep the bits of the expressions they replace."""

    @settings(max_examples=300, deadline=None)
    @given(e=st.lists(_OBJECTIVE_VALUES, min_size=1, max_size=40),
           c=_OBJECTIVE_VALUES, m2=st.floats(0.0, 1e300))
    def test_pmm2_equals_the_expression(self, e, c, m2):
        e = np.array(e)
        with np.errstate(all="ignore"):
            expected = float((0.5 * e * e + c * (e * e * e / 3.0 - m2 * e)).sum())
            got = _SCORES["PMM2"].objective(e, (c,), m2)
        assert _same_bits(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(e=st.lists(_OBJECTIVE_VALUES, min_size=1, max_size=40),
           b1=_OBJECTIVE_VALUES, b3=_OBJECTIVE_VALUES)
    def test_pmm3_equals_the_expression(self, e, b1, b3):
        e = np.array(e)
        with np.errstate(all="ignore"):
            expected = float((0.5 * b1 * e * e + 0.25 * b3 * ((e * e) * (e * e))).sum())
            got = _SCORES["PMM3"].objective(e, (b1, b3), 1.0)
        assert _same_bits(got, expected)

    def test_pmm2_keeps_its_association_in_the_subnormal_range(self):
        # (0.5*e)*e and 0.5*(e*e) round differently here
        e = np.array([2.60321887e-161])
        assert (0.5 * e) * e != 0.5 * (e * e)
        assert _SCORES["PMM2"].objective(e, (0.0,), 0.0) == float(((0.5 * e) * e).sum())

    @settings(max_examples=300, deadline=None)
    @given(e=st.lists(_OBJECTIVE_VALUES, min_size=1, max_size=40), m2=st.floats(0.0, 1e300))
    def test_capped_equals_the_abs_form(self, e, m2):
        e = np.array(e)
        with np.errstate(all="ignore"):
            a = float(np.abs(e).max())
            expected = (math.inf if not a * a <= 1e6 * m2
                        else _SCORES["PMM2"].objective(e, (0.1,), m2))
            assert _same_bits(_capped(_SCORES["PMM2"], (0.1,), m2, e), expected)
