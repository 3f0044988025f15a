import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import unconverged_css_series, unconverged_pmm2_problem
from pmmest import inference, mcbench, tscore
from pmmest.errors import FitFailureError
from pmmest.inference import block_bootstrap_ts, default_block_length, residual_bootstrap
from pmmest.linmodel import build_design
from pmmest.mcbench import InnovationSpec, McSpec, run_monte_carlo, sample_innovations
from pmmest.tscore import ModelOrder, TsParams, simulate_arima


def gamma_problem(n=100, seed=42):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n) + rng.gamma(2.0, 1.0, n) - 2.0 + 0.5 * x
    return build_design(y, [x], column_names=["x"])


def gamma_ar1(n=300, phi=0.7, seed=42):
    rng = np.random.default_rng(seed)
    eps = sample_innovations(InnovationSpec("gamma"), n + 150, rng)
    order = ModelOrder(p=1, include_mean=False)
    return simulate_arima(order, TsParams([phi], [], [], [], 0.0), eps, 150)


def raise_after_base_fit(monkeypatch, module, name="fit_model", base_fits=1):
    """Make every call of ``module.<name>`` after the first ``base_fits`` raise TypeError."""
    real, calls = getattr(module, name), []

    def fit(*args, **kwargs):
        calls.append(args)
        if len(calls) > base_fits:
            raise TypeError("defect in a replicate refit")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fit)


# Regression refits go through fit_model, after the base fit; block-bootstrap
# refits go through _fit_series (started at the base estimate), which the
# base fit does not call from inference.
@pytest.mark.parametrize("run, name, base_fits", [
    (lambda: residual_bootstrap(gamma_problem(), "PMM2", B=60, seed=0), "fit_model", 1),
    (lambda: block_bootstrap_ts(gamma_ar1(n=200), ModelOrder(p=1), "CSS", B=60, seed=0),
     "_fit_series", 0),
    (lambda: block_bootstrap_ts(gamma_ar1(n=200), ModelOrder(p=1, q=1), "PMM2", B=60,
                                seed=0), "_fit_series", 0),
], ids=["residual", "block", "block_arma11"])
def test_refit_defect_propagates(monkeypatch, run, name, base_fits):
    # only fit failures count as failed replicates; a TypeError is a defect
    raise_after_base_fit(monkeypatch, inference, name, base_fits)
    with pytest.raises(TypeError, match="defect in a replicate refit"):
        run()


@pytest.mark.parametrize("run", [
    lambda: residual_bootstrap(unconverged_pmm2_problem(), "PMM2", B=199, seed=1),
    lambda: block_bootstrap_ts(unconverged_css_series(), ModelOrder(p=1, q=1), "CSS",
                               B=50, seed=0),
], ids=["residual", "block"])
def test_unconverged_base_fit_is_a_fit_failure(monkeypatch, run):
    # the base fit is held to the replicates' rule, before any refit
    raise_after_base_fit(monkeypatch, inference)
    with pytest.raises(FitFailureError, match="^base fit did not converge$"):
        run()


def residual_replicates(problem):
    res = residual_bootstrap(problem, "PMM2", B=60, seed=0, keep_replicates=True)
    return res.n_failed, res.replicates


def block_replicates(x):
    res = block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=60, seed=0, keep_replicates=True)
    return res.n_failed, res.replicates


def mc_replicates(_):
    spec = McSpec("regression", (1.0, 2.0), InnovationSpec("gamma"), 60, label="reg")
    results, summary = run_monte_carlo([spec], ("ols",), 60, seed=0)
    est = results[("reg", "ols")]
    return summary.n_failed["reg"], est[~np.isnan(est[:, 0])]


# The one replicate rule, run against each driver that uses it: the module
# and the function in it through which the replicates are refit, the calls
# made on that function before the first replicate, the data maker and the
# run, which returns (failed count, kept estimates).
REPLICATE_DRIVERS = pytest.mark.parametrize("module, name, base_fits, data, run", [
    (inference, "fit_model", 1, gamma_problem, residual_replicates),
    (inference, "_fit_series", 0, lambda: gamma_ar1(n=200), block_replicates),
    (mcbench, "fit_model", 0, lambda: None, mc_replicates),
], ids=["residual", "block", "monte_carlo"])


def unconverge(monkeypatch, module, name, base_fits, replicates):
    """Make ``module.<name>`` return unconverged fits on the chosen replicates."""
    real, calls = getattr(module, name), []

    def fit(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(args)
        if len(calls) - 1 - base_fits in replicates:
            return dataclasses.replace(result, converged=False)
        return result

    monkeypatch.setattr(module, name, fit)


@REPLICATE_DRIVERS
def test_unconverged_replicates_dropped_and_counted(monkeypatch, module, name, base_fits,
                                                    data, run):
    data = data()
    n_failed, clean = run(data)
    assert n_failed == 0
    unconverge(monkeypatch, module, name, base_fits, {1, 4, 6})
    n_failed, kept = run(data)
    assert n_failed == 3
    assert np.array_equal(kept, np.delete(clean, [1, 4, 6], axis=0))


@REPLICATE_DRIVERS
def test_more_than_a_tenth_dropped_is_a_fit_failure(monkeypatch, module, name, base_fits,
                                                     data, run):
    data = data()
    unconverge(monkeypatch, module, name, base_fits, set(range(6)))
    assert run(data)[0] == 6
    unconverge(monkeypatch, module, name, base_fits, set(range(7)))
    with pytest.raises(FitFailureError, match="7/60"):
        run(data)


class BrokenRng:
    """A generator whose every draw raises ``error``."""

    def __init__(self, error):
        self.error = error

    def __getattr__(self, name):
        raise self.error("draw failed")


@REPLICATE_DRIVERS
@pytest.mark.parametrize("error, expected", [(TypeError, TypeError),
                                             (FloatingPointError, FitFailureError)])
def test_draw_errors_follow_the_replicate_rule(monkeypatch, module, name, base_fits, data,
                                               run, error, expected):
    # a fit failure while drawing drops the replicate (here every one, so the
    # run fails); a defect while drawing propagates
    data = data()
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: BrokenRng(error))
    with pytest.raises(expected, match="draw failed|60/60"):
        run(data)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
@pytest.mark.parametrize("run", [
    lambda level: residual_bootstrap(gamma_problem(), "PMM2", B=60, level=level),
    lambda level: block_bootstrap_ts(gamma_ar1(n=200), ModelOrder(p=1), "CSS", B=60,
                                     level=level),
], ids=["residual", "block"])
def test_bad_level_rejected_before_any_fit(monkeypatch, run, level):
    calls = []
    monkeypatch.setattr(inference, "fit_model", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        run(level)
    assert calls == []


# B = 1 leaves one replicate, whose standard deviation is NaN
@pytest.mark.parametrize("B", [0, 1])
@pytest.mark.parametrize("run", [
    lambda B: residual_bootstrap(gamma_problem(), "PMM2", B=B),
    lambda B: block_bootstrap_ts(gamma_ar1(n=200), ModelOrder(p=1), "CSS", B=B),
], ids=["residual", "block"])
def test_fewer_than_two_replicates_rejected_before_any_fit(monkeypatch, run, B):
    calls = []
    monkeypatch.setattr(inference, "fit_model", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=rf"B must be >= 2, got {B}"):
        run(B)
    assert calls == []


@pytest.mark.parametrize("block_length, message", [
    (1, r"block_length must be >= 2"), (30, r"need n / block_length >= 5")])
def test_bad_block_length_rejected_before_any_fit(monkeypatch, block_length, message):
    calls = []
    monkeypatch.setattr(inference, "fit_model", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=message):
        block_bootstrap_ts(gamma_ar1(n=100), ModelOrder(p=1), "CSS", B=60,
                           block_length=block_length)
    assert calls == []


class TestResidualBootstrap:
    def test_schema_and_sanity(self):
        result = residual_bootstrap(gamma_problem(), method="PMM2", B=200, seed=1)
        assert result.parameters == ["intercept", "x"]
        assert result.scheme == "residual"
        assert (result.conf_low <= result.conf_high).all()
        assert (result.std_error >= 0.0).all()
        assert result.n_failed == 0
        # t = estimate / std_error whenever std_error > 0
        mask = result.std_error > 0
        assert result.t_value[mask] == pytest.approx(
            result.estimate[mask] / result.std_error[mask])

    def test_same_seed_bit_identical(self):
        prob = gamma_problem()
        a = residual_bootstrap(prob, "PMM2", B=120, seed=7, keep_replicates=True)
        b = residual_bootstrap(prob, "PMM2", B=120, seed=7, keep_replicates=True)
        assert np.array_equal(a.replicates, b.replicates)
        assert np.array_equal(a.conf_low, b.conf_low)
        c = residual_bootstrap(prob, "PMM2", B=120, seed=8)
        assert not np.array_equal(a.conf_low, c.conf_low)

    def test_zero_variance_residuals(self):
        x = np.arange(8.0)
        prob = build_design(1.0 + 2.0 * x, [x])
        result = residual_bootstrap(prob, method="OLS", B=60, seed=3,
                                    keep_replicates=True)
        assert np.ptp(result.replicates, axis=0) == pytest.approx([0.0, 0.0], abs=1e-10)
        assert result.std_error == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_percentile_sandwich(self):
        result = residual_bootstrap(gamma_problem(), "OLS", B=200, level=0.95,
                                    seed=11, keep_replicates=True)
        for j in range(2):
            reps = result.replicates[:, j]
            inside = np.mean((reps >= result.conf_low[j]) & (reps <= result.conf_high[j]))
            assert abs(inside - 0.95) <= 1.0 / result.B + 1e-12

    def test_small_b_warns(self):
        with pytest.warns(UserWarning):
            residual_bootstrap(gamma_problem(), "OLS", B=20, seed=0)


@pytest.fixture(scope="module")
def two_point():
    """The draw and the replicate refit of a PMM2 residual bootstrap on 12 rows
    with +-1 errors, where some refits do not converge."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    prob = build_design(1.0 + 0.5 * x + rng.choice([-1.0, 1.0], 12), [x], column_names=["x"])
    with mock.patch.object(inference, "_bootstrap") as boot:
        residual_bootstrap(prob, "PMM2", B=200, seed=0)
    draw, refit = boot.call_args.args[2:4]
    return draw, lambda data: inference._converged(refit(data)).coefficients


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(24)))
@example(seed=0, perm=list(range(23, -1, -1)))  # 3 of the 24 refits fail
def test_replicate_order_does_not_matter(two_point, seed, perm):
    # replicate i depends on its own SeedSequence child alone, failures included
    seeds = np.random.SeedSequence(seed).spawn(24)
    draw, refit = two_point
    base = inference._replicates(seeds, draw, refit)
    permuted = inference._replicates([seeds[i] for i in perm], draw, refit)
    for i, rep in zip(perm, permuted):
        assert (rep is None and base[i] is None) or np.array_equal(rep, base[i])


class TestDefaultBlockLength:
    @pytest.mark.parametrize("n, expected", [
        (300, 6), (1000, 10), (27, 3), (26, 2), (8, 2), (124, 4), (125, 5),
    ])
    def test_exact_cube_floor(self, n, expected):
        assert default_block_length(n) == expected


class TestBlockBootstrap:
    def test_ar1_standard_error_band(self):
        x = gamma_ar1(n=300)
        result = block_bootstrap_ts(x, ModelOrder(p=1), method="PMM2", B=500,
                                    block_length=7, seed=42)
        assert result.scheme == "block"
        assert result.block_length == 7
        assert result.parameters[0] == "ar1"
        assert 0.02 <= result.std_error[0] <= 0.07
        assert result.n_failed == 0

    def test_default_block_length_used(self):
        x = gamma_ar1(n=300)
        result = block_bootstrap_ts(x, ModelOrder(p=1), method="CSS", B=60, seed=2)
        assert result.block_length == 6

    def test_same_seed_bit_identical(self):
        x = gamma_ar1(n=200, seed=5)
        a = block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=80, seed=9,
                               keep_replicates=True)
        b = block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=80, seed=9,
                               keep_replicates=True)
        assert np.array_equal(a.replicates, b.replicates)

    def test_differenced_model_rebuild(self):
        rng = np.random.default_rng(3)
        order = ModelOrder(p=1, d=1)
        eps = sample_innovations(InnovationSpec("gamma"), 350, rng)
        x = simulate_arima(order, TsParams([0.6], [], [], [], 0.0), eps, 150)
        result = block_bootstrap_ts(x, order, method="PMM2", B=60, seed=4)
        assert result.n_failed <= 6
        assert result.std_error[0] > 0.0

    @staticmethod
    def assert_warm_start_changes_no_estimate(monkeypatch, x, order, method, seed):
        # Refits of MA orders start CSS at the base estimate; started at zero,
        # as a plain fit is, they must reach the same minima.
        def run():
            return block_bootstrap_ts(x, order, method, B=60, seed=seed, keep_replicates=True)

        warm = run()
        monkeypatch.setattr(inference, "_fit_series",
                            lambda m, x_star, o, start=None: tscore._fit_series(m, x_star, o))
        cold = run()
        assert warm.n_failed == cold.n_failed
        assert np.abs(warm.replicates - cold.replicates).max() <= 1e-6
        assert not np.array_equal(warm.replicates, cold.replicates)  # the start was used

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_started_arma11_pmm2_refits_match_cold_started(self, monkeypatch, seed):
        x = np.loadtxt(Path(__file__).parent.parent / "data" / "ar1_gamma_sample.csv",
                       skiprows=1)
        self.assert_warm_start_changes_no_estimate(monkeypatch, x, ModelOrder(p=1, q=1),
                                                   "PMM2", seed)

    @pytest.mark.parametrize("method", ["CSS", "PMM3"])
    def test_warm_started_ima11_refits_match_cold_started(self, monkeypatch, method):
        order = ModelOrder(d=1, q=1)
        eps = sample_innovations(InnovationSpec("gamma"), 200, np.random.default_rng(11))
        x = simulate_arima(order, TsParams([], [0.4], [], [], 0.0), eps)
        self.assert_warm_start_changes_no_estimate(monkeypatch, x, order, method, 0)

    def test_block_length_validation(self):
        x = gamma_ar1(n=100)
        with pytest.raises(ValueError):
            block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=60, block_length=1, seed=0)
        with pytest.raises(ValueError):
            block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=60, block_length=30, seed=0)


class TestCurvatureStartedRefits:
    BUNDLED = Path(__file__).parent.parent / "data" / "ar1_gamma_sample.csv"

    @settings(max_examples=200, deadline=None)
    @given(high=st.one_of(st.integers(6, 10_000), st.integers(2**31 - 5, 2**31 + 5)),
           size=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_one_call_block_draws_equal_sequential_draws(self, high, size, seed):
        one, seq = np.random.default_rng(seed), np.random.default_rng(seed)
        assert one.integers(0, high, size=size).tolist() == [
            int(seq.integers(0, high)) for _ in range(size)]
        assert int(one.integers(0, high)) == int(seq.integers(0, high))  # the stream goes on

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replicates_match_identity_started_ones(self, monkeypatch, seed):
        x = np.loadtxt(self.BUNDLED, skiprows=1)
        order = ModelOrder(p=1, q=1)

        def run():
            return block_bootstrap_ts(x, order, "PMM2", B=100, seed=seed, keep_replicates=True)

        curved = run()
        monkeypatch.setattr(inference, "_refit_start", lambda fit: (fit.coefficients, None))
        flat = run()
        assert curved.n_failed == flat.n_failed
        assert np.abs(curved.replicates - flat.replicates).max() <= 1e-6

    def test_bundled_bootstrap_residual_evaluations(self, monkeypatch):
        x = np.loadtxt(self.BUNDLED, skiprows=1)
        calls = []
        residuals = tscore.css_residuals
        monkeypatch.setattr(tscore, "css_residuals",
                            lambda *a, **k: calls.append(1) or residuals(*a, **k))
        block_bootstrap_ts(x, ModelOrder(p=1, q=1), "PMM2", B=100, seed=0)
        assert len(calls) <= 9_500  # 12,924 from an identity start

    def test_badly_conditioned_base_still_refits(self):
        # ARMA(1,1) of Gamma white noise: phi and theta nearly cancel
        x = np.random.default_rng(2).gamma(2.0, 1.0, 150)
        order = ModelOrder(p=1, q=1)
        base = tscore.fit_css(x, order)
        assert np.linalg.cond(tscore._residual_jtj(base)) > 1e8
        result = block_bootstrap_ts(x, order, "CSS", B=50, seed=0)
        assert result.n_failed <= 5
        assert np.isfinite(result.std_error).all()
