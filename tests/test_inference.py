import dataclasses

import numpy as np
import pytest

from pmmest import inference, mcbench
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


def raise_after_base_fit(monkeypatch, module):
    """Make every fit_model call in ``module`` after the first raise TypeError."""
    real, calls = module.fit_model, []

    def fit_model(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise TypeError("defect in a replicate refit")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "fit_model", fit_model)


@pytest.mark.parametrize("run", [
    lambda: residual_bootstrap(gamma_problem(), "PMM2", B=60, seed=0),
    lambda: block_bootstrap_ts(gamma_ar1(n=200), ModelOrder(p=1), "CSS", B=60, seed=0),
], ids=["residual", "block"])
def test_refit_defect_propagates(monkeypatch, run):
    # only fit failures count as failed replicates; a TypeError is a defect
    raise_after_base_fit(monkeypatch, inference)
    with pytest.raises(TypeError, match="defect in a replicate refit"):
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
# whose fit_model the driver calls, the fits made before the first replicate,
# the data maker and the run, which returns (failed count, kept estimates).
REPLICATE_DRIVERS = pytest.mark.parametrize("module, base_fits, data, run", [
    (inference, 1, gamma_problem, residual_replicates),
    (inference, 1, lambda: gamma_ar1(n=200), block_replicates),
    (mcbench, 0, lambda: None, mc_replicates),
], ids=["residual", "block", "monte_carlo"])


def unconverge(monkeypatch, module, base_fits, replicates):
    """Make fit_model in ``module`` return unconverged fits on the chosen replicates."""
    real, calls = module.fit_model, []

    def fit_model(*args, **kwargs):
        fit = real(*args, **kwargs)
        calls.append(args)
        if len(calls) - 1 - base_fits in replicates:
            return dataclasses.replace(fit, converged=False)
        return fit

    monkeypatch.setattr(module, "fit_model", fit_model)


@REPLICATE_DRIVERS
def test_unconverged_replicates_dropped_and_counted(monkeypatch, module, base_fits, data, run):
    data = data()
    n_failed, clean = run(data)
    assert n_failed == 0
    unconverge(monkeypatch, module, base_fits, {1, 4, 6})
    n_failed, kept = run(data)
    assert n_failed == 3
    assert np.array_equal(kept, np.delete(clean, [1, 4, 6], axis=0))


@REPLICATE_DRIVERS
def test_more_than_a_tenth_dropped_is_a_fit_failure(monkeypatch, module, base_fits, data,
                                                     run):
    data = data()
    unconverge(monkeypatch, module, base_fits, set(range(6)))
    assert run(data)[0] == 6
    unconverge(monkeypatch, module, base_fits, set(range(7)))
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
def test_draw_errors_follow_the_replicate_rule(monkeypatch, module, base_fits, data, run,
                                               error, expected):
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

    def test_block_length_validation(self):
        x = gamma_ar1(n=100)
        with pytest.raises(ValueError):
            block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=60, block_length=1, seed=0)
        with pytest.raises(ValueError):
            block_bootstrap_ts(x, ModelOrder(p=1), "CSS", B=60, block_length=30, seed=0)
