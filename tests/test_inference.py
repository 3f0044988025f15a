import numpy as np
import pytest

from pmmest import inference
from pmmest.inference import block_bootstrap_ts, default_block_length, residual_bootstrap
from pmmest.linmodel import build_design
from pmmest.mcbench import InnovationSpec, sample_innovations
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
