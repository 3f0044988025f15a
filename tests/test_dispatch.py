import json
import warnings

import numpy as np
import pytest

from helpers import vector_with_cumulants
from pmmest import cli, dispatch, inference, mcbench
from pmmest.dispatch import (
    DispatchConfig,
    dispatch_fit,
    fit_model,
    render_decision,
    select_method,
)
from pmmest.errors import DegenerateInputError, InputTooShortError
from pmmest.inference import block_bootstrap_ts
from pmmest.linmodel import RegressionFit, build_design, fit_ols, fit_pmm2
from pmmest.mcbench import InnovationSpec, McSpec, sample_innovations
from pmmest.tscore import ModelOrder, TsFit, TsParams, fit_css, simulate_arima
from pmmest.tspmm import fit_ar_pmm2, fit_ts_pmm2, fit_ts_pmm3


class TestSelectMethod:
    def test_wti_style_residuals_pick_pmm2(self):
        v = vector_with_cumulants(-0.759, 5.858)
        decision = select_method(v)
        assert decision.method == "PMM2"
        assert decision.g2 == pytest.approx(0.927, abs=0.005)

    def test_near_gaussian_picks_ols(self):
        v = vector_with_cumulants(0.218, 1.299)
        decision = select_method(v)
        assert decision.method == "OLS_CSS"
        assert decision.g2 == pytest.approx(0.986, abs=0.005)

    def test_symmetric_platykurtic_picks_pmm3(self):
        v = vector_with_cumulants(0.02, -1.1)
        decision = select_method(v)
        assert decision.method == "PMM3"
        assert decision.g3 is not None and decision.g3 < 1.0

    def test_gaussian_cumulants_pick_ols(self):
        v = vector_with_cumulants(0.0, 0.0)
        decision = select_method(v)
        assert decision.method == "OLS_CSS"
        assert decision.g2 == pytest.approx(1.0, abs=1e-6)

    def test_skewed_but_high_g2_stays_ols(self):
        # gamma3 just over the threshold with tiny g2 reduction
        v = vector_with_cumulants(0.31, 8.0)  # g2 = 1 - 0.0961/10 = 0.990
        decision = select_method(v)
        assert decision.method == "OLS_CSS"
        assert "negligible" in decision.rationale

    def test_paper_stated_threshold_is_configurable(self):
        v = vector_with_cumulants(0.45, 0.0)  # g2 ~ 0.90, below the ceiling
        loose = select_method(v)  # default skew threshold 0.3
        strict = select_method(v, DispatchConfig(skew_threshold=0.5))
        assert loose.method == "PMM2"
        assert strict.method == "OLS_CSS"

    def test_monotone_in_gamma3(self):
        # once PMM2 fires, growing |gamma3| at fixed gamma4 never flips it back
        methods = [select_method(vector_with_cumulants(g3, 4.0)).method
                   for g3 in (0.6, 0.9, 1.2, 1.5, 1.7)]
        assert methods == ["PMM2"] * 5

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.gamma(2.0, 1.0, 300) - 2.0
            assert select_method(v).method == select_method(-v).method

    def test_short_input_raises(self):
        with pytest.raises(InputTooShortError):
            select_method(np.ones(7))

    def test_degenerate_input_raises(self):
        with pytest.raises(DegenerateInputError):
            select_method(np.full(20, 2.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispatchConfig(symmetric_threshold=0.4, skew_threshold=0.3)
        with pytest.raises(ValueError):
            DispatchConfig(g2_ceiling=1.5)

    def test_exactly_one_branch(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(100) + rng.gamma(1.5, 1.0, 100)
            decision = select_method(v)
            assert decision.method in ("OLS_CSS", "PMM2", "PMM3")


class TestRenderDecision:
    def test_transcript_shape(self):
        v = vector_with_cumulants(-0.759, 5.858)
        text = render_decision(select_method(v))
        lines = text.split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("n = 4000 | gamma3 = -0.759 | gamma4 = +5.858")
        assert lines[1].strip().startswith("g2(PMM2) = 0.927")
        assert lines[2].strip().startswith(">>>")
        assert "PMM2 worthwhile" in lines[2]


class TestDispatchFit:
    def test_gamma_ar_series_routes_to_pmm2(self):
        rng = np.random.default_rng(42)
        order = ModelOrder(p=1, include_mean=False)
        eps = sample_innovations(InnovationSpec("gamma"), 350, rng)
        x = simulate_arima(order, TsParams([0.7], [], [], [], 0.0), eps, 150)
        decision, fit = dispatch_fit(x, "timeseries", order=ModelOrder(p=1))
        assert decision.method == "PMM2"
        assert isinstance(fit, TsFit)
        assert fit.method == "PMM2"
        assert fit.params.phi[0] == pytest.approx(0.7, abs=0.15)

    def test_gaussian_series_routes_to_css(self):
        rng = np.random.default_rng(10)
        order = ModelOrder(p=1, include_mean=False)
        x = simulate_arima(order, TsParams([0.5], [], [], [], 0.0),
                           rng.standard_normal(400), 150)
        decision, fit = dispatch_fit(x, "timeseries")
        assert decision.method == "OLS_CSS"
        assert fit.method == "CSS"
        assert fit.order.p >= 1  # AR scan should pick up the dependence

    def test_uniform_regression_routes_to_pmm3(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500)
        y = 1.0 + 2.0 * x + rng.uniform(-1.0, 1.0, 500)
        decision, fit = dispatch_fit(build_design(y, [x]), "regression")
        assert decision.method == "PMM3"
        assert isinstance(fit, RegressionFit)
        assert fit.method == "PMM3"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dispatch_fit(np.ones(20), "panel")


def gamma_arma_series(n=300, seed=11):
    rng = np.random.default_rng(seed)
    order = ModelOrder(p=1, q=1)
    eps = sample_innovations(InnovationSpec("gamma"), n + 100, rng)
    return simulate_arima(order, TsParams([0.6], [0.3], [], [], 0.5), eps, 100)


class TestFitModel:
    def test_regression_table_is_shared(self):
        assert inference._REGRESSION_FITTERS is dispatch._REGRESSION_FITTERS

    def test_method_names_and_baseline_alias(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(60)
        problem = build_design(1.0 + x + rng.gamma(2.0, 1.0, 60), [x])
        for name in ("ols", "CSS", "Ols"):
            assert np.array_equal(fit_model(problem, name).coefficients,
                                  fit_ols(problem).coefficients)
        assert np.array_equal(fit_model(problem, "Pmm2").coefficients,
                              fit_pmm2(problem).coefficients)
        series = gamma_arma_series()
        order = ModelOrder(p=1)
        for name in ("ols", "css", "CSS"):
            fit = fit_model(series, name, order)
            assert fit.method == "CSS"
            assert np.array_equal(fit.coefficients, fit_css(series, order).coefficients)

    def test_rejects_unknown_method_and_missing_order(self):
        with pytest.raises(ValueError, match="method must be one of"):
            fit_model(gamma_arma_series(), "ml", ModelOrder(p=1))
        with pytest.raises(ValueError, match="ModelOrder"):
            fit_model(gamma_arma_series(), "css")


AGREEMENT_CASES = [
    ((1, 0, 0), "CSS", fit_css),
    ((1, 0, 0), "PMM2", fit_ts_pmm2),
    ((1, 0, 0), "PMM3", fit_ts_pmm3),
    ((1, 1, 0), "CSS", fit_css),
    ((1, 1, 0), "PMM2", fit_ts_pmm2),
    ((1, 0, 1), "CSS", fit_css),
    ((1, 0, 1), "PMM2", fit_ts_pmm2),
]


@pytest.mark.parametrize("triple, method, fitter", AGREEMENT_CASES,
                         ids=[f"{m}-{t}" for t, m, _ in AGREEMENT_CASES])
def test_entry_points_agree_bit_for_bit(triple, method, fitter, tmp_path):
    x = gamma_arma_series()
    p, d, q = triple
    order = ModelOrder(p=p, d=d, q=q)
    expected = fitter(x, order).coefficients
    assert np.array_equal(fit_model(x, method, order).coefficients, expected)
    if triple == (1, 0, 0) and method == "PMM2":
        assert np.array_equal(fit_ar_pmm2(x, 1).coefficients, expected)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        boot = block_bootstrap_ts(x, order, method=method, B=2, seed=1)
    assert np.array_equal(boot.estimate, expected)
    spec = McSpec("arima", tuple(expected), InnovationSpec("gamma"), x.size, order=order)
    est, _ = mcbench._fit_method(spec, method.lower(), x, 1.96)
    assert np.array_equal(est, expected)
    path = tmp_path / "series.csv"
    path.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in x))
    out = tmp_path / "fit.json"
    code = cli.main(["fit", "--input", str(path), "--column", "y", "--method", method.lower(),
                     "--order", ",".join(map(str, triple)), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [report["coefficients"][name] for name in fit_model(x, method, order).param_names] \
        == list(expected)
