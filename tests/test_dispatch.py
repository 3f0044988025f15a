import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import vector_with_cumulants
from pmmest import cli, dispatch, inference, mcbench, tscore
from pmmest.dispatch import (
    METHODS,
    DispatchConfig,
    dispatch_fit,
    fit_model,
    render_decision,
    select_method,
)
from pmmest.errors import DataError, DegenerateInputError, InputTooShortError
from pmmest.inference import block_bootstrap_ts, residual_bootstrap
from pmmest.linmodel import RegressionFit, build_design, fit_ols, fit_pmm2
from pmmest.mcbench import InnovationSpec, McSpec, run_monte_carlo, sample_innovations
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
        decision, fit = dispatch_fit(x, order=ModelOrder(p=1))
        assert decision.method == "PMM2"
        assert isinstance(fit, TsFit)
        assert fit.method == "PMM2"
        assert fit.params.phi[0] == pytest.approx(0.7, abs=0.15)

    def test_gaussian_series_routes_to_css(self):
        rng = np.random.default_rng(10)
        order = ModelOrder(p=1, include_mean=False)
        x = simulate_arima(order, TsParams([0.5], [], [], [], 0.0),
                           rng.standard_normal(400), 150)
        decision, fit = dispatch_fit(x)
        assert decision.method == "OLS_CSS"
        assert fit.method == "CSS"
        assert fit.order.p >= 1  # AR scan should pick up the dependence

    def test_uniform_regression_routes_to_pmm3(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500)
        y = 1.0 + 2.0 * x + rng.uniform(-1.0, 1.0, 500)
        decision, fit = dispatch_fit(build_design(y, [x]))
        assert decision.method == "PMM3"
        assert isinstance(fit, RegressionFit)
        assert fit.method == "PMM3"


def gamma_arma_series(n=300, seed=11):
    rng = np.random.default_rng(seed)
    order = ModelOrder(p=1, q=1)
    eps = sample_innovations(InnovationSpec("gamma"), n + 100, rng)
    return simulate_arima(order, TsParams([0.6], [0.3], [], [], 0.5), eps, 100)


def uniform_arma_series(n=300, seed=11):
    rng = np.random.default_rng(seed)
    order = ModelOrder(p=1, q=1)
    eps = rng.uniform(-1.0, 1.0, n + 100)
    return simulate_arima(order, TsParams([0.6], [0.3], [], [], 0.5), eps, 100)


@pytest.mark.parametrize("series, method", [(gamma_arma_series, "PMM2"),
                                            (uniform_arma_series, "PMM3")])
def test_dispatch_fit_reuses_its_css_fit(series, method, monkeypatch):
    x, order = series(), ModelOrder(p=1, q=1)
    expected = fit_model(x, method, order)
    second_css = []
    monkeypatch.setattr(tscore, "fit_css", lambda *a: second_css.append(a))
    decision, fit = dispatch_fit(x, order=order)
    assert decision.method == method
    assert second_css == []  # the PMM stage started from the baseline fit
    assert fit.method == method
    assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
    assert (fit.objective, fit.warnings) == (expected.objective, expected.warnings)



def test_scanned_order_fit_is_the_baseline(monkeypatch):
    rng = np.random.default_rng(0)
    x = simulate_arima(ModelOrder(p=1, include_mean=False), TsParams([0.5], [], [], [], 0.0),
                       rng.standard_normal(300), 100)
    assert x.size == 200
    css_fits = []

    def counted(*args):
        css_fits.append(args[1])
        return fit_css(*args)

    monkeypatch.setattr(dispatch, "fit_css", counted)
    decision, fit = dispatch_fit(x)
    assert decision.method == "OLS_CSS"
    assert css_fits == [ModelOrder(p=p) for p in range(6)]  # the scan alone, no refit
    expected = fit_css(x, fit.order)
    assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
    assert fit.residuals.tobytes() == expected.residuals.tobytes()
    assert (fit.order, fit.objective, fit.warnings) == \
        (expected.order, expected.objective, expected.warnings)
    with pytest.raises(TypeError):  # the data decides; no kind argument
        dispatch_fit(x, "timeseries")


@pytest.mark.parametrize("family, seed", [("uniform", [1, 12, 1]), ("laplace", [4, 12, 3])])
def test_scanned_order_of_a_short_series_can_be_refit(family, seed):
    # 12 points: CSS fits AR(4) and AR(5), whose PMM refits need more rows;
    # the scan stops at orders every dispatched method can fit
    rng = np.random.default_rng(seed)
    rng.standard_normal(12)
    x = 1.0 + sample_innovations(InnovationSpec(family), 12, rng)
    decision, fit = dispatch_fit(x)
    assert decision.method != "OLS_CSS" and fit.method == decision.method
    assert fit.order.p <= 2 and fit.converged


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

    @pytest.mark.parametrize("call", [
        lambda m: fit_model(gamma_arma_series(), m, ModelOrder(p=1)),
        lambda m: residual_bootstrap(build_design(np.arange(20.0) ** 2, [np.arange(20.0)]), m),
        lambda m: block_bootstrap_ts(gamma_arma_series(), ModelOrder(p=1), m),
        lambda m: run_monte_carlo(
            [McSpec("ar", (0.5, 0.0), InnovationSpec("gaussian"), 80, order=ModelOrder(p=1))],
            ("pmm2", m), 50),
    ], ids=["fit_model", "residual_bootstrap", "block_bootstrap_ts", "run_monte_carlo"])
    def test_unknown_method_message_is_shared(self, call):
        with pytest.raises(ValueError) as exc:
            call("Mle")
        assert str(exc.value) == f"method must be one of {list(METHODS)}, got 'Mle'"

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


def _bundled_with(index, value):
    x = np.loadtxt(Path(__file__).parent.parent / "data" / "ar1_gamma_sample.csv",
                   skiprows=1)
    x[index] = value
    return x


def _regression_with_nan_response():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50)
    y = 1.0 + 2.0 * x + rng.gamma(2.0, 1.0, 50)
    y[7] = np.nan
    return fit_pmm2(build_design(y, [x]))


NON_FINITE_CASES = {
    # each call returned numbers or failed with an unrelated error before the check
    "fit_css-ar1-nan": lambda: fit_css(_bundled_with(150, np.nan), ModelOrder(p=1)),
    "fit_css-arma11-nan": lambda: fit_css(_bundled_with(150, np.nan), ModelOrder(p=1, q=1)),
    "select_method-nan": lambda: select_method(_bundled_with(150, np.nan)),
    "fit_ts_pmm2-trailing-inf": lambda: fit_ts_pmm2(_bundled_with(-1, np.inf),
                                                    ModelOrder(p=1, q=1)),
    "fit_ts_pmm3-trailing-inf": lambda: fit_ts_pmm3(_bundled_with(-1, -np.inf),
                                                    ModelOrder(p=1, q=1)),
    "fit_pmm2-nan-response": _regression_with_nan_response,
    # simulate_arima wrote NaN or inf rows
    "simulate_arima-nan-ar": lambda: simulate_arima(
        ModelOrder(p=1), TsParams([np.nan], [], [], [], 0.0), np.zeros(10)),
    "simulate_arima-inf-mean": lambda: simulate_arima(
        ModelOrder(p=1), TsParams([0.5], [], [], [], np.inf), np.zeros(10)),
    "simulate_arima-nan-innovation": lambda: simulate_arima(
        ModelOrder(q=1), TsParams([], [0.3], [], [], 0.0), np.r_[np.zeros(5), np.nan]),
}


@pytest.mark.parametrize("call", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
def test_non_finite_input_raises_data_error(call):
    with pytest.raises(DataError, match="NaN or infinite"):
        call()


def test_simulate_arima_ignores_unused_non_finite_mean():
    z = simulate_arima(ModelOrder(p=1, include_mean=False),
                       TsParams([0.5], [], [], [], np.inf), np.ones(10))
    assert np.isfinite(z).all()
