import math
import warnings

import numpy as np
import pytest
from scipy import stats

from pmmest import mcbench, tscore
from pmmest.dispatch import METHODS, fit_model
from pmmest.errors import _REPLICATE_FAILURES, FitFailureError, InputTooShortError, PmmError
from pmmest.linmodel import DesignProblem, asymptotic_covariance
from pmmest.mcbench import (
    InnovationSpec,
    McSpec,
    advantage_grid,
    innovation_mean,
    innovation_theory,
    run_monte_carlo,
    sample_innovations,
    skew_innovations,
)
from pmmest.tscore import ModelOrder, TsParams, simulate_arima, ts_asymptotic_covariance

# scipy.stats frozen distributions double as independent cumulant oracles
SCIPY_ORACLES = {
    InnovationSpec("gamma", (2.0, 1.0)): stats.gamma(2.0, scale=1.0),
    InnovationSpec("gamma", (4.0, 2.0)): stats.gamma(4.0, scale=0.5),
    InnovationSpec("chisq", (3.0,)): stats.chi2(3.0),
    InnovationSpec("lognormal", (0.0, 0.55)): stats.lognorm(0.55, scale=1.0),
    InnovationSpec("uniform", (-1.0, 1.0)): stats.uniform(-1.0, 2.0),
    InnovationSpec("beta", (2.0, 5.0)): stats.beta(2.0, 5.0),
    InnovationSpec("laplace", (1.0,)): stats.laplace(0.0, 1.0),
    InnovationSpec("triangular", (1.0,)): stats.triang(0.5, loc=-1.0, scale=2.0),
    InnovationSpec("gaussian", (2.0,)): stats.norm(0.0, 2.0),
}


class TestInnovationTheory:
    @pytest.mark.parametrize("spec, frozen", list(SCIPY_ORACLES.items()),
                             ids=[s.family + str(s.params) for s in SCIPY_ORACLES])
    def test_gamma3_gamma4_match_scipy(self, spec, frozen):
        profile = innovation_theory(spec)
        mean, var, skew, kurt = frozen.stats(moments="mvsk")
        assert profile.gamma3 == pytest.approx(float(skew), abs=1e-9)
        assert profile.gamma4 == pytest.approx(float(kurt), abs=1e-9)
        assert innovation_mean(spec) == pytest.approx(float(mean), abs=1e-12)

    @pytest.mark.parametrize("spec, frozen", [
        (InnovationSpec("uniform", (-1.0, 1.0)), stats.uniform(-1.0, 2.0)),
        (InnovationSpec("laplace", (1.0,)), stats.laplace(0.0, 1.0)),
        (InnovationSpec("triangular", (1.0,)), stats.triang(0.5, loc=-1.0, scale=2.0)),
        (InnovationSpec("gaussian", (1.0,)), stats.norm()),
    ])
    def test_gamma6_matches_scipy_sixth_moment(self, spec, frozen):
        profile = innovation_theory(spec)
        m2 = float(frozen.moment(2) - frozen.moment(1) ** 2)
        mu = float(frozen.moment(1))
        m6 = float(frozen.expect(lambda v: (v - mu) ** 6))
        gamma4 = float(frozen.stats(moments="k"))
        gamma6 = m6 / m2**3 - 15.0 * gamma4 - 15.0
        assert profile.gamma6 == pytest.approx(gamma6, abs=1e-7)

    def test_reference_profiles(self):
        gamma = innovation_theory(InnovationSpec("gamma", (2.0, 1.0)))
        assert gamma.gamma3 == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert gamma.gamma4 == pytest.approx(3.0, rel=1e-12)
        assert gamma.g2 == pytest.approx(0.60, abs=1e-12)
        uniform = innovation_theory(InnovationSpec("uniform"))
        assert uniform.gamma4 == pytest.approx(-1.2, rel=1e-12)
        assert uniform.gamma6 == pytest.approx(48.0 / 7.0, rel=1e-12)
        assert uniform.g3 == pytest.approx(0.30, abs=1e-12)
        chisq = innovation_theory(InnovationSpec("chisq", (3.0,)))
        assert chisq.gamma3 == pytest.approx(1.633, abs=5e-4)
        assert chisq.g2 == pytest.approx(0.556, abs=5e-4)
        lognormal = innovation_theory(InnovationSpec("lognormal", (0.0, 0.55)))
        assert lognormal.gamma3 == pytest.approx(1.99, abs=5e-3)
        assert lognormal.g3 is None

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            innovation_theory(InnovationSpec("gamma", (-1.0, 1.0)))
        with pytest.raises(ValueError):
            innovation_theory(InnovationSpec("uniform", (2.0, -2.0)))
        with pytest.raises(ValueError):
            innovation_theory(InnovationSpec("cauchy"))
        with pytest.raises(ValueError, match="gaussian takes at most 1 parameters"):
            innovation_theory(InnovationSpec("gaussian", (1.0, 2.0)))


# Each family's draw at default parameters, written directly against numpy,
# and its mean: sample_innovations must reproduce draw - mean bit for bit.
DIRECT_DRAWS = {
    "beta": (lambda rng, n: rng.beta(2.0, 5.0, n), 2.0 / 7.0),
    "chisq": (lambda rng, n: rng.chisquare(3.0, n), 3.0),
    "gamma": (lambda rng, n: rng.gamma(2.0, 1.0, n), 2.0),
    "gaussian": (lambda rng, n: rng.normal(0.0, 1.0, n), 0.0),
    "laplace": (lambda rng, n: rng.laplace(0.0, 1.0, n), 0.0),
    "lognormal": (lambda rng, n: rng.lognormal(0.0, 0.55, n), math.exp(0.55**2 / 2.0)),
    "triangular": (lambda rng, n: rng.triangular(-1.0, 0.0, 1.0, n), 0.0),
    "uniform": (lambda rng, n: rng.uniform(-1.0, 1.0, n), 0.0),
}

# One invalid parameter tuple per family and the message it must raise.
INVALID_PARAMS = {
    "beta": ((2.0, 0.0), "beta shape parameters must be positive"),
    "chisq": ((-3.0,), "chisq df must be positive"),
    "gamma": ((2.0, -1.0), "gamma shape and rate must be positive"),
    "gaussian": ((0.0,), "gaussian sd must be positive"),
    "laplace": ((-1.0,), "laplace scale must be positive"),
    "lognormal": ((0.0, 0.0), "lognormal sigma must be positive"),
    "triangular": ((0.0,), "triangular half width must be positive"),
    "uniform": ((1.0, 1.0), "uniform requires low < high"),
}


class TestSampleInnovations:
    @pytest.mark.parametrize("family", sorted(DIRECT_DRAWS))
    def test_draws_match_numpy_bit_for_bit(self, family):
        draw, mean = DIRECT_DRAWS[family]
        got = sample_innovations(InnovationSpec(family), 500, np.random.default_rng(0))
        assert np.array_equal(got, draw(np.random.default_rng(0), 500) - mean)
        assert innovation_mean(InnovationSpec(family)) == mean

    @pytest.mark.parametrize("family", sorted(INVALID_PARAMS))
    def test_invalid_params_message(self, family):
        params, message = INVALID_PARAMS[family]
        for call in (innovation_theory, innovation_mean):
            with pytest.raises(ValueError) as exc:
                call(InnovationSpec(family, params))
            assert str(exc.value) == message

    @pytest.mark.parametrize("family", sorted(DIRECT_DRAWS))
    def test_standardized_mean_and_cumulants(self, family):
        # self-consistency gate: sample cumulants of a large draw must match
        # the closed forms within ~3 batch-estimated standard errors
        spec = InnovationSpec(family)
        profile = innovation_theory(spec)
        rng = np.random.default_rng(123)
        n_batches, batch = 20, 10_000
        g3s, g4s, means = [], [], []
        for _ in range(n_batches):
            x = sample_innovations(spec, batch, rng)
            means.append(x.mean())
            g3s.append(stats.skew(x))
            g4s.append(stats.kurtosis(x))
        for sample, target in ((means, 0.0), (g3s, profile.gamma3), (g4s, profile.gamma4)):
            est = np.mean(sample)
            se = np.std(sample, ddof=1) / math.sqrt(n_batches)
            assert abs(est - target) <= 3.5 * se + 1e-9, (family, est, target, se)

    def test_gamma_skewness_large_sample(self):
        rng = np.random.default_rng(99)
        x = sample_innovations(InnovationSpec("gamma", (2.0, 1.0)), 100_000, rng)
        assert abs(x.mean()) < 0.01
        assert stats.skew(x) == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_deterministic_per_stream(self):
        spec = InnovationSpec("lognormal")
        a = sample_innovations(spec, 100, np.random.default_rng(5))
        b = sample_innovations(spec, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)


def tiny_regression_spec(label="reg", family="gamma", n=60):
    return McSpec(model="regression", theta=(1.0, 2.0),
                  innovations=InnovationSpec(family), n=n, label=label)


class TestRunMonteCarlo:
    def test_css_only_gain_is_unity(self):
        spec = McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gaussian"),
                      n=80, label="ar_g", order=ModelOrder(p=1))
        _, summary = run_monte_carlo([spec], ("css",), 50, seed=0)
        for row in summary.rows:
            assert row.gain == pytest.approx(1.0)

    def test_mse_decomposition_identity(self):
        _, summary = run_monte_carlo([tiny_regression_spec()], ("ols", "pmm2"), 60, seed=1)
        for row in summary.rows:
            assert row.mse == pytest.approx(row.bias**2 + row.variance, rel=1e-10)

    def test_determinism_and_parallel_equivalence(self):
        spec = tiny_regression_spec()
        _, s1 = run_monte_carlo([spec], ("ols", "pmm2"), 60, seed=33, n_jobs=1)
        _, s2 = run_monte_carlo([spec], ("ols", "pmm2"), 60, seed=33, n_jobs=1)
        _, s4 = run_monte_carlo([spec], ("ols", "pmm2"), 60, seed=33, n_jobs=2)
        assert s1.rows == s2.rows
        assert s1.rows == s4.rows

    def test_ma_parallel_equivalence(self):
        # pool workers filter MA series through the lazily loaded compiled filter
        spec = McSpec(model="ma", theta=(0.4, 0.0), innovations=InnovationSpec("gamma"),
                      n=80, label="ma1", order=ModelOrder(q=1))
        _, s1 = run_monte_carlo([spec], ("css", "pmm2"), 50, seed=8, n_jobs=1)
        _, s2 = run_monte_carlo([spec], ("css", "pmm2"), 50, seed=8, n_jobs=2)
        assert s1.n_failed == s2.n_failed
        assert s1.rows == s2.rows

    def test_one_pool_serves_every_spec(self, monkeypatch):
        # one regression and two series specs give the same summaries and
        # estimates serially and with two workers, which share one pool
        import concurrent.futures

        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        specs = [tiny_regression_spec(),
                 McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gamma"),
                        n=80, label="ar1", order=ModelOrder(p=1)),
                 McSpec(model="ma", theta=(0.4, 0.0), innovations=InnovationSpec("gamma"),
                        n=80, label="ma1", order=ModelOrder(q=1))]
        r1, s1 = run_monte_carlo(specs, ("ols", "pmm2"), 50, seed=12, n_jobs=1)
        assert pools == []
        r2, s2 = run_monte_carlo(specs, ("ols", "pmm2"), 50, seed=12, n_jobs=2)
        assert pools == [{"max_workers": 2}]
        assert s1 == s2
        assert r1.keys() == r2.keys()
        assert all(r1[key].tobytes() == r2[key].tobytes() for key in r1)

    def test_arguments_are_checked_before_any_replicate(self, monkeypatch):
        def chunk(args):
            raise AssertionError("a replicate ran before the checks")

        monkeypatch.setattr(mcbench, "_replicate_chunk", chunk)
        with pytest.raises(ValueError, match="n_jobs must be >= 1, got 0"):
            run_monte_carlo([tiny_regression_spec()], ("ols",), 50, n_jobs=0)
        short = McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gamma"),
                       n=5, label="short", order=ModelOrder(p=1))
        with pytest.raises(InputTooShortError, match="spec 'short': n = 5 is too short"):
            run_monte_carlo([tiny_regression_spec(), short], ("ols", "pmm2"), 50)

    def test_interval_quantile_is_the_normal_975_point(self):
        from statistics import NormalDist
        assert mcbench._Z95 == NormalDist().inv_cdf(0.975)

    def test_ml_is_rejected(self):
        # run_monte_carlo takes the METHODS names that fit_model takes, no alias
        spec = McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gaussian"),
                      n=80, label="a", order=ModelOrder(p=1))
        with pytest.raises(ValueError) as exc:
            run_monte_carlo([spec], ("ml",), 50, seed=0)
        assert str(exc.value) == f"method must be one of {list(METHODS)}, got 'ml'"

    def test_coverage_reasonable(self):
        _, summary = run_monte_carlo([tiny_regression_spec(n=200)], ("ols",), 200, seed=4)
        row = summary.get("reg", "ols", "x1")
        assert 0.85 <= row.coverage <= 0.99

    def test_theory_g_is_1_on_pmm2_location_parameters(self):
        ar = McSpec(model="ar", theta=(0.5, 1.0), innovations=InnovationSpec("gamma"),
                    n=80, label="ar1", order=ModelOrder(p=1))
        _, summary = run_monte_carlo([tiny_regression_spec(), ar], ("ols", "pmm2"), 50, seed=0)
        g2 = innovation_theory(InnovationSpec("gamma")).g2
        theory = {(r.label, r.method, r.parameter): r.theory_g for r in summary.rows}
        assert theory == {
            ("reg", "ols", "intercept"): 1.0, ("reg", "ols", "x1"): 1.0,
            ("reg", "pmm2", "intercept"): 1.0, ("reg", "pmm2", "x1"): g2,
            ("ar1", "css", "ar1"): 1.0, ("ar1", "css", "mean"): 1.0,
            ("ar1", "pmm2", "ar1"): g2, ("ar1", "pmm2", "mean"): 1.0}

    def test_fit_defect_propagates(self, monkeypatch):
        # only fit failures count as failed replicates; a TypeError is a defect
        def fit_model(*args, **kwargs):
            raise TypeError("defect in a replicate fit")

        monkeypatch.setattr(mcbench, "fit_model", fit_model)
        with pytest.raises(TypeError, match="defect in a replicate fit"):
            run_monte_carlo([tiny_regression_spec()], ("ols",), 50, seed=0)

    def test_n_sim_minimum(self):
        with pytest.raises(ValueError):
            run_monte_carlo([tiny_regression_spec()], ("ols",), 10, seed=0)

    def test_duplicate_labels_and_no_methods_rejected(self):
        spec = tiny_regression_spec()
        with pytest.raises(ValueError, match="spec labels must be unique"):
            run_monte_carlo([spec, spec], ("ols",), 50, seed=0)
        with pytest.raises(ValueError, match="no methods requested"):
            run_monte_carlo([spec], (), 50, seed=0)

    def test_gain_is_none_without_the_baseline(self, tmp_path):
        _, summary = run_monte_carlo([tiny_regression_spec()], ("pmm2", "pmm3"), 50, seed=0)
        assert len(summary.rows) == 4
        assert all(row.gain is None for row in summary.rows)
        path = tmp_path / "summary.csv"
        summary.to_csv(path)
        assert [line.split(",")[8] for line in path.read_text().splitlines()[1:]] == [""] * 4

    def test_css_fit_is_not_refit(self, monkeypatch):
        # A replicate that requests "css" fits CSS once, through fit_model, and
        # hands that fit to each PMM fit; "css" itself calls _fit_series no more.
        calls = []

        def counting(fit_series):
            def wrapped(method, x, order, css=None, start=None):
                calls.append((method, css is not None))
                return fit_series(method, x, order, css=css, start=start)
            return wrapped

        monkeypatch.setattr(tscore, "_fit_series", counting(tscore._fit_series))
        monkeypatch.setattr(mcbench, "_fit_series", counting(mcbench._fit_series))
        spec = McSpec("arma", (0.5, 0.3, 1.0), InnovationSpec("gamma"), 200,
                      order=ModelOrder(p=1, q=1))
        seeds = np.random.SeedSequence(0).spawn(1)
        [payload] = mcbench._replicate_chunk((spec, ["css", "pmm2", "pmm3"], seeds))
        assert set(payload) == {"css", "pmm2", "pmm3"}
        assert calls == [("CSS", False), ("PMM2", True), ("PMM3", True)]

    @pytest.mark.parametrize("method, extra", [("ols", 1), ("pmm2", 4), ("pmm3", 6)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_regression_length_check_is_the_fitters_rule(self, method, extra, k):
        # the regression twin of test_every_method_shares_one_length_rule: the
        # check passes n exactly where the fit and its covariance succeed
        need = max(3, k + extra - 1)  # n >= 4 for the covariance's moments
        rng = np.random.default_rng(k)
        for n in (need, need + 1):
            spec = McSpec("regression", tuple(range(1, k + 1)), InnovationSpec("gamma"), n)
            try:
                mcbench._check_length(spec, method)
                passes = True
            except InputTooShortError:
                passes = False
            X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
            y = X @ np.asarray(spec.theta) + sample_innovations(spec.innovations, n, rng)
            try:
                problem = DesignProblem(X, y)
                asymptotic_covariance(fit_model(problem, method), problem)
                fits = True
            except PmmError:
                fits = False
            assert (passes, fits) == (n > need, n > need)

    def test_ar_label_with_ma_order_completes(self):
        # the fitter follows the order, not the model label
        spec = McSpec(model="ar", theta=(0.5, 0.3, 0.0), innovations=InnovationSpec("gamma"),
                      n=200, label="ar_q1", order=ModelOrder(p=1, q=1))
        _, summary = run_monte_carlo([spec], ("css", "pmm2"), 50, seed=0)
        assert summary.n_failed == {"ar_q1": 0}
        assert {row.parameter for row in summary.rows} == {"ar1", "ma1", "mean"}

    def test_either_baseline_name_gives_the_same_run(self):
        spec = McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gamma"),
                      n=80, label="a", order=ModelOrder(p=1))
        results, summary = run_monte_carlo([spec], ("OLS", "pmm2"), 50, seed=0)
        expected_results, expected = run_monte_carlo([spec], ("css", "pmm2"), 50, seed=0)
        assert summary.rows == expected.rows
        assert {row.method for row in summary.rows} == {"css", "pmm2"}
        assert results.keys() == expected_results.keys()
        for key, est in results.items():
            assert est.tobytes() == expected_results[key].tobytes()

    def test_mixed_kind_specs_share_one_method_list(self):
        ar = McSpec(model="ar", theta=(0.5, 0.0), innovations=InnovationSpec("gamma"),
                    n=80, label="a", order=ModelOrder(p=1))
        _, summary = run_monte_carlo([tiny_regression_spec(), ar], ("ols", "pmm2"), 50,
                                     seed=0)
        assert {(row.label, row.method) for row in summary.rows} == {
            ("reg", "ols"), ("reg", "pmm2"), ("a", "css"), ("a", "pmm2")}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            McSpec(model="arima", theta=(0.7,), innovations=InnovationSpec("gaussian"),
                   n=100)  # missing order
        with pytest.raises(ValueError):
            McSpec(model="ar", theta=(0.7, 0.1, 0.3), innovations=InnovationSpec("gaussian"),
                   n=100, order=ModelOrder(p=1))  # theta length mismatch
        with pytest.raises(ValueError, match="takes no ModelOrder"):
            McSpec("regression", (1.0, 2.0), InnovationSpec("gaussian"), 100,
                   order=ModelOrder(p=1))
        with pytest.raises(ValueError, match="unknown model 'garch'"):
            McSpec("garch", (1.0,), InnovationSpec("gaussian"), 100)
        with pytest.raises(ValueError, match="regression theta needs at least an intercept"):
            McSpec("regression", (), InnovationSpec("gaussian"), 100)
        with pytest.raises(ValueError, match="burnin must be >= 0, got -1"):
            McSpec("ar", (0.5, 0.0), InnovationSpec("gaussian"), 100,
                   order=ModelOrder(p=1), burnin=-1)

    def test_summary_csv_round_trip(self, tmp_path):
        _, summary = run_monte_carlo([tiny_regression_spec()], ("ols", "pmm2"), 60, seed=2)
        path = tmp_path / "summary.csv"
        summary.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "label,method,parameter,n_used,mse,bias,variance,coverage,gain,theory_g"
        assert len(text) == 1 + len(summary.rows)


def independent_estimates(spec, methods, n_sim, seed):
    """The estimate matrices of run_monte_carlo for one spec, rebuilt from the
    same SeedSequence children with every method fit on its own."""
    reps = np.random.SeedSequence(seed).spawn(1)[0].spawn(n_sim)
    params = TsParams.from_vector(np.asarray(spec.theta), spec.order)
    est = {m: np.full((n_sim, spec.order.n_params), np.nan) for m in methods}
    for i, child in enumerate(reps):
        eps = sample_innovations(spec.innovations, spec.n + spec.burnin,
                                 np.random.default_rng(child))
        x = simulate_arima(spec.order, params, eps, spec.burnin)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits = {m: fit_model(x, m, spec.order) for m in methods}
                for fit in fits.values():
                    if not fit.converged:
                        raise FitFailureError("unconverged")
                    ts_asymptotic_covariance(fit)
        except _REPLICATE_FAILURES:
            continue
        for m, fit in fits.items():
            est[m][i] = fit.coefficients
    return est


@pytest.mark.parametrize("methods", [("css", "pmm2"), ("pmm2", "pmm3", "css")])
@pytest.mark.parametrize("model, theta, order", [
    ("arima", (0.6,), ModelOrder(p=1, d=1)),
    ("arma", (0.5, 0.3, 1.0), ModelOrder(p=1, q=1)),
])
def test_estimates_equal_independent_fits(methods, model, theta, order):
    # each replicate's PMM fits start from its CSS fit; the numbers must be
    # those of fitting every method on its own.  At n = 25 one replicate drops
    # in three of the four cases, so the NaN rows are checked too.
    spec = McSpec(model=model, theta=theta, innovations=InnovationSpec("gamma"),
                  n=25, label="s", order=order)
    results, _ = run_monte_carlo([spec], methods, 50, seed=2)
    expected = independent_estimates(spec, methods, 50, 2)
    for m in methods:
        assert results[("s", m)].tobytes() == expected[m].tobytes()


class TestAdvantageGrid:
    def test_skew_family_has_exact_skewness(self):
        for g3 in (0.4, 0.8, 1.2, 2.0):
            profile = innovation_theory(skew_innovations(g3))
            assert profile.gamma3 == pytest.approx(g3, rel=1e-12)
        assert skew_innovations(0.0).family == "gaussian"
        with pytest.raises(ValueError):
            skew_innovations(-0.5)

    def test_small_grid_shape_and_csv(self, tmp_path):
        result = advantage_grid([0.0, 1.6], [100], B=60, seed=3)
        assert result.values.shape == (2, 1)
        assert result.rows == [(0.0, 100, pytest.approx(result.values[0, 0])),
                               (1.6, 100, pytest.approx(result.values[1, 0]))]
        path = tmp_path / "grid.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma3,n,g2_hat"
        assert len(lines) == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            advantage_grid([], [100], B=60)

    def test_repeated_grid_value_is_rejected_before_any_replicate(self, monkeypatch):
        def chunk(args):
            raise AssertionError("a replicate ran before the grid check")

        monkeypatch.setattr(mcbench, "_replicate_chunk", chunk)
        with pytest.raises(ValueError, match="grid gamma3 value 0.5 is repeated"):
            advantage_grid([0.5, 1.0, 0.5], [100], B=50)
        with pytest.raises(ValueError, match="grid n value 100 is repeated"):
            advantage_grid([0.5], [100, 200, 100], B=50)

    def test_replications_per_cell_minimum(self):
        with pytest.raises(ValueError, match="B must be >= 50, got 49"):
            advantage_grid([0.0], [100], B=49)

    def test_strong_skew_cell_matches_table_ratio(self):
        # gamma3 = 1.41 reproduces the gamma(2,1) configuration; at N = 500
        # the MSE ratio sits near the asymptotic 0.60
        result = advantage_grid([1.41], [500], B=200, seed=8)
        assert result.values[0, 0] == pytest.approx(0.60, abs=0.15)
