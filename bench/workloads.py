"""Workload definitions: seeded inputs, jobs, fit counts and checked outputs.

Inputs come only from the workload seed and the bundled series
``data/ar1_gamma_sample.csv``; the program receives nothing else.  Input
generation uses numpy alone (no scipy), so a change in what the program
imports shows in ``setup_s`` instead of being hidden by the benchmark.

Every job reaches the program through attributes of the ``pmmest`` package
looked up at call time, so the tracer's wrappers are used when installed.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

BUNDLED = os.path.join("data", "ar1_gamma_sample.csv")
WORKLOADS = ("cli_oneshot", "ts_resample", "lin_resample")
IN_PROCESS = ("ts_resample", "lin_resample")


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    # One independent stream per input, so inputs do not shift one another.
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def gamma_errors(rng, n):
    """Gamma(2, 1) errors shifted to mean zero: skewness 1.41, g2 = 0.60."""
    return rng.gamma(2.0, 1.0, n) - 2.0


def uniform_errors(rng, n):
    """Uniform(-1, 1) errors: symmetric and platykurtic, g3 = 0.30."""
    return rng.uniform(-1.0, 1.0, n)


def regression_data(rng, n, errors):
    """y = 1 + 2 x + e with x ~ N(0, 1); returns (X with intercept, y)."""
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x])
    return X, X @ np.array([1.0, 2.0]) + errors(rng, n)


def sarima_series(rng, n, burnin=200):
    """SARIMA(1,0,1)(1,0,1)_12 with phi .5, theta .3, Phi .4, Theta .2, Gamma errors."""
    ar = np.convolve([1.0, -0.5], np.r_[1.0, np.zeros(11), -0.4])[1:] * -1.0
    ma = np.convolve([1.0, 0.3], np.r_[1.0, np.zeros(11), 0.2])[1:]
    e = gamma_errors(rng, n + burnin)
    z = np.zeros(n + burnin)
    for t in range(z.size):
        acc = e[t]
        for j in range(1, min(t, ar.size) + 1):
            acc += ar[j - 1] * z[t - j] + ma[j - 1] * e[t - j]
        z[t] = acc
    return z[burnin:]


def read_bundled(root: str) -> np.ndarray:
    with open(os.path.join(root, BUNDLED), newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[0]) for r in rows[1:] if r], dtype=float)


def make_inputs(workload: str, seed: int, root: str) -> dict:
    if workload == "ts_resample":
        return {"seed": seed, "bundled": read_bundled(root),
                "sarima": sarima_series(_rng(seed, 1), 600)}
    if workload == "lin_resample":
        return {"seed": seed, "bundled": read_bundled(root),
                "gamma_n100": regression_data(_rng(seed, 1), 100, gamma_errors),
                "uniform_n100": regression_data(_rng(seed, 2), 100, uniform_errors),
                "gamma_n2000": regression_data(_rng(seed, 3), 2000, gamma_errors)}
    raise ValueError(f"no in-process inputs for workload {workload!r}")


def write_cli_inputs(seed: int, directory: str) -> dict:
    """Seeded CSVs for cli_oneshot: a Gamma-error regression and uniform residuals."""
    X, y = regression_data(_rng(seed, 1), 200, gamma_errors)
    e = uniform_errors(_rng(seed, 2), 300)
    paths = {"regression": os.path.join(directory, "regression.csv"),
             "residuals": os.path.join(directory, "residuals.csv")}
    with open(paths["regression"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x"])
        w.writerows([repr(float(a)), repr(float(b))] for a, b in zip(y, X[:, 1]))
    with open(paths["residuals"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["e"])
        w.writerows([repr(float(v))] for v in e)
    return paths


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One unit of client work: what one CLI command would run, minus import.

    ``fits`` is the fit count from the job definition (a bootstrap counts
    1 + B, a Monte Carlo run n_sim x methods x specs, a single fit 1).
    """

    name: str
    fits: int
    run: object        # (pmmest, inputs) -> result
    outputs: object    # result -> {name: list of floats}; compared bit for bit
    failed: object     # result -> failed fits or replicates inside the job


def _vec(v):
    return [float(a) for a in np.asarray(v, dtype=float).ravel()]


def _boot_outputs(res):
    return {"estimate": _vec(res.estimate), "std_error": _vec(res.std_error),
            "conf_low": _vec(res.conf_low), "conf_high": _vec(res.conf_high),
            "p_value": _vec(res.p_value), "n_failed": [float(res.n_failed)]}


def _fit_outputs(fit):
    return {"coefficients": _vec(fit.coefficients), "objective": [float(fit.objective)],
            "converged": [float(fit.converged)]}


def _mc_outputs(result):
    _, summary = result
    out = {"n_failed": [float(v) for _, v in sorted(summary.n_failed.items())]}
    for row in summary.rows:
        key = f"{row.method}.{row.parameter}"
        out[f"mse.{key}"] = [row.mse]
        if row.gain is not None and row.gain != 1.0:
            out[f"gain.{key}"] = [row.gain]
    return out


def _boot_failed(res):
    return res.n_failed


def _fit_failed(fit):
    return int(not fit.converged)


def _mc_failed(n_methods):
    return lambda result: sum(result[1].n_failed.values()) * n_methods


def _problem(pm, data):
    X, y = data
    return pm.DesignProblem(X, y, ["intercept", "x"])


def ts_jobs():
    return [
        Job("block_bootstrap_arma11_pmm2_B100", 101,
            lambda pm, d: pm.block_bootstrap_ts(
                d["bundled"], pm.ModelOrder(p=1, q=1), method="PMM2", B=100,
                seed=d["seed"]),
            _boot_outputs, _boot_failed),
        Job("advantage_grid_B100", 100 * 2 * 4,
            lambda pm, d: pm.advantage_grid((0.0, 1.2), (100, 500), B=100, seed=d["seed"]),
            lambda g: {"values": _vec(g.values)}, lambda g: 0),
        Job("fit_ts_pmm2_sarima_n600", 1,
            lambda pm, d: pm.fit_ts_pmm2(d["sarima"], pm.ModelOrder(p=1, q=1, P=1, Q=1, s=12)),
            _fit_outputs, _fit_failed),
        Job("fit_ts_pmm3_sarima_n600", 1,
            lambda pm, d: pm.fit_ts_pmm3(d["sarima"], pm.ModelOrder(p=1, q=1, P=1, Q=1, s=12)),
            _fit_outputs, _fit_failed),
    ]


def lin_jobs():
    gamma = ("gamma", (2.0, 1.0))
    return [
        Job("residual_bootstrap_pmm2_n100_B500", 501,
            lambda pm, d: pm.residual_bootstrap(_problem(pm, d["gamma_n100"]), "PMM2",
                                                B=500, seed=d["seed"]),
            _boot_outputs, _boot_failed),
        Job("residual_bootstrap_pmm3_n100_B500", 501,
            lambda pm, d: pm.residual_bootstrap(_problem(pm, d["uniform_n100"]), "PMM3",
                                                B=500, seed=d["seed"]),
            _boot_outputs, _boot_failed),
        Job("residual_bootstrap_pmm2_n2000_B100", 101,
            lambda pm, d: pm.residual_bootstrap(_problem(pm, d["gamma_n2000"]), "PMM2",
                                                B=100, seed=d["seed"]),
            _boot_outputs, _boot_failed),
        Job("block_bootstrap_ar1_pmm2_B300", 301,
            lambda pm, d: pm.block_bootstrap_ts(d["bundled"], pm.ModelOrder(p=1),
                                                method="PMM2", B=300, seed=d["seed"]),
            _boot_outputs, _boot_failed),
        Job("mc_regression_gamma_n100", 300 * 3,
            lambda pm, d: pm.run_monte_carlo(
                [pm.McSpec("regression", (1.0, 2.0), pm.InnovationSpec(*gamma), 100)],
                ("ols", "pmm2", "pmm3"), 300, seed=d["seed"]),
            _mc_outputs, _mc_failed(3)),
        Job("mc_ar1_gamma_n200", 300 * 2,
            lambda pm, d: pm.run_monte_carlo(
                [pm.McSpec("ar", (0.5, 0.0), pm.InnovationSpec(*gamma), 200,
                           order=pm.ModelOrder(p=1))],
                ("css", "pmm2"), 300, seed=d["seed"]),
            _mc_outputs, _mc_failed(2)),
    ]


def jobs(workload: str):
    return {"ts_resample": ts_jobs, "lin_resample": lin_jobs}[workload]()


# ---------------------------------------------------------------------------
# cli_oneshot commands
# ---------------------------------------------------------------------------

def cli_commands(inputs: dict, out_dir: str):
    """(name, argv after ``python -m pmmest.cli``, report path) per command."""
    commands = [
        ("fit_auto_ar1", ["fit", "--input", BUNDLED, "--column", "y", "--method", "auto",
                          "--order", "1,0,0"]),
        ("fit_pmm2_arma11_h5", ["fit", "--input", BUNDLED, "--column", "y",
                                "--method", "pmm2", "--order", "1,0,1", "--horizon", "5"]),
        ("fit_auto_regression", ["fit", "--input", inputs["regression"], "--column", "y",
                                 "--design", "x", "--method", "auto"]),
        ("dispatch_residuals", ["dispatch", "--input", inputs["residuals"], "--column", "e"]),
    ]
    out = []
    for name, argv in commands:
        report = os.path.join(out_dir, f"{name}.json")
        out.append((name, argv + ["--output", report], report))
    return out


def report_values(report: dict) -> dict:
    """Values of a CLI report that the reference check compares."""
    out = {}
    if report.get("command") == "fit":
        out["method"] = [report["method"]]
        out["coefficients"] = [float(v) for _, v in sorted(report["coefficients"].items())]
        out["g_coefficient"] = [float(report["g_coefficient"])]
        if "forecasts" in report:
            out["forecasts"] = [float(v) for v in report["forecasts"]]
    else:
        d = report["decision"]
        out["method"] = [d["method"]]
        out["cumulants"] = [float(d["gamma3"]), float(d["gamma4"]), float(d["g2"])]
    return out


# ---------------------------------------------------------------------------
# Seed-independent checks of in-process outputs
# ---------------------------------------------------------------------------

def _finite(values):
    return all(np.isfinite(values))


def check_invariants(pm, inputs, outputs) -> list[str]:
    """Checks that hold for every seed; returns a list of problems.

    A bootstrap's point estimate must equal a direct fit of the same data
    bit for bit, standard errors must be finite and positive, and fits,
    gains and grid cells must be finite.  Runs untimed and untraced.
    """
    problems = []

    def expect(ok, text):
        if not ok:
            problems.append(text)

    direct = {
        "residual_bootstrap_pmm2_n100_B500":
            lambda: pm.fit_pmm2(_problem(pm, inputs["gamma_n100"])).coefficients,
        "residual_bootstrap_pmm3_n100_B500":
            lambda: pm.fit_pmm3(_problem(pm, inputs["uniform_n100"])).coefficients,
        "residual_bootstrap_pmm2_n2000_B100":
            lambda: pm.fit_pmm2(_problem(pm, inputs["gamma_n2000"])).coefficients,
        "block_bootstrap_ar1_pmm2_B300":
            lambda: pm.fit_ar_pmm2(inputs["bundled"], 1).coefficients,
        "block_bootstrap_arma11_pmm2_B100":
            lambda: pm.fit_ts_pmm2(inputs["bundled"], pm.ModelOrder(p=1, q=1)).coefficients,
    }
    for name, out in outputs.items():
        if name in direct:
            expect(out["estimate"] == _vec(direct[name]()),
                   f"{name}: estimate differs from a direct fit of the same data")
            expect(_finite(out["std_error"]) and min(out["std_error"]) > 0.0,
                   f"{name}: standard errors not finite and positive")
        elif "coefficients" in out:
            expect(_finite(out["coefficients"]), f"{name}: non-finite coefficients")
        else:
            values = [v for key, vals in out.items() if key != "n_failed" for v in vals]
            expect(_finite(values) and min(values) > 0.0,
                   f"{name}: gains or MSEs not finite and positive")
    return problems
