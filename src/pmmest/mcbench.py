"""Innovation-distribution catalog with exact cumulants and the Monte Carlo engine.

Innovation laws live in ``_FAMILIES``, one record each with its parameter
keys and defaults, validity check, mean, exact cumulants and sampler; every
draw is shifted to mean 0.  Sixth-cumulant closed forms exist for
the symmetric families only, so g3 is reported only for those.

The engine simulates ``n_sim`` data sets per specification, fits every
requested method, and reports MSE / bias / variance / coverage plus the
empirical efficiency gain MSE(method) / MSE(baseline) next to the
theoretical g2 or g3.

Replicates, serial or in process-pool chunks, run through the bootstraps'
loop ``inference._replicates`` and follow its drop rule; a replicate dropped
for one method is dropped for all.
"""

import csv
import math
from collections.abc import Callable
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .cumulants import CumulantProfile, g2_coefficient, g3_coefficient
from .dispatch import _method_name, fit_model
from .errors import InputTooShortError
from .inference import _check_failures, _converged, _replicates
from .linmodel import DesignProblem, _extra_rows, asymptotic_covariance
from .tscore import (
    ModelOrder,
    _fit_series,
    _min_series_length,
    param_names,
    simulate_arima,
    ts_asymptotic_covariance,
)

__all__ = [
    "InnovationSpec",
    "McSpec",
    "McSummary",
    "McSummaryRow",
    "GridResult",
    "innovation_theory",
    "innovation_mean",
    "sample_innovations",
    "run_monte_carlo",
    "advantage_grid",
]

@dataclass(frozen=True)
class InnovationSpec:
    """I.i.d. innovation law; ``params`` may be a prefix of the family tuple."""

    family: str
    params: tuple = ()


@dataclass(frozen=True)
class _Family:
    """One innovation law: parameter keys and defaults, the check that rejects
    a parameter tuple (with its message), the mean of the unshifted law, the
    exact cumulants (gamma3, gamma4, gamma6 or None) and the sampler."""

    keys: tuple
    defaults: tuple
    invalid: Callable
    message: str
    mean: Callable
    cumulants: Callable
    draw: Callable


def _lognormal_cumulants(p):
    w = math.exp(p[1] ** 2)
    return (w + 2.0) * math.sqrt(w - 1.0), w**4 + 2.0 * w**3 + 3.0 * w**2 - 6.0, None


def _beta_cumulants(p):
    a, b = p
    gamma3 = 2.0 * (b - a) * math.sqrt(a + b + 1.0) / ((a + b + 2.0) * math.sqrt(a * b))
    gamma4 = 6.0 * ((a - b) ** 2 * (a + b + 1.0) - a * b * (a + b + 2.0)) \
        / (a * b * (a + b + 2.0) * (a + b + 3.0))
    return gamma3, gamma4, None


# Sixth cumulants are closed-form for the symmetric families only.
_FAMILIES = {
    "gaussian": _Family(
        ("sd",), (1.0,), lambda p: p[0] <= 0, "gaussian sd must be positive",
        lambda p: 0.0, lambda p: (0.0, 0.0, 0.0),
        lambda rng, p, n: rng.normal(0.0, p[0], n)),
    "gamma": _Family(
        ("shape", "rate"), (2.0, 1.0), lambda p: p[0] <= 0 or p[1] <= 0,
        "gamma shape and rate must be positive",
        lambda p: p[0] / p[1], lambda p: (2.0 / math.sqrt(p[0]), 6.0 / p[0], None),
        lambda rng, p, n: rng.gamma(p[0], 1.0 / p[1], n)),
    "lognormal": _Family(
        ("mu", "sigma"), (0.0, 0.55), lambda p: p[1] <= 0, "lognormal sigma must be positive",
        lambda p: math.exp(p[0] + p[1] ** 2 / 2.0), _lognormal_cumulants,
        lambda rng, p, n: rng.lognormal(p[0], p[1], n)),
    "chisq": _Family(
        ("df",), (3.0,), lambda p: p[0] <= 0, "chisq df must be positive",
        lambda p: p[0], lambda p: (math.sqrt(8.0 / p[0]), 12.0 / p[0], None),
        lambda rng, p, n: rng.chisquare(p[0], n)),
    "uniform": _Family(
        ("low", "high"), (-1.0, 1.0), lambda p: p[0] >= p[1], "uniform requires low < high",
        lambda p: (p[0] + p[1]) / 2.0, lambda p: (0.0, -1.2, 48.0 / 7.0),
        lambda rng, p, n: rng.uniform(p[0], p[1], n)),
    "beta": _Family(
        ("a", "b"), (2.0, 5.0), lambda p: p[0] <= 0 or p[1] <= 0,
        "beta shape parameters must be positive",
        lambda p: p[0] / (p[0] + p[1]), _beta_cumulants,
        lambda rng, p, n: rng.beta(p[0], p[1], n)),
    "laplace": _Family(
        ("scale",), (1.0,), lambda p: p[0] <= 0, "laplace scale must be positive",
        lambda p: 0.0, lambda p: (0.0, 3.0, 30.0),
        lambda rng, p, n: rng.laplace(0.0, p[0], n)),
    "triangular": _Family(  # symmetric, mode 0
        ("half_width",), (1.0,), lambda p: p[0] <= 0, "triangular half width must be positive",
        lambda p: 0.0, lambda p: (0.0, -0.6, 12.0 / 7.0),
        lambda rng, p, n: rng.triangular(-p[0], 0.0, p[0], n)),
}


def _resolve(spec: InnovationSpec) -> tuple[_Family, tuple]:
    """The family record of ``spec`` and its full, validated parameter tuple."""
    family = _FAMILIES.get(spec.family)
    if family is None:
        raise ValueError(f"unknown innovation family {spec.family!r}; "
                         f"choose from {sorted(_FAMILIES)}")
    given = tuple(float(v) for v in spec.params)
    if len(given) > len(family.defaults):
        raise ValueError(f"{spec.family} takes at most {len(family.defaults)} parameters")
    params = given + family.defaults[len(given):]
    if family.invalid(params):
        raise ValueError(family.message)
    return family, params


def innovation_mean(spec: InnovationSpec) -> float:
    """Population mean of the unshifted law (the standardizing shift)."""
    family, params = _resolve(spec)
    return family.mean(params)


def innovation_theory(spec: InnovationSpec) -> CumulantProfile:
    """Exact population cumulants and efficiency coefficients of the family."""
    family, params = _resolve(spec)
    gamma3, gamma4, gamma6 = family.cumulants(params)
    g2 = g2_coefficient(gamma3, gamma4)
    g3 = g3_coefficient(gamma4, gamma6) if gamma6 is not None else None
    return CumulantProfile(gamma3, gamma4, gamma6, g2, g3)


def sample_innovations(spec: InnovationSpec, n: int, rng: "np.random.Generator") -> np.ndarray:
    """Draw n i.i.d. innovations, shifted to mean zero."""
    family, params = _resolve(spec)
    return family.draw(rng, params, n) - family.mean(params)


# ---------------------------------------------------------------------------
# Monte Carlo comparison engine
# ---------------------------------------------------------------------------

MODELS = ("regression", "ar", "ma", "arma", "arima")


@dataclass(frozen=True)
class McSpec:
    """One simulation scenario: true parameters, innovation law, and the
    ModelOrder of a series (None for a regression).  ``model`` (one of MODELS)
    only prefixes the default label."""

    model: str
    theta: tuple
    innovations: InnovationSpec
    n: int
    label: str = ""
    order: ModelOrder | None = None
    burnin: int = 100

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        if not self.label:
            object.__setattr__(self, "label", f"{self.model}_{self.innovations.family}")
        if (self.model == "regression") != (self.order is None):
            need = "requires a" if self.order is None else "takes no"
            raise ValueError(f"model {self.model!r} {need} ModelOrder")
        if self.order is None:
            if len(self.theta) < 1:
                raise ValueError("regression theta needs at least an intercept")
        elif len(self.theta) != self.order.n_params:
            raise ValueError(f"theta has {len(self.theta)} entries but the order needs "
                             f"{self.order.n_params}")


@dataclass(frozen=True)
class McSummaryRow:
    label: str
    method: str
    parameter: str
    n_used: int
    mse: float
    bias: float
    variance: float
    coverage: float
    gain: float | None
    theory_g: float | None


@dataclass
class McSummary:
    rows: list[McSummaryRow]
    n_sim: int
    n_failed: dict[str, int]

    def get(self, label: str, method: str, parameter: str) -> McSummaryRow:
        for row in self.rows:
            if (row.label, row.method, row.parameter) == (label, method, parameter):
                return row
        raise KeyError((label, method, parameter))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(McSummaryRow)])
            for r in self.rows:  # floats by repr, None as an empty cell
                writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                                 for v in astuple(r)])


def _normalize_methods(methods, regression: bool) -> list[str]:
    """Canonical lower-case names of ``methods``, deduplicated in order; either
    baseline name means the baseline of the spec's kind."""
    names = [_method_name(m, regression).lower() for m in methods]
    if not names:
        raise ValueError("no methods requested")
    return list(dict.fromkeys(names))


def _spec_param_names(spec: McSpec) -> list[str]:
    if spec.order is None:
        return ["intercept"] + [f"x{j}" for j in range(1, len(spec.theta))]
    return param_names(spec.order)


def _check_length(spec: McSpec, method: str):
    """InputTooShortError unless ``spec.n`` suffices for the fitters' length rule
    of ``method`` and, for a regression, the covariance's moments (n >= 4)."""
    if spec.order is not None:
        need = _min_series_length(spec.order, method.upper())
    else:
        need = max(3, len(spec.theta) + _extra_rows(method.upper()) - 1)
    if spec.n <= need:
        raise InputTooShortError(f"spec {spec.label!r}: n = {spec.n} is too short for "
                                 f"{method}, which needs n > {need}")


def _simulate_spec(spec: McSpec, rng: "np.random.Generator"):
    if spec.order is None:
        eps = sample_innovations(spec.innovations, spec.n, rng)
        cols = [rng.standard_normal(spec.n) for _ in range(len(spec.theta) - 1)]
        X = np.column_stack([np.ones(spec.n)] + cols)
        return DesignProblem(X, X @ np.asarray(spec.theta) + eps, _spec_param_names(spec))
    eps = sample_innovations(spec.innovations, spec.n + spec.burnin, rng)
    return simulate_arima(spec.order, np.asarray(spec.theta), eps, spec.burnin)


def _fit_method(spec: McSpec, method: str, data, z: float, css=None):
    """Fit one method, from the replicate's CSS fit ``css`` when one is given;
    return (estimates, covered-indicator vector)."""
    fit = _converged(fit_model(data, method, spec.order) if css is None
                     else _fit_series(_method_name(method, False), data, spec.order, css=css))
    if spec.order is None:
        cov = asymptotic_covariance(fit, data)
    else:
        cov = ts_asymptotic_covariance(fit)
    est = fit.coefficients
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    covered = np.abs(est - np.asarray(spec.theta)) <= z * se
    return est, covered


def _replicate_chunk(args):
    """Payloads {method: (estimates, covered)} of one chunk of replicates, None
    for a failed replicate: each simulates once and fits every method.

    With "css" requested, a series is fit by CSS first and every PMM fit
    starts from that fit, so CSS runs once per replicate; a replicate is
    dropped when any method fails, so the fitting order changes nothing."""
    from statistics import NormalDist
    spec, methods, seeds = args
    z = NormalDist().inv_cdf(0.975)  # intervals of nominal 95% coverage

    def refit(data):
        css = _converged(fit_model(data, "css", spec.order)) if "css" in methods else None
        return {m: _fit_method(spec, m, data, z, css) for m in methods}

    return _replicates(seeds, lambda rng: _simulate_spec(spec, rng), refit)


def run_monte_carlo(specs, methods, n_sim: int, seed: int = 0, n_jobs: int = 1):
    """Simulate and fit every spec x method; return (results, McSummary).

    ``methods`` are METHODS names; "ols" and "css" both mean the baseline of
    each spec's kind, so one call may mix regression and series specs.
    ``results`` maps (label, canonical method) to an (n_sim, k) estimate
    matrix with NaN rows for dropped replicates.  A replicate is dropped for
    all methods when any requested method fails on it, keeping the MSE
    comparisons matched; a spec errors out when more than 10% of replicates
    drop, or (InputTooShortError) before any replicate when n is too short.
    """
    specs = list(specs)
    if n_sim < 50:
        raise ValueError(f"n_sim must be >= 50, got {n_sim}")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValueError("spec labels must be unique")
    root = np.random.SeedSequence(seed)
    spec_streams = root.spawn(len(specs))
    results: dict[tuple[str, str], np.ndarray] = {}
    rows: list[McSummaryRow] = []
    n_failed: dict[str, int] = {}
    for si, spec in enumerate(specs):
        regression = spec.order is None
        spec_methods = _normalize_methods(methods, regression)
        for m in spec_methods:  # before any replicate: a short n fails every one
            _check_length(spec, m)
        rep_seeds = spec_streams[si].spawn(n_sim)
        if n_jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            chunk_size = max(1, math.ceil(n_sim / (n_jobs * 4)))
            chunks = [(spec, spec_methods, rep_seeds[i:i + chunk_size])
                      for i in range(0, n_sim, chunk_size)]
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                payloads = [p for part in pool.map(_replicate_chunk, chunks) for p in part]
        else:
            payloads = _replicate_chunk((spec, spec_methods, rep_seeds))
        keep = np.array([p is not None for p in payloads])
        failed = n_sim - int(keep.sum())
        _check_failures(failed, n_sim, f"replicates of spec {spec.label!r}")
        n_failed[spec.label] = failed
        names = _spec_param_names(spec)
        est = {m: np.full((n_sim, len(names)), np.nan) for m in spec_methods}
        cov = {m: np.full((n_sim, len(names)), np.nan) for m in spec_methods}
        for idx in np.flatnonzero(keep):
            for m in spec_methods:
                est[m][idx], cov[m][idx] = payloads[idx][m]
        theta = np.asarray(spec.theta)
        mses = {m: np.mean((est[m][keep] - theta) ** 2, axis=0) for m in spec_methods}
        baseline = _method_name("ols", regression).lower()
        profile = innovation_theory(spec.innovations)
        for m in spec_methods:
            results[(spec.label, m)] = est[m]
            e = est[m][keep]
            bias = e.mean(axis=0) - theta
            variance = e.var(axis=0)
            coverage = cov[m][keep].mean(axis=0)
            if baseline in mses:
                gain = mses[m] / mses[baseline]
            else:
                gain = [None] * len(names)
            theory = {"pmm2": profile.g2, "pmm3": profile.g3,
                      baseline: 1.0}.get(m)
            for j, name in enumerate(names):
                rows.append(McSummaryRow(
                    label=spec.label, method=m, parameter=name,
                    n_used=int(keep.sum()), mse=float(mses[m][j]),
                    bias=float(bias[j]), variance=float(variance[j]),
                    coverage=float(coverage[j]),
                    gain=None if gain[j] is None else float(gain[j]),
                    theory_g=theory))
    return results, McSummary(rows=rows, n_sim=n_sim, n_failed=n_failed)


# ---------------------------------------------------------------------------
# Advantage grid
# ---------------------------------------------------------------------------

def skew_innovations(gamma3: float) -> InnovationSpec:
    """Standardized family with exact skewness gamma3: gamma(4/gamma3^2) or gaussian."""
    if gamma3 < 0.0:
        raise ValueError("grid skewness values must be non-negative")
    if gamma3 == 0.0:
        return InnovationSpec("gaussian")
    return InnovationSpec("gamma", (4.0 / gamma3**2, 1.0))


@dataclass
class GridResult:
    gamma3: list[float]
    n: list[int]
    values: np.ndarray  # shape (len(gamma3), len(n)); MSE(PMM2)/MSE(baseline)

    @property
    def rows(self) -> list[tuple[float, int, float]]:
        return [(g, n, float(self.values[i, j]))
                for i, g in enumerate(self.gamma3)
                for j, n in enumerate(self.n)]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma3", "n", "g2_hat"])
            for g, n, v in self.rows:
                writer.writerow([repr(float(g)), n, repr(v)])


def advantage_grid(gamma3_grid, n_grid, B: int, model: McSpec | None = None,
                   seed: int = 0, n_jobs: int = 1) -> GridResult:
    """Empirical MSE(PMM2)/MSE(baseline) of the leading parameter per (gamma3, N) cell."""
    gamma3_grid = [float(g) for g in gamma3_grid]
    n_grid = [int(n) for n in n_grid]
    if not gamma3_grid or not n_grid:
        raise ValueError("empty grid")
    if model is None:
        model = McSpec(model="arima", theta=(0.7,), label="grid",
                       innovations=InnovationSpec("gaussian"), n=200,
                       order=ModelOrder(p=1, d=1, q=0))
    names = _spec_param_names(model)
    leading = names[1] if model.order is None and len(names) > 1 else names[0]
    specs = [replace(model, innovations=skew_innovations(g), n=n,
                     label=f"gamma{g:g}_n{n}")
             for g in gamma3_grid for n in n_grid]
    _, summary = run_monte_carlo(specs, ("ols", "pmm2"), B, seed=seed,
                                 n_jobs=n_jobs)
    values = np.empty((len(gamma3_grid), len(n_grid)))
    for i, g in enumerate(gamma3_grid):
        for j, n in enumerate(n_grid):
            row = summary.get(f"gamma{g:g}_n{n}", "pmm2", leading)
            values[i, j] = row.gain
    return GridResult(gamma3=gamma3_grid, n=n_grid, values=values)
