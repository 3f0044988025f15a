"""Innovation-distribution catalog with exact cumulants and the Monte Carlo engine.

Innovation laws live in ``_FAMILIES``, one record each with its parameter
keys and defaults, validity check, mean, exact cumulants and sampler; every
draw is shifted to mean 0.  Sixth-cumulant closed forms exist for
the symmetric families only, so g3 is reported only for those.

The engine simulates ``n_sim`` data sets per specification, fits every
requested method, and reports MSE / bias / variance / coverage of the
normal intervals plus the empirical efficiency gain MSE(method) /
MSE(baseline) next to its theoretical value ``McSummaryRow.theory_g``.

Replicates run in chunks through the bootstraps' loop
``inference._replicates`` and follow its drop rule; a replicate dropped for
one method is dropped for all.  With ``n_jobs`` > 1 (it must be at least
1), one process pool runs the chunks of every spec and serves the whole call
(a whole ``mc`` or ``grid`` command); the output does not depend on ``n_jobs``.
"""

import csv
import math
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .cumulants import CumulantProfile, g2_coefficient, g3_coefficient
from .dispatch import _method_name, fit_model
from .errors import InputTooShortError
from .inference import _check_failures, _converged, _replicates
from .linmodel import DesignProblem, _extra_rows, _normal_intervals, asymptotic_covariance
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
        if self.burnin < 0:
            raise ValueError(f"burnin must be >= 0, got {self.burnin}")
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
    """One (spec, method, parameter) cell.  ``theory_g`` is the theoretical
    variance ratio to the baseline: 1 for the baseline, g3 for PMM3 (None where
    the family has no closed-form sixth cumulant), and for PMM2 g2, except 1
    on the intercept or mean, whose PMM2 variance is the baseline's."""

    label: str
    method: str
    parameter: str
    n_used: int
    mse: float
    bias: float
    variance: float
    coverage: float
    gain: float | None  # MSE / MSE(baseline); None without the baseline
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


# parameters that PMM2 estimates at the baseline's variance (``linmodel._covariance``)
_LOCATION = ("intercept", "mean")


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


_Z95 = 1.9599639845400536  # NormalDist().inv_cdf(0.975), without importing statistics


def _fit_method(spec: McSpec, method: str, data, css=None):
    """Fit one method, from the replicate's converged CSS fit ``css`` when one
    is given (itself the "css" fit); return (estimates, 95%-interval coverage vector)."""
    if css is None:
        fit = fit_model(data, method, spec.order)
    else:
        fit = css if method == "css" else _fit_series(method.upper(), data, spec.order, css=css)
    fit = _converged(fit)
    cov = asymptotic_covariance(fit, data) if spec.order is None else ts_asymptotic_covariance(fit)
    lo, hi = _normal_intervals(fit.coefficients, cov, _Z95).T
    return fit.coefficients, (lo <= spec.theta) & (spec.theta <= hi)


def _replicate_chunk(args):
    """Payloads {method: (estimates, covered)} of one chunk of replicates, None
    for a failed replicate: each simulates once and fits every method.

    With "css" requested, a series is fit by CSS first and every PMM fit
    starts from that fit, so CSS runs once per replicate; a replicate is
    dropped when any method fails, so the fitting order changes nothing."""
    spec, methods, seeds = args

    def refit(data):
        css = _converged(fit_model(data, "css", spec.order)) if "css" in methods else None
        return {m: _fit_method(spec, m, data, css) for m in methods}

    return _replicates(seeds, lambda rng: _simulate_spec(spec, rng), refit)


def run_monte_carlo(specs, methods, n_sim: int, seed: int = 0, n_jobs: int = 1):
    """Simulate and fit every spec x method; return (results, McSummary).

    ``methods`` are METHODS names; "ols" and "css" both mean the baseline of
    each spec's kind, so one call may mix regression and series specs.
    ``results`` maps (label, canonical method) to an (n_sim, k) estimate
    matrix with NaN rows for dropped replicates.  A replicate is dropped for
    all methods when any requested method fails on it, keeping the MSE
    comparisons matched; a spec errors out when more than 10% of replicates
    drop, or (InputTooShortError) before any replicate when any spec's n is
    too short.  A chunk holds ceil(n_sim / (4 n_jobs)) replicates.
    """
    specs = list(specs)
    if n_sim < 50:
        raise ValueError(f"n_sim must be >= 50, got {n_sim}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if len({s.label for s in specs}) != len(specs):
        raise ValueError("spec labels must be unique")
    methods_per_spec = [_normalize_methods(methods, s.order is None) for s in specs]
    for spec, spec_methods in zip(specs, methods_per_spec):
        for m in spec_methods:  # before any replicate: a short n fails every one
            _check_length(spec, m)
    streams = np.random.SeedSequence(seed).spawn(len(specs))
    size = math.ceil(n_sim / (4 * n_jobs))
    pool = nullcontext()
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=n_jobs)
    results: dict[tuple[str, str], np.ndarray] = {}
    rows: list[McSummaryRow] = []
    n_failed: dict[str, int] = {}
    with pool:
        run = map if n_jobs == 1 else pool.map
        for spec, spec_methods, stream in zip(specs, methods_per_spec, streams):
            seeds = stream.spawn(n_sim)
            chunks = [(spec, spec_methods, seeds[i:i + size]) for i in range(0, n_sim, size)]
            payloads = [p for part in run(_replicate_chunk, chunks) for p in part]
            kept = [p for p in payloads if p is not None]
            n_failed[spec.label] = n_sim - len(kept)
            _check_failures(n_failed[spec.label], n_sim, f"replicates of spec {spec.label!r}")
            names = _spec_param_names(spec)
            est = {m: np.array([p[m][0] for p in kept]) for m in spec_methods}
            mses = {m: np.mean((est[m] - spec.theta) ** 2, axis=0) for m in spec_methods}
            baseline = _method_name("ols", spec.order is None).lower()
            profile = innovation_theory(spec.innovations)
            theory = {"pmm2": profile.g2, "pmm3": profile.g3, baseline: 1.0}
            for m in spec_methods:
                results[(spec.label, m)] = np.array(
                    [np.full(len(names), np.nan) if p is None else p[m][0] for p in payloads])
                bias = est[m].mean(axis=0) - spec.theta
                variance = est[m].var(axis=0)
                coverage = np.mean([p[m][1] for p in kept], axis=0)
                gain = mses[m] / mses[baseline] if baseline in mses else None
                for j, name in enumerate(names):
                    rows.append(McSummaryRow(
                        label=spec.label, method=m, parameter=name,
                        n_used=len(kept), mse=float(mses[m][j]),
                        bias=float(bias[j]), variance=float(variance[j]),
                        coverage=float(coverage[j]),
                        gain=None if gain is None else float(gain[j]),
                        theory_g=1.0 if m == "pmm2" and name in _LOCATION else theory.get(m)))
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
    """Empirical MSE(PMM2)/MSE(baseline) of the leading parameter per (gamma3, N)
    cell; a cell is labelled ``gamma<repr(gamma3)>_n<N>`` and no value may repeat."""
    gamma3_grid = [float(g) for g in gamma3_grid]
    n_grid = [int(n) for n in n_grid]
    if not gamma3_grid or not n_grid:
        raise ValueError("empty grid")
    for name, grid in (("gamma3", gamma3_grid), ("n", n_grid)):
        repeated = [v for i, v in enumerate(grid) if v in grid[:i]]
        if repeated:
            raise ValueError(f"grid {name} value {repeated[0]!r} is repeated")
    if B < 50:
        raise ValueError(f"B must be >= 50, got {B}")
    if model is None:
        model = McSpec(model="arima", theta=(0.7,), label="grid",
                       innovations=InnovationSpec("gaussian"), n=200,
                       order=ModelOrder(p=1, d=1, q=0))
    names = _spec_param_names(model)
    leading = names[1] if model.order is None and len(names) > 1 else names[0]
    specs = [replace(model, innovations=skew_innovations(g), n=n, label=f"gamma{g!r}_n{n}")
             for g in gamma3_grid for n in n_grid]
    _, summary = run_monte_carlo(specs, ("ols", "pmm2"), B, seed=seed, n_jobs=n_jobs)
    gains = [r.gain for r in summary.rows if (r.method, r.parameter) == ("pmm2", leading)]
    return GridResult(gamma3=gamma3_grid, n=n_grid,
                      values=np.reshape(gains, (len(gamma3_grid), len(n_grid))))
