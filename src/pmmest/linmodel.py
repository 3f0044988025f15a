"""Linear-model fitting: OLS baseline, PMM2 fixed point, symmetric PMM3 Newton steps.

PMM2 solves X'[e + c*(e^2 - m2)] = 0 with the quadratic weight c refreshed
from the current residuals at every step; PMM3 solves X'[b1*e + b3*e^3] = 0
with (b1, b3) from the sample moment system.  Both run one iteration over the
``cumulants._SCORES`` records: start from OLS, stop on an infinity-norm
coefficient-change rule.
"""

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .cumulants import _SCORES, MomentSet, central_moments
from .errors import (
    DegenerateMomentsError,
    FitFailureError,
    InputTooShortError,
    SingularDesignError,
    _require_finite,
)

__all__ = [
    "DesignProblem",
    "RegressionFit",
    "build_design",
    "fit_ols",
    "fit_pmm2",
    "fit_pmm3",
    "asymptotic_covariance",
    "confidence_intervals",
    "information_criteria",
]

# Relative singular-value tolerance for the rank check, on unit-norm columns.
RANK_RTOL = 1e-10
_MAX_ITER = 200  # of the PMM2/PMM3 regression fitters


@dataclass
class DesignProblem:
    """Fixed design matrix (intercept column included when requested) and response.

    ``X`` is read as fixed once constructed: its QR factorization is computed
    at construction and shared by every fit and covariance of the problem.
    """

    X: np.ndarray
    y: np.ndarray
    column_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, k = self.X.shape
        if self.y.size != n:
            raise ValueError(f"len(y) = {self.y.size} does not match X rows = {n}")
        if n <= k:
            raise SingularDesignError(f"need n > k, got n = {n}, k = {k}")
        if not self.column_names:
            self.column_names = [f"x{j + 1}" for j in range(k)]
        _require_finite("design matrix X", self.X)
        _require_finite("response y", self.y)
        q, r = np.linalg.qr(self.X)
        # X = QR has the singular values and column norms of R.  The rank is
        # checked on unit-norm columns (a zero column stays zero), whose
        # condition number is at most sqrt(k) times X's (van der Sluis), so
        # a design passing with that margin is not rescaled.
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] <= math.sqrt(k) * RANK_RTOL * sv[0]:
            # each column scaled by a power of two (exact), so its squares stay finite
            u = np.ldexp(r, -np.frexp(np.abs(r).max(axis=0))[1])
            norms = np.sqrt((u * u).sum(axis=0))
            sv = np.linalg.svd(u / np.where(norms > 0.0, norms, 1.0), compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise SingularDesignError(
                f"design is rank deficient (min/max singular value of the unit-norm "
                f"columns = {sv[-1]:.3e}/{sv[0]:.3e})")
        # P = R^-1 Q' (k x n): ``P @ v`` is the least-squares solution
        # (X'X)^-1 X' v, and R^-1 R^-T is (X'X)^-1
        self._rinv = np.linalg.solve(r, np.eye(k))
        self._proj = self._rinv @ q.T

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


def build_design(y, columns, include_intercept=True, column_names=None) -> DesignProblem:
    """Assemble a DesignProblem from raw predictor columns.

    ``columns`` is a sequence of 1-d arrays; an intercept column is prepended
    when ``include_intercept``.
    """
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    names = list(column_names) if column_names else [f"x{j + 1}" for j in range(len(cols))]
    if include_intercept:
        n = len(np.asarray(y).ravel())
        cols = [np.ones(n)] + cols
        names = ["intercept"] + names
    X = np.column_stack(cols)
    return DesignProblem(X=X, y=np.asarray(y, dtype=float).ravel(), column_names=names)


@dataclass
class RegressionFit:
    method: str  # "OLS" | "PMM2" | "PMM3"
    coefficients: np.ndarray
    residuals: np.ndarray
    moments: MomentSet | None
    g_coefficient: float
    iterations: int
    converged: bool
    warnings: list[str] = field(default_factory=list)


def _extra_rows(method: str) -> int:
    """Rows a ``method`` fit needs beyond its k coefficients: 1 (n > k) for OLS and CSS."""
    score = _SCORES.get(method)
    return score.extra_obs if score else 1


def _moments_or_none(residuals) -> MomentSet | None:
    if residuals.size < 4:
        return None
    return central_moments(residuals)


def fit_ols(problem: DesignProblem) -> RegressionFit:
    """Ordinary least squares via QR; the baseline for every comparison."""
    beta = problem._proj @ problem.y
    residuals = problem.y - problem.X @ beta
    return RegressionFit(
        method="OLS",
        coefficients=beta,
        residuals=residuals,
        moments=_moments_or_none(residuals),
        g_coefficient=1.0,
        iterations=0,
        converged=True,
    )


def _fit_polynomial(method: str, problem: DesignProblem, tol: float) -> RegressionFit:
    """Steps P psi(e) / slope from OLS, with P = (X'X)^-1 X' the problem's projection
    and the ``_SCORES[method]`` weights refreshed from each step's residual moments
    (the fallback where undefined)."""
    score = _SCORES[method]
    extra = _extra_rows(method)
    if problem.n < problem.k + extra:
        raise InputTooShortError(f"need n >= k + {extra}, got n = {problem.n}, k = {problem.k}")
    proj = problem._proj
    beta = proj @ problem.y  # OLS start
    # the residuals and moments of the current iterate, computed once per step
    eps = problem.y - problem.X @ beta
    mom = central_moments(eps)
    warns: list[str] = []
    if score.symmetric and not mom.degenerate and abs(mom.gamma3) > 0.5:
        warns.append(
            f"OLS residual skewness {mom.gamma3:.3f} exceeds 0.5; "
            f"{method} assumes symmetric errors")
    converged = False
    iterations = fallback_steps = 0
    for iterations in range(1, _MAX_ITER + 1):
        try:
            weights = score.weights(mom)
        except DegenerateMomentsError:
            weights = score.fallback
            fallback_steps += 1
        delta = (proj @ score.psi(eps, weights, mom.m2)) / score.slope(weights, mom.m2)
        beta = beta + delta
        eps = problem.y - problem.X @ beta
        mom = central_moments(eps)
        if np.max(np.abs(delta)) < tol:
            converged = True
            break
    if fallback_steps:
        warns.append(f"degenerate residual moments: OLS score used in {fallback_steps} "
                     f"of {iterations} steps")
    if not converged:
        warns.append(f"no convergence after {_MAX_ITER} iterations")
    g = score.clamp(mom, warns)
    return RegressionFit(method, beta, eps, mom, g, iterations, converged, warns)


def fit_pmm2(problem: DesignProblem, tol: float = 1e-6) -> RegressionFit:
    """PMM2 regression by fixed-point iteration from the OLS solution.

    Each step adds (X'X)^-1 X'[e + c*(e^2 - m2)] with c refreshed from the
    current residual moments; inadmissible moment configurations fall back to
    c = 0 for that step.
    """
    return _fit_polynomial("PMM2", problem, tol)


def fit_pmm3(problem: DesignProblem, tol: float = 1e-6) -> RegressionFit:
    """Symmetric PMM3 regression by Newton-type iteration from the OLS solution.

    The score X'[b1*e + b3*e^3] uses weights from the current residual moment
    system; the Jacobian is approximated by -(b1 + 3*b3*m2) X'X.  Intended for
    symmetric errors; asymmetric data only triggers a warning because method
    applicability is the dispatcher's call, not the fitter's.
    """
    return _fit_polynomial("PMM3", problem, tol)


# method -> regression fitter, for dispatch.fit_model and the AR lag-design route
_REGRESSION_FITTERS = {"OLS": fit_ols, "PMM2": fit_pmm2, "PMM3": fit_pmm3}


def asymptotic_covariance(fit: RegressionFit, problem: DesignProblem) -> np.ndarray:
    """Finite-sample asymptotic covariance g * m2 * (X'X)^-1 of the coefficients."""
    if not fit.converged:
        raise FitFailureError("covariance requires a converged fit")
    if fit.moments is None:
        raise FitFailureError("covariance requires residual moments (n >= 4)")
    xtx_inv = problem._rinv @ problem._rinv.T
    return fit.g_coefficient * fit.moments.m2 * xtx_inv


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def confidence_intervals(fit: RegressionFit, problem: DesignProblem,
                         level: float = 0.95) -> np.ndarray:
    """Normal-quantile intervals coefficient +- z * sqrt(diag covariance), shape (k, 2)."""
    from statistics import NormalDist
    _check_level(level)
    cov = asymptotic_covariance(fit, problem)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(np.diag(cov))
    return np.column_stack([fit.coefficients - half, fit.coefficients + half])


def information_criteria(fit) -> tuple[float, float, float]:
    """Gaussian quasi-likelihood (loglik, aic, bic) from the fit residuals.

    The parameter count is the number of fitted coefficients plus one for the
    residual variance.  Works for regression and time-series fits alike.
    """
    residuals = np.asarray(fit.residuals, dtype=float)
    n = residuals.size
    k = fit.coefficients.size
    rss = float(np.sum(residuals * residuals))
    if rss == 0.0 or n == 0:
        _warnings.warn("zero residual variance; log-likelihood is infinite",
                       RuntimeWarning, stacklevel=2)
        return math.inf, -math.inf, -math.inf
    m2_ml = rss / n
    loglik = -0.5 * n * (math.log(2.0 * math.pi * m2_ml) + 1.0)
    aic = -2.0 * loglik + 2.0 * (k + 1)
    bic = -2.0 * loglik + math.log(n) * (k + 1)
    return loglik, aic, bic
