"""Linear-model fitting: OLS baseline, PMM2 fixed point, symmetric PMM3 Newton steps.

PMM2 solves X'[e + c*(e^2 - m2)] = 0 with the quadratic weight c refreshed
from the current residuals at every step; PMM3 solves X'[b1*e + b3*e^3] = 0
with (b1, b3) from the sample moment system.  Both start from OLS and stop on
an infinity-norm coefficient-change rule.
"""

import math
import warnings as _warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .cumulants import (
    MomentSet,
    _clamped_g2,
    _clamped_g3,
    central_moments,
    pmm2_weight,
    pmm3_weights,
)
from .errors import (
    DegenerateDistributionError,
    DegenerateMomentsError,
    FitFailureError,
    InputTooShortError,
    SingularDesignError,
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

# Relative singular-value tolerance for the rank check.
RANK_RTOL = 1e-10


@dataclass
class DesignProblem:
    """Fixed design matrix (intercept column included when requested) and response."""

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
        sv = np.linalg.svd(self.X, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise SingularDesignError(
                f"design is rank deficient (min/max singular value = {sv[-1]:.3e}/{sv[0]:.3e})")

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

    @property
    def n_params(self) -> int:
        return int(self.coefficients.size)


def _qr_solver(problem: DesignProblem):
    """Return v -> (X'X)^-1 X' v via the thin QR of X."""
    q, r = np.linalg.qr(problem.X)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_RTOL * diag.max():
        raise SingularDesignError("design is rank deficient in QR factorization")

    def solve(v):
        return np.linalg.solve(r, q.T @ v)

    return solve, q, r


def _moments_or_none(residuals) -> MomentSet | None:
    if residuals.size < 4:
        return None
    return central_moments(residuals)


def fit_ols(problem: DesignProblem) -> RegressionFit:
    """Ordinary least squares via QR; the baseline for every comparison."""
    solve, _, _ = _qr_solver(problem)
    beta = solve(problem.y)
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


def fit_pmm2(problem: DesignProblem, tol: float = 1e-6, max_iter: int = 200) -> RegressionFit:
    """PMM2 regression by fixed-point iteration from the OLS solution.

    Each step adds (X'X)^-1 X'[e + c*(e^2 - m2)] with c refreshed from the
    current residual moments; inadmissible moment configurations fall back to
    c = 0 for that step.
    """
    if problem.n < problem.k + 4:
        raise InputTooShortError(
            f"need n >= k + 4, got n = {problem.n}, k = {problem.k}")
    solve, _, _ = _qr_solver(problem)
    beta = solve(problem.y)  # OLS start
    warns: list[str] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eps = problem.y - problem.X @ beta
        mom = central_moments(eps)
        if mom.degenerate:
            c, m2 = 0.0, 0.0
            if not warns:
                warns.append("degenerate residuals; using c = 0")
        else:
            m2 = mom.m2
            try:
                c = pmm2_weight(mom.m2, mom.m3, mom.m4)
            except DegenerateDistributionError:
                c = 0.0
                warns.append(f"iteration {iterations}: degenerate moments, c = 0 for this step")
        delta = solve(eps + c * (eps * eps - m2))
        beta = beta + delta
        if np.max(np.abs(delta)) < tol:
            converged = True
            break
    if not converged:
        warns.append(f"no convergence after {max_iter} iterations")
        _warnings.warn("fit_pmm2 did not converge", RuntimeWarning, stacklevel=2)
    residuals = problem.y - problem.X @ beta
    mom = _moments_or_none(residuals)
    g2 = _clamped_g2(mom, warns)
    return RegressionFit("PMM2", beta, residuals, mom, g2, iterations, converged, warns)


def fit_pmm3(problem: DesignProblem, tol: float = 1e-6, max_iter: int = 200) -> RegressionFit:
    """Symmetric PMM3 regression by Newton-type iteration from the OLS solution.

    The score X'[b1*e + b3*e^3] uses weights from the current residual moment
    system; the Jacobian is approximated by -(b1 + 3*b3*m2) X'X.  Intended for
    symmetric errors; asymmetric data only triggers a warning because method
    applicability is the dispatcher's call, not the fitter's.
    """
    if problem.n < problem.k + 6:
        raise InputTooShortError(
            f"need n >= k + 6, got n = {problem.n}, k = {problem.k}")
    solve, _, _ = _qr_solver(problem)
    beta = solve(problem.y)
    warns: list[str] = []
    mom0 = _moments_or_none(problem.y - problem.X @ beta)
    if mom0 is not None and not mom0.degenerate and abs(mom0.gamma3) > 0.5:
        warns.append(
            f"OLS residual skewness {mom0.gamma3:.3f} exceeds 0.5; "
            "PMM3 assumes symmetric errors")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eps = problem.y - problem.X @ beta
        mom = central_moments(eps)
        if mom.degenerate:
            b1, b3, m2 = 1.0, 0.0, 0.0
        else:
            m2 = mom.m2
            try:
                b1, b3 = pmm3_weights(mom.m2, mom.m4, mom.m6)
            except DegenerateMomentsError:
                b1, b3 = 1.0, 0.0
                if "indefinite moment matrix; OLS score used" not in warns:
                    warns.append("indefinite moment matrix; OLS score used")
        slope = b1 + 3.0 * b3 * m2  # = h' M^-1 h > 0 for definite M
        delta = solve(b1 * eps + b3 * eps**3) / slope
        beta = beta + delta
        if np.max(np.abs(delta)) < tol:
            converged = True
            break
    if not converged:
        warns.append(f"no convergence after {max_iter} iterations")
        _warnings.warn("fit_pmm3 did not converge", RuntimeWarning, stacklevel=2)
    residuals = problem.y - problem.X @ beta
    mom = _moments_or_none(residuals)
    g3 = _clamped_g3(mom, warns)
    return RegressionFit("PMM3", beta, residuals, mom, g3, iterations, converged, warns)


def asymptotic_covariance(fit: RegressionFit, problem: DesignProblem) -> np.ndarray:
    """Finite-sample asymptotic covariance g * m2 * (X'X)^-1 of the coefficients."""
    if not fit.converged:
        raise FitFailureError("covariance requires a converged fit")
    if fit.moments is None:
        raise FitFailureError("covariance requires residual moments (n >= 4)")
    _, _, r = _qr_solver(problem)
    rinv = np.linalg.solve(r, np.eye(r.shape[0]))
    xtx_inv = rinv @ rinv.T
    return fit.g_coefficient * fit.moments.m2 * xtx_inv


def confidence_intervals(fit: RegressionFit, problem: DesignProblem,
                         level: float = 0.95) -> np.ndarray:
    """Normal-quantile intervals coefficient +- z * sqrt(diag covariance), shape (k, 2)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
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
    k = fit.n_params
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
