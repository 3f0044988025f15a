"""Bootstrap standard errors and percentile intervals.

Residual resampling for regression; Carlstein non-overlapping block
resampling for time series.  Every replicate draws from its own RNG
substream derived from (seed, replicate index), so results are identical
regardless of execution order.

``_replicates`` is the one replicate loop, shared with
``mcbench.run_monte_carlo``: a replicate whose draw or refit raises a fit
failure, or whose refit does not converge, is dropped, and more than 10%
dropped is a ``FitFailureError``.  Any other exception propagates.
"""

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

# _REGRESSION_FITTERS is bound here for bench/test_bench.py, which checks
# that the tracer rewrites the one regression table in place.
from .dispatch import _REGRESSION_FITTERS, _method_name, fit_model  # noqa: F401
from .errors import _REPLICATE_FAILURES, FitFailureError
from .linmodel import DesignProblem, _check_level
from .tscore import ModelOrder, _filter_polynomials, _lfilter, integrate_forecast, param_names

__all__ = [
    "BootstrapResult",
    "residual_bootstrap",
    "block_bootstrap_ts",
    "default_block_length",
]

@dataclass
class BootstrapResult:
    """Per-parameter bootstrap table plus bookkeeping.

    ``t_value`` and ``p_value`` use the normal reference; confidence bounds
    are plain percentiles (which can occasionally exclude the point
    estimate - no correction is applied).
    """

    parameters: list[str]
    estimate: np.ndarray
    std_error: np.ndarray
    t_value: np.ndarray
    p_value: np.ndarray
    conf_low: np.ndarray
    conf_high: np.ndarray
    B: int
    scheme: str  # "residual" | "block"
    fit_method: str
    level: float
    seed: int
    n_failed: int
    block_length: int | None = None
    replicates: np.ndarray | None = None


def _summarize(names, estimate, reps, B, scheme, fit_method, level, seed,
               n_failed, block_length, keep_replicates) -> BootstrapResult:
    reps = np.asarray(reps, dtype=float)
    se = reps.std(axis=0, ddof=1)
    alpha = (1.0 - level) / 2.0
    lo = np.quantile(reps, alpha, axis=0)
    hi = np.quantile(reps, 1.0 - alpha, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0.0, estimate / se, math.nan)
    p = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in t])
    return BootstrapResult(
        parameters=list(names), estimate=np.asarray(estimate, dtype=float),
        std_error=se, t_value=t, p_value=p, conf_low=lo, conf_high=hi,
        B=B, scheme=scheme, fit_method=fit_method, level=level, seed=seed,
        n_failed=n_failed, block_length=block_length,
        replicates=reps if keep_replicates else None)


def _check_b(B: int, level: float):
    if B < 1:
        raise ValueError("B must be positive")
    _check_level(level)
    if B < 50:
        _warnings.warn(f"B = {B} < 50 gives unstable percentile intervals",
                       UserWarning, stacklevel=3)


def _replicates(seeds, draw, refit) -> list:
    """``refit(draw(rng))`` per SeedSequence in ``seeds``, rng seeded by it;
    None where the draw or the refit raised one of the fit failures.

    The refit runs with warnings silenced.  Any other exception is a defect
    and propagates.
    """
    out = []
    for child in seeds:
        try:
            data = draw(np.random.default_rng(child))
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                out.append(refit(data))
        except _REPLICATE_FAILURES:
            out.append(None)
    return out


def _converged(fit):
    """``fit`` itself; a replicate failure when it did not converge."""
    if not fit.converged:
        raise FitFailureError("replicate did not converge")
    return fit


def _check_failures(n_failed: int, total: int, what: str):
    """More than 10% failed replicates is an error."""
    if n_failed > 0.1 * total:
        raise FitFailureError(f"{n_failed}/{total} {what} failed")


def _replicate_estimates(B: int, seed: int, draw, refit) -> tuple[list, int]:
    """Coefficient vectors of B resampled refits, and the failed count."""
    reps = [c for c in _replicates(np.random.SeedSequence(seed).spawn(B), draw,
                                   lambda data: _converged(refit(data)).coefficients)
            if c is not None]
    _check_failures(B - len(reps), B, "bootstrap refits")
    return reps, B - len(reps)


def residual_bootstrap(problem: DesignProblem, method: str = "PMM2", B: int = 500,
                       level: float = 0.95, seed: int = 0,
                       keep_replicates: bool = False) -> BootstrapResult:
    """Residual-resampling bootstrap for a regression fit.

    Centered residuals are resampled with replacement, y* = X b + e* is
    rebuilt, and the same method is refit per replicate.  Replicates are
    dropped by the module's replicate rule.
    """
    method = _method_name(method, regression=True)
    _check_b(B, level)
    base = fit_model(problem, method)
    fitted = problem.X @ base.coefficients
    centered = base.residuals - base.residuals.mean()
    n = problem.n
    reps, n_failed = _replicate_estimates(
        B, seed, lambda rng: fitted + centered[rng.integers(0, n, size=n)],
        lambda y_star: fit_model(DesignProblem(problem.X, y_star,
                                               list(problem.column_names)), method))
    return _summarize(problem.column_names, base.coefficients, reps, B,
                      "residual", method, level, seed, n_failed, None,
                      keep_replicates)


def default_block_length(n: int) -> int:
    """floor(n^(1/3)), computed exactly (no floating-point cube-root slop)."""
    b = int(round(n ** (1.0 / 3.0)))
    while b**3 > n:
        b -= 1
    while (b + 1) ** 3 <= n:
        b += 1
    return b


def block_bootstrap_ts(x, order: ModelOrder, method: str = "PMM2", B: int = 500,
                       block_length: int | None = None, level: float = 0.95,
                       seed: int = 0, keep_replicates: bool = False) -> BootstrapResult:
    """Carlstein non-overlapping block bootstrap for a time-series fit.

    Base-fit residuals are cut into consecutive non-overlapping blocks (a
    shorter trailing block is kept and equally eligible), blocks are
    resampled with replacement and concatenated to the residual length, the
    fitted recursion is driven by the resampled residuals (then integrated
    when d + D > 0), and the model is refit per replicate.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if block_length is None:
        block_length = default_block_length(n)
    _check_b(B, level)
    if block_length < 2:
        raise ValueError(f"block_length must be >= 2, got {block_length}")
    if n / block_length < 5:
        raise ValueError(f"need n / block_length >= 5, got {n / block_length:.2f}")
    method = _method_name(method, regression=False)
    base = fit_model(x, method, order)
    resid = np.asarray(base.residuals, dtype=float)
    n_w = resid.size
    blocks = [resid[i:i + block_length] for i in range(0, n_w, block_length)]
    ar, ma = _filter_polynomials(base.params, order)
    head = x[:order.d + order.D * order.s]
    n_blocks = len(blocks)

    def draw(rng):
        parts, total = [], 0
        while total < n_w:
            blk = blocks[int(rng.integers(0, n_blocks))]
            parts.append(blk)
            total += blk.size
        w_star = _lfilter(ma, ar, np.concatenate(parts)[:n_w]) + base.params.mean
        return np.concatenate([head, integrate_forecast(
            head, w_star, order.d, order.D, order.s)])

    reps, n_failed = _replicate_estimates(
        B, seed, draw, lambda x_star: fit_model(x_star, method, order))
    return _summarize(param_names(order), base.params.to_vector(order), reps, B,
                      "block", method, level, seed, n_failed,
                      block_length, keep_replicates)
