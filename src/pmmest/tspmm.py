"""PMM2 and symmetric PMM3 estimation for AR/MA/ARMA/(S)ARIMA models, plus forecasting.

Two-stage scheme for models with MA or seasonal structure: a CSS fit supplies
starting values and the residual moments, which stay frozen while the
polynomial objective is minimized by quasi-Newton.  Both methods run the one
driver ``_two_stage`` over the ``cumulants._SCORES`` records.  Pure
(nonseasonal) AR models reduce to the lag-design regression and reuse the
linear-model fitters directly (for PMM2 only when undifferenced).
"""

import math

import numpy as np

from .cumulants import _SCORES
from .errors import (
    DegenerateDistributionError,
    DegenerateMomentsError,
    FitFailureError,
    InputTooShortError,
    _require_finite,
)
from .linmodel import fit_pmm2, fit_pmm3
from .tscore import (
    ModelOrder,
    TsFit,
    TsParams,
    _is_pure_ar,
    _lag_design_fit,
    _lag_polynomials,
    _unit_region_warnings,
    css_residuals,
    difference,
    fit_css,
    integrate_forecast,
    minimize_qn,
)

__all__ = [
    "fit_ar_pmm2",
    "fit_ts_pmm2",
    "fit_ts_pmm3",
    "forecast",
    "pmm2_objective",
    "pmm3_objective",
]


def _capped_objective(score, weights, m2: float, w, params: TsParams, order: ModelOrder,
                      explosion_cap: float | None) -> float:
    """``score.objective`` of the CSS residuals of ``params``; +inf where the
    residual recursion is non-finite or some e^2 exceeds ``explosion_cap``."""
    eps = css_residuals(w, params, order)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(eps).all() or \
                (explosion_cap is not None and (eps * eps).max() > explosion_cap):
            return math.inf
        return score.objective(eps, weights, m2)


def pmm2_objective(w, params: TsParams, order: ModelOrder, c: float, m2: float,
                   explosion_cap: float | None = None) -> float:
    """Q(theta) = sum e^2/2 + c*(e^3/3 - m2*e) with frozen weight c and variance m2.

    Its gradient is sum e' * [e + c*(e^2 - m2)], the time-series analogue of
    the PMM2 regression score.  The cubic term makes Q unbounded below where
    the residual recursion explodes; ``explosion_cap`` (a bound on e^2, used
    by the optimizer) turns that region into +inf.
    """
    return _capped_objective(_SCORES["PMM2"], (c,), m2, w, params, order, explosion_cap)


def pmm3_objective(w, params: TsParams, order: ModelOrder, b1: float, b3: float,
                   explosion_cap: float | None = None) -> float:
    """Q3(theta) = sum b1*e^2/2 + b3*e^4/4; gradient sum e' * (b1*e + b3*e^3).

    Unbounded below when b1 < 0 or b3 < 0 and the recursion explodes; see
    pmm2_objective for the role of explosion_cap.
    """
    return _capped_objective(_SCORES["PMM3"], (b1, b3), 0.0, w, params, order,
                             explosion_cap)


def _two_stage(method: str, x: np.ndarray, order: ModelOrder) -> TsFit:
    """CSS fit, then the ``_SCORES[method]`` objective minimized from it with the
    CSS residual moments frozen; unusable moments return the CSS fit."""
    score = _SCORES[method]
    base = fit_css(x, order)
    if not base.converged:
        raise FitFailureError(f"CSS stage did not converge; {method} stage aborted")
    warns = list(base.warnings)
    mom = base.moments
    if mom is None or mom.degenerate:
        base.warnings.append("degenerate CSS residual moments; returning CSS fit")
        return base
    if score.symmetric and abs(mom.gamma3) > 0.5:
        warns.append(f"CSS residual skewness {mom.gamma3:.3f} exceeds 0.5; "
                     f"{method} assumes symmetric errors")
    try:
        weights = score.weights(mom)
    except (DegenerateDistributionError, DegenerateMomentsError):
        base.warnings.append(
            f"CSS residual moments leave the {method} weights undefined; returning CSS fit")
        return base
    if score.symmetric and weights[0] < 0.0:
        warns.append(f"b1 < 0 (platykurtic residuals): {method} objective may be nonconvex")
    w = difference(x, order.d, order.D, order.s)
    vec0 = base.params.to_vector(order)
    cap = 1e6 * mom.m2  # residuals past 1000 sd flag an exploding recursion

    def objective(vec):
        return _capped_objective(score, weights, mom.m2, w,
                                 TsParams.from_vector(vec, order), order, cap)

    vec, fun, converged = minimize_qn(objective, vec0)
    if not converged:
        warns.append(f"{method} optimizer did not converge")
    params = TsParams.from_vector(vec, order)
    residuals = css_residuals(w, params, order)
    g = score.clamp(mom, warns)
    _unit_region_warnings(params, order, warns)
    return TsFit(method, order, params, residuals, x, mom, g, fun, converged, warns)


def fit_ar_pmm2(x, p: int, include_mean: bool = True) -> TsFit:
    """PMM2 for a pure AR(p): lag-design regression with the fixed-point iteration."""
    if p < 1:
        raise ValueError(f"AR design requires p >= 1, got {p}")
    return fit_ts_pmm2(x, ModelOrder(p=p, include_mean=include_mean))


def fit_ts_pmm2(x, order: ModelOrder) -> TsFit:
    """Two-stage PMM2 for (seasonal) ARIMA models.

    Undifferenced pure AR orders are fit by the fixed-point regression on the
    lag design.  Otherwise stage 1 fits CSS for starting values and freezes
    the residual moments (m2, m3, m4); stage 2 minimizes the polynomial
    objective from that start.  Inadmissible frozen cumulants return the CSS
    fit (tagged CSS) with a warning instead of failing.
    """
    x = np.asarray(x, dtype=float)
    _require_finite("series", x)
    # ARI(p,d,0) with d + D >= 1 keeps the quasi-Newton route: acceptance
    # criteria 5-6 and the benchmark's advantage_grid reference values pin
    # its numbers, so moving it to the lag design needs its own Monte Carlo
    # comparison of both routes.
    if _is_pure_ar(order) and order.d + order.D == 0:
        if x.size <= order.p + 5:
            raise InputTooShortError(
                f"series length {x.size} too short for AR({order.p}) PMM2")
        return _lag_design_fit("PMM2", fit_pmm2, x, x, order, _SCORES["PMM2"].clamp)
    return _two_stage("PMM2", x, order)


def fit_ts_pmm3(x, order: ModelOrder) -> TsFit:
    """Two-stage symmetric PMM3 for (seasonal) ARIMA models.

    Pure nonseasonal AR structures (after differencing) reuse the Newton
    regression fitter on the lag design; otherwise stage 1 CSS freezes
    (m2, m4, m6) and stage 2 minimizes the quartic objective.  A negative b1
    (possible for platykurtic residuals) makes the objective nonconvex; the
    local minimizer from the CSS start is accepted with a warning.
    """
    x = np.asarray(x, dtype=float)
    _require_finite("series", x)
    if _is_pure_ar(order):
        w = difference(x, order.d, order.D, order.s)
        if w.size <= order.p + 6:
            raise InputTooShortError("differenced series too short for AR PMM3")
        return _lag_design_fit("PMM3", fit_pmm3, x, w, order, _SCORES["PMM3"].clamp)
    return _two_stage("PMM3", x, order)


def forecast(fit: TsFit, horizon: int) -> np.ndarray:
    """Recursive point forecasts with future innovations set to zero.

    Known residuals feed the MA terms; differencing is inverted against the
    observed history, so forecasts are on the original scale.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not fit.converged:
        raise FitFailureError("forecast requires a converged fit")
    order = fit.order
    w = difference(fit.original_series, order.d, order.D, order.s)
    a, b = _lag_polynomials(fit.params, order)
    z = list(w - fit.params.mean)
    eps = list(np.asarray(fit.residuals, dtype=float))
    wf = np.empty(horizon)
    for h in range(horizon):
        t = len(z)
        val = 0.0
        for j, aj in enumerate(a, start=1):
            if t - j >= 0:
                val += aj * z[t - j]
        for k, bk in enumerate(b, start=1):
            if t - k >= 0:
                val += bk * eps[t - k]
        z.append(val)
        eps.append(0.0)
        wf[h] = val + fit.params.mean
    if order.d + order.D > 0:
        return integrate_forecast(fit.original_series, wf, order.d, order.D, order.s)
    return wf
