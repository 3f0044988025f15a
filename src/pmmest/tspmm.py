"""PMM2 and symmetric PMM3 estimation for AR/MA/ARMA/(S)ARIMA models, plus forecasting.

Two-stage scheme for models with MA or seasonal structure: a CSS fit supplies
starting values and the residual moments, which stay frozen while the
polynomial objective is minimized by quasi-Newton.  Pure (nonseasonal) AR
models reduce to the lag-design regression and reuse the linear-model fitters
directly (for PMM2 only when undifferenced).  Differenced pure AR (ARI) PMM2
keeps the two stages, but its residuals are linear in phi, so the second
stage is exact Newton on the frozen objective.  Both methods run the one
time-series route in ``tscore`` over the ``cumulants._SCORES`` records.
"""

import numpy as np

from .cumulants import _SCORES
from .errors import FitFailureError
from .tscore import (
    ModelOrder,
    TsFit,
    TsParams,
    _capped,
    _fit_series,
    _Layout,
    css_residuals,
    difference,
    integrate_forecast,
)

__all__ = [
    "fit_ar_pmm2",
    "fit_ts_pmm2",
    "fit_ts_pmm3",
    "forecast",
    "pmm2_objective",
]


def pmm2_objective(w, params: TsParams, order: ModelOrder, c: float, m2: float) -> float:
    """Q(theta) = sum e^2/2 + c*(e^3/3 - m2*e) with frozen weight c and variance m2.

    Its gradient is sum e' * [e + c*(e^2 - m2)], the time-series analogue of
    the PMM2 regression score.  The cubic term makes Q unbounded below where
    the residual recursion explodes, so Q is +inf past e^2 > 1e6 * m2: the
    objective the two-stage fit minimizes and reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _capped(_SCORES["PMM2"], (c,), m2, css_residuals(w, params, order))


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
    objective from that start, by exact Newton for ARI(p,d,0) orders (their
    residuals are linear in phi) and by quasi-Newton for any order with MA or
    seasonal terms.  Inadmissible frozen cumulants return the CSS fit (tagged
    CSS) with a warning instead of failing.
    """
    return _fit_series("PMM2", x, order)


def fit_ts_pmm3(x, order: ModelOrder) -> TsFit:
    """Two-stage symmetric PMM3 for (seasonal) ARIMA models.

    Pure nonseasonal AR structures (after differencing) reuse the Newton
    regression fitter on the lag design; otherwise stage 1 CSS freezes
    (m2, m4, m6) and stage 2 minimizes the quartic objective.  A negative b1
    (possible for platykurtic residuals) makes the objective nonconvex; the
    local minimizer from the CSS start is accepted with a warning.
    """
    return _fit_series("PMM3", x, order)


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
    num, den = _Layout(order).polynomials(fit.coefficients)
    # Lag weights oldest first, so step t is a dot with the p (q) values
    # before it; the p (q) leading zeros are the presample terms.
    a, b = -num[:0:-1], den[:0:-1]
    p, q, n = a.size, b.size, w.size
    z = np.zeros(p + n + horizon)
    z[p:p + n] = w - fit.params.mean
    e = np.zeros(q + n + horizon)  # future innovations stay zero
    e[q:q + n] = fit.residuals
    for t in range(n, n + horizon):
        z[p + t] = a @ z[t:p + t] + b @ e[t:q + t]
    wf = z[p + n:] + fit.params.mean
    if order.d + order.D > 0:
        return integrate_forecast(fit.original_series, wf, order.d, order.D, order.s)
    return wf
