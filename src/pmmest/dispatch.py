"""Method routing: the one map from a method name to a fitter, and data-driven selection.

``fit_model`` is the front door every caller fits through: a DesignProblem
goes to the regression fitters, a series to the time-series fitters of its
ModelOrder, which choose their own route for pure AR orders.

Selection rule, applied to the sample cumulants of baseline residuals:

1. |gamma3| < symmetric_threshold and gamma4 < 0  ->  PMM3
2. else |gamma3| >= skew_threshold and g2 < g2_ceiling  ->  PMM2
3. else  ->  OLS_CSS

Defaults (0.3 skew threshold with the g2 < 0.95 guard, 0.1 symmetry
threshold) follow observed dispatcher behavior; the stricter 0.5 threshold
is available through DispatchConfig.  The PMM3 branch requires gamma4 < 0
even though symmetric leptokurtic laws can also profit from PMM3 - the rule
is deliberately conservative.
"""

from dataclasses import dataclass

import numpy as np

from .cumulants import _clamped_g2, central_moments, g3_coefficient
from .errors import (
    DegenerateInputError,
    InadmissibleCumulantsError,
    InputTooShortError,
    _require_finite,
)
from .linmodel import _REGRESSION_FITTERS, DesignProblem, information_criteria
from .tscore import ModelOrder, TsFit, _fit_series, fit_css
from .tspmm import fit_ts_pmm2, fit_ts_pmm3

__all__ = [
    "METHODS",
    "DispatchConfig",
    "DispatchDecision",
    "select_method",
    "dispatch_fit",
    "fit_model",
    "render_decision",
]

# The public fitters rather than the tscore route behind them, so a traced
# series fit (bench/tracer.py) opens and closes at them.
_TS_FITTERS = {"CSS": fit_css, "PMM2": fit_ts_pmm2, "PMM3": fit_ts_pmm3}


METHODS = ("ols", "css", "pmm2", "pmm3")  # "ols" and "css" both name the baseline


def _method_name(method: str, regression: bool) -> str:
    """Fitter-table key of ``method`` (a METHODS name, any case): the baseline
    is "OLS" for regression and "CSS" for a series."""
    key = method.lower()
    if key not in METHODS:
        raise ValueError(f"method must be one of {list(METHODS)}, got {method!r}")
    if key in ("ols", "css"):
        return "OLS" if regression else "CSS"
    return key.upper()


def fit_model(data, method: str, order: ModelOrder | None = None):
    """Fit ``data`` by ``method`` ("ols"/"css", "pmm2" or "pmm3", any case).

    A DesignProblem is fit by the regression fitters and ``order`` is
    ignored; anything else is a series fit with ``order`` by the time-series
    fitters.  "ols" and "css" both mean the baseline of the data's kind.
    """
    if isinstance(data, DesignProblem):
        return _REGRESSION_FITTERS[_method_name(method, True)](data)
    if order is None:
        raise ValueError("time-series fits need a ModelOrder")
    return _TS_FITTERS[_method_name(method, False)](data, order)


def _refit_from_css(css_fit: TsFit, method: str) -> TsFit:
    """``fit_model(css_fit.original_series, method, css_fit.order)`` bit for
    bit, with ``css_fit`` as its CSS stage instead of a new CSS fit ("css"
    returns ``css_fit`` itself), so a series is fit by CSS once."""
    key = _method_name(method, False)
    if key == "CSS":
        return css_fit
    return _fit_series(key, css_fit.original_series, css_fit.order, css=css_fit)


@dataclass(frozen=True)
class DispatchConfig:
    skew_threshold: float = 0.3
    g2_ceiling: float = 0.95
    symmetric_threshold: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.symmetric_threshold < self.skew_threshold:
            raise ValueError("need 0 < symmetric_threshold < skew_threshold")
        if not 0.0 < self.g2_ceiling <= 1.0:
            raise ValueError("need 0 < g2_ceiling <= 1")


@dataclass
class DispatchDecision:
    method: str  # "OLS_CSS" | "PMM2" | "PMM3"
    n: int
    gamma3: float
    gamma4: float
    gamma6: float
    g2: float
    g3: float | None
    rationale: str
    thresholds: DispatchConfig


def select_method(residuals, config: DispatchConfig | None = None) -> DispatchDecision:
    """Apply the dispatch rule to a residual vector."""
    config = config or DispatchConfig()
    residuals = np.asarray(residuals, dtype=float)
    _require_finite("residuals", residuals)
    if residuals.size < 8:
        raise InputTooShortError(f"need at least 8 residuals, got {residuals.size}")
    mom = central_moments(residuals)
    if mom.degenerate:
        raise DegenerateInputError("residuals have zero variance")
    g2 = _clamped_g2(mom, [])
    try:
        g3 = g3_coefficient(mom.gamma4, mom.gamma6)
    except InadmissibleCumulantsError:
        g3 = None
    a3 = abs(mom.gamma3)
    if a3 < config.symmetric_threshold and mom.gamma4 < 0.0:
        method = "PMM3"
        gain = f" ({(1.0 - g3) * 100.0:.1f}% variance reduction)" if g3 is not None else ""
        rationale = (f"|gamma3| = {a3:.3f} < {config.symmetric_threshold:g} and "
                     f"gamma4 = {mom.gamma4:.3f} < 0: symmetric platykurtic "
                     f"residuals, PMM3 applicable{gain}")
    elif a3 >= config.skew_threshold and g2 < config.g2_ceiling:
        method = "PMM2"
        rationale = (f"|gamma3| = {a3:.3f} > {config.skew_threshold:g} and "
                     f"g2 = {g2:.3f} < {config.g2_ceiling:g}: moderate asymmetry, "
                     f"PMM2 worthwhile ({(1.0 - g2) * 100.0:.1f}% variance reduction)")
    else:
        method = "OLS_CSS"
        if a3 >= config.skew_threshold:
            rationale = (f"|gamma3| = {a3:.3f} but g2 = {g2:.3f} >= "
                         f"{config.g2_ceiling:g}: negligible PMM2 gain. Use OLS.")
        else:
            rationale = (f"gamma3 = {mom.gamma3:.3f}, gamma4 = {mom.gamma4:.3f}: "
                         "near-Gaussian residuals. No PMM advantage expected. Use OLS.")
    return DispatchDecision(method, mom.n, mom.gamma3, mom.gamma4, mom.gamma6,
                            g2, g3, rationale, config)


def render_decision(decision: DispatchDecision) -> str:
    """Three-line transcript: cumulants, efficiency coefficients, rationale."""
    g3_text = f"{decision.g3:.3f}" if decision.g3 is not None else "n/a"
    return (f"n = {decision.n} | gamma3 = {decision.gamma3:+.3f} | "
            f"gamma4 = {decision.gamma4:+.3f}\n"
            f"  g2(PMM2) = {decision.g2:.3f}  |  g3(PMM3) = {g3_text}\n"
            f"  >>> {decision.rationale}")


def _scan_ar_order(x, max_p: int = 5) -> ModelOrder:
    """Pick the AR order (p <= max_p) minimizing the AIC of the CSS fit."""
    best = None
    for p in range(max_p + 1):
        order = ModelOrder(p=p)
        try:
            fit = fit_css(x, order)
        except InputTooShortError:
            break
        _, aic, _ = information_criteria(fit)
        if best is None or aic < best[0]:
            best = (aic, order)
    if best is None:
        raise InputTooShortError("series too short for any AR order scan")
    return best[1]


def dispatch_fit(data, kind: str, config: DispatchConfig | None = None,
                 order: ModelOrder | None = None):
    """Select a method from baseline residuals, then fit with it.

    ``kind`` is "timeseries" (data is a series; baseline CSS of ``order``, by
    default the AR order minimizing AIC over p <= 5) or "regression" (data is
    a DesignProblem; baseline OLS).  Returns (decision, fit).
    """
    config = config or DispatchConfig()
    if kind == "timeseries":
        data = np.asarray(data, dtype=float)
        if order is None:
            order = _scan_ar_order(data)
    elif kind != "regression":
        raise ValueError(f"kind must be 'timeseries' or 'regression', got {kind!r}")
    base = fit_model(data, "ols", order)
    decision = select_method(base.residuals, config)
    if decision.method == "OLS_CSS":
        return decision, base
    if kind == "timeseries":
        return decision, _refit_from_css(base, decision.method)
    return decision, fit_model(data, decision.method, order)
