"""Time-series infrastructure: differencing, lag designs, CSS residuals and fitting.

Conventions (documented because sign conventions vary between packages):

* AR coefficients are the positive lag weights of
  ``x_t = sum_j phi_j x_{t-j} + ...``, so the AR polynomial is
  ``1 - sum_j phi_j B^j``.
* The MA polynomial is ``1 + sum_k theta_k B^k`` (innovations added).
* Seasonal polynomials multiply the nonseasonal ones (multiplicative model).
* CSS residuals use the strict conditional convention: presample values of
  both the differenced series and the residuals are zero.

``_lfilter`` is the one linear filter behind the residual recursion, simulation
and block bootstraps.  A length-1 denominator (pure-AR residuals, pure-MA
simulation) is a finite convolution in numpy alone.  A longer one (MA or
seasonal-MA residuals, AR simulation) runs scipy's compiled IIR routine, loaded
on first use without importing the ``scipy`` or ``scipy.signal`` package.
"""

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .cumulants import _SCORES, MomentSet
from .errors import (
    DegenerateMomentsError,
    FitFailureError,
    InputTooShortError,
    _require_finite,
)
from .linmodel import (_REGRESSION_FITTERS, DesignProblem, _covariance, _extra_rows,
                       _moments_or_none, build_design)

__all__ = [
    "ModelOrder",
    "TsParams",
    "TsFit",
    "difference",
    "integrate_forecast",
    "ar_design_matrix",
    "css_residuals",
    "fit_css",
    "simulate_arima",
    "ts_asymptotic_covariance",
]


@dataclass(frozen=True)
class ModelOrder:
    """(p, d, q)(P, D, Q)_s specification of a seasonal ARIMA model.

    ``include_mean`` defaults to True for undifferenced models and is forced
    False whenever d + D > 0.
    """

    p: int = 0
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 0
    include_mean: bool | None = None

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if self.s == 0 and (self.P or self.D or self.Q):
            raise ValueError("seasonal terms require a seasonal period s >= 2")
        if self.s == 1:
            raise ValueError("seasonal period s must be 0 or >= 2")
        if self.include_mean is None:
            object.__setattr__(self, "include_mean", self.d + self.D == 0)
        elif self.include_mean and self.d + self.D > 0:
            object.__setattr__(self, "include_mean", False)

    @functools.cached_property
    def n_params(self) -> int:
        return self.p + self.q + self.P + self.Q + int(self.include_mean)


@dataclass
class TsParams:
    """Coefficient vectors matching a ModelOrder."""

    phi: np.ndarray
    theta: np.ndarray
    Phi: np.ndarray
    Theta: np.ndarray
    mean: float = 0.0

    def __post_init__(self):
        for name in ("phi", "theta", "Phi", "Theta"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim == 0:
                value = value.reshape(1)
            elif value.ndim > 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {value.shape}")
            setattr(self, name, value)
        self.mean = float(self.mean)

    def check_order(self, order: ModelOrder):
        sizes = (self.phi.size, self.theta.size, self.Phi.size, self.Theta.size)
        expected = (order.p, order.q, order.P, order.Q)
        if sizes != expected:
            raise ValueError(f"parameter lengths {sizes} do not match order {expected}")

    def to_vector(self, order: ModelOrder) -> np.ndarray:
        self.check_order(order)
        parts = [self.phi, self.theta, self.Phi, self.Theta]
        if order.include_mean:
            parts.append([self.mean])
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, vec, order: ModelOrder) -> "TsParams":
        """The parameters of a vector in the ``to_vector`` layout."""
        return cls(*_split(vec, order))


def _vector(params: "TsParams | np.ndarray", order: ModelOrder) -> np.ndarray:
    """The ``to_vector`` layout of a TsParams or a vector; ValueError for any other shape."""
    vec = params.to_vector(order) if isinstance(params, TsParams) else np.asarray(params, float)
    if vec.ndim != 1 or vec.size != order.n_params:
        raise ValueError(f"expected a vector of {order.n_params} parameters, "
                         f"got shape {vec.shape}")
    return vec


def _split(vec, order: ModelOrder) -> tuple:
    """(phi, theta, Phi, Theta, mean) of a vector in the ``TsParams.to_vector``
    layout (mean 0.0 without a mean term); ValueError for any other shape."""
    vec = _vector(vec, order)
    b, c = order.p + order.q, order.p + order.q + order.P
    return (vec[:order.p], vec[order.p:b], vec[b:c], vec[c:c + order.Q],
            vec[-1] if order.include_mean else 0.0)


def param_names(order: ModelOrder) -> list[str]:
    names = [f"ar{j}" for j in range(1, order.p + 1)]
    names += [f"ma{j}" for j in range(1, order.q + 1)]
    names += [f"sar{j}" for j in range(1, order.P + 1)]
    names += [f"sma{j}" for j in range(1, order.Q + 1)]
    if order.include_mean:
        names.append("mean")
    return names


@dataclass
class TsFit:
    method: str  # "CSS" | "PMM2" | "PMM3"
    order: ModelOrder
    coefficients: np.ndarray  # the ``TsParams.to_vector`` layout; ``params`` splits it
    residuals: np.ndarray
    original_series: np.ndarray
    moments: MomentSet | None
    g_coefficient: float
    objective: float
    converged: bool
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        # a stage may repeat a note of the stage it builds on; keep the first
        self.warnings = list(dict.fromkeys(self.warnings))

    @property
    def params(self) -> TsParams:
        return TsParams.from_vector(self.coefficients, self.order)

    @property
    def param_names(self) -> list[str]:
        return param_names(self.order)


# ---------------------------------------------------------------------------
# Differencing and integration
# ---------------------------------------------------------------------------

def difference(x, d: int = 0, D: int = 0, s: int = 0) -> np.ndarray:
    """Apply (1-B)^d (1-B^s)^D; output length = len(x) - d - D*s."""
    x = np.asarray(x, dtype=float)
    if D > 0 and s < 2:
        raise ValueError("seasonal differencing requires s >= 2")
    if x.size <= d + D * s:
        raise InputTooShortError(
            f"series of length {x.size} too short for d={d}, D={D}, s={s}")
    for _ in range(d):
        x = np.diff(x)
    for _ in range(D):
        x = x[s:] - x[:-s]
    return x


def integrate_forecast(history, diffs_forecast, d: int = 0, D: int = 0,
                       s: int = 0) -> np.ndarray:
    """Invert differencing: extend ``history`` by the integrated forecasts.

    ``diffs_forecast`` holds future values on the (1-B)^d (1-B^s)^D scale;
    the return value is on the original scale and satisfies the round trip
    integrate_forecast(x[:m], difference(x)[m - d - D*s:]) == x[m:].
    """
    history = np.asarray(history, dtype=float)
    fc = np.asarray(diffs_forecast, dtype=float)
    if D > 0 and s < 2:
        raise ValueError("seasonal integration requires s >= 2")
    if history.size < d + D * s:
        raise InputTooShortError(
            f"history of length {history.size} cannot seed d={d}, D={D}, s={s}")
    regular = [history]
    h = history
    for _ in range(d):
        h = np.diff(h)
        regular.append(h)
    seasonal = [h]
    for _ in range(D):
        h = h[s:] - h[:-s]
        seasonal.append(h)
    for j in range(D, 0, -1):
        # seeded by the last s values at the coarser level; each phase is a cumsum
        out = np.concatenate([seasonal[j - 1][-s:], fc])
        for phase in range(s):
            out[phase::s] = np.cumsum(out[phase::s])
        fc = out[s:]
    for j in range(d, 0, -1):
        fc = np.cumsum(fc) + regular[j - 1][-1]
    return fc


# ---------------------------------------------------------------------------
# Lag polynomial expansion and the CSS recursion
# ---------------------------------------------------------------------------

_ONE = np.ones(1)
_ONE.flags.writeable = False


class _Layout:
    """Working storage of the residual recursion for one ModelOrder, built once
    per fit: the slices of the ``TsParams.to_vector`` layout and the four lag
    factors 1 - sum c_k B^{step k} (AR and seasonal AR) and 1 + sum c_k B^{step k}
    (MA and seasonal MA), whose lag terms ``polynomials`` writes in place.

    The lag terms are 0 - c (c + 0 for MA) rather than -c: a convolution with
    [1.0] returns exactly these bits, signed zeros included, so the product
    with an absent factor is the other factor itself.
    """

    def __init__(self, order: ModelOrder):
        self.order = order
        p, q, P, Q, s = order.p, order.q, order.P, order.Q, order.s
        b, c = p + q, p + q + P
        self.factors = []
        self._writes = []  # (slice of the vector, lag terms it fills, ufunc)
        for step, lo, hi, ufunc in ((1, 0, p, np.subtract), (s, b, c, np.subtract),
                                    (1, p, b, np.add), (s, c, c + Q, np.add)):
            factor = _ONE  # an absent factor is the constant 1, never written
            if hi > lo:
                factor = np.zeros(1 + step * (hi - lo))
                factor[0] = 1.0
                self._writes.append((slice(lo, hi), factor[step::step], ufunc))
            self.factors.append(factor)

    def polynomials(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full AR and MA polynomials (num, den) of a parameter vector of the
        order's shape, leading 1 included, also kept as ``num`` and ``den``:
        the residual recursion is ``lfilter(num, den, w - mean)`` and the ARMA
        simulation is ``lfilter(den, num, eps)``.  Without a seasonal product
        they are the layout's own arrays, rewritten by the next call: a caller
        that keeps them uses a layout of its own."""
        for part, lags, ufunc in self._writes:
            ufunc(0.0, vec[part], out=lags)
        ar, sar, ma, sma = self.factors
        self.num = ar if sar.size == 1 else sar if ar.size == 1 else np.convolve(ar, sar)
        self.den = ma if sma.size == 1 else sma if ma.size == 1 else np.convolve(ma, sma)
        return self.num, self.den


@functools.cache
def _linear_filter():
    """``scipy.signal._sigtools._linear_filter``, the compiled routine behind
    ``lfilter``.  The extension is loaded from the installed scipy directory
    directly, importing neither the ``scipy`` package nor ``scipy.signal`` and
    the subpackages it imports (stats, interpolate, optimize, ...); it is
    registered under its own name, so a later ``import scipy.signal`` reuses
    the same module.  Without scipy this raises ``ModuleNotFoundError`` with
    ``name == "scipy"``, as ``import scipy`` would."""
    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        import importlib.util
        import os
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

        package = importlib.util.find_spec("scipy")
        if package is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        spec = FileFinder(os.path.join(package.submodule_search_locations[0], "signal"),
                          (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module._linear_filter


def _lfilter(num, den, x) -> np.ndarray:
    """``scipy.signal.lfilter(num, den, x)`` for 1-D float arrays with den[0] == 1,
    bit for bit.  A length-1 denominator is the finite convolution ``lfilter``
    itself computes for it; a longer one goes to the compiled routine
    ``lfilter`` dispatches to."""
    if den.size == 1:
        return np.convolve(num, x)[:x.size]
    return _linear_filter()(num, den, x, -1)


def css_residuals(w, params: "TsParams | np.ndarray", order: ModelOrder,
                  layout: _Layout | None = None) -> np.ndarray:
    """Conditional-sum-of-squares residual recursion on the differenced series.

    ``params`` is a TsParams or its parameter vector (``TsParams.to_vector``).
    With 1 - sum a_j B^j = (1 - sum phi_j B^j)(1 - sum Phi_k B^{sk}) and
    1 + sum b_k B^k = (1 + sum theta_k B^k)(1 + sum Theta_l B^{sl}), computes
    e_t = (w_t - mean) - sum_j a_j (w_{t-j} - mean) - sum_k b_k e_{t-k}, with
    presample w and e terms treated as zero and mean 0 without a mean term.
    Without MA terms the recursion is a finite convolution (numpy alone).

    ``layout`` is a ``_Layout`` of ``order`` that a fit builds once and passes
    on every evaluation; without one, the call builds its own.  Either way
    the polynomials of ``params`` stay on the layout as ``num`` and ``den``.
    """
    vec = _vector(params, order)
    num, den = (layout or _Layout(order)).polynomials(vec)
    w = np.asarray(w, dtype=float)
    return _lfilter(num, den, w - vec[-1] if order.include_mean else w)


def ar_design_matrix(x, p: int, include_mean: bool = True) -> DesignProblem:
    """Lagged design for an AR(p): response x_t, columns x_{t-1} .. x_{t-p};
    InputTooShortError unless it has more rows than columns."""
    x = np.asarray(x, dtype=float)
    if p < 1:
        raise ValueError(f"AR design requires p >= 1, got {p}")
    n = x.size
    k = p + int(include_mean)
    if n - p <= k:
        raise InputTooShortError(
            f"series length {n} too short for an AR({p}) lag design: "
            f"{n - p} rows for {k} columns")
    y = x[p:]
    cols = [x[p - j:n - j] for j in range(1, p + 1)]
    names = [f"ar{j}" for j in range(1, p + 1)]
    return build_design(y, cols, include_intercept=include_mean, column_names=names)


# ---------------------------------------------------------------------------
# Quasi-Newton minimization
# ---------------------------------------------------------------------------

def _central_difference(f, x) -> np.ndarray:
    """Central differences of ``f`` along each coordinate of ``x`` with step
    1e-6 * max(1, |x_i|), one column per coordinate in a C-ordered array:
    the gradient of a scalar ``f``, the Jacobian of a vector one.

    ``f`` sees one work vector, perturbed and restored in place, so it must
    not keep its argument."""
    cols = []
    xw = x.copy()
    for i in range(x.size):
        xi = xw[i]
        h = 1e-6 * max(1.0, abs(xi))
        xw[i] = xi + h
        fp = f(xw)
        xw[i] = xi - h
        fm = f(xw)
        xw[i] = xi
        cols.append((fp - fm) / (2.0 * h))
    grad = np.array(cols)
    return grad if grad.ndim == 1 else np.ascontiguousarray(grad.T)


def minimize_qn(f, x0, H0=None):
    """Damped BFGS with central finite-difference gradients; returns (x, fun, converged).

    ``H0`` is the initial inverse Hessian, by default the identity; the
    iteration falls back to the identity wherever H's direction is not one of
    descent.

    Line search is monotone (Armijo backtracking) and each iteration's step is
    capped at 0.1 * max(1, |x|_inf).  This keeps the iterates in the
    basin of the start point, which matters for the PMM polynomial objectives:
    they can be unbounded below in explosive parameter regions, and the
    estimator is defined as the local minimizer reached from the CSS start.

    Converged means one of two stops: gradient norm (max |g_i|) < 1e-8, or
    relative objective change < 1e-12.  The relative change is tested before
    the new point's gradient is taken, so a run that stops on it ends with a
    call of ``f`` at the returned point.  Any other end is unconverged: a
    non-finite gradient (a difference point where ``f`` is infinite), a step
    with no Armijo progress after 50 halvings, or the 500-iteration cap.
    """
    x = np.array(x0, dtype=float)
    fx = float(f(x))
    if x.size == 0:
        return x, fx, True
    n = x.size
    g = _central_difference(f, x)
    eye = np.eye(n)  # never written in place, so H may share it, as with H0
    H = eye if H0 is None else H0
    for _ in range(500):
        gnorm = np.abs(g).max()
        if gnorm < 1e-8:
            return x, fx, True
        if not math.isfinite(gnorm):
            break
        d = -H @ g
        if not np.isfinite(d).all() or float(d @ g) >= 0.0:
            H = eye
            d = -g
        dnorm = np.abs(d).max()
        cap = 0.1 * max(1.0, np.abs(x).max())
        alpha = min(1.0, cap / dnorm) if dnorm > 0.0 else 1.0
        slope = float(g @ d)
        for _ in range(50):
            xn = x + alpha * d
            fn = float(f(xn))
            if math.isfinite(fn) and fn <= fx + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:  # no Armijo progress
            break
        if abs(fx - fn) / max(1.0, abs(fx)) < 1e-12:
            return xn, fn, True
        gn = _central_difference(f, xn)
        s = xn - x
        yv = gn - g
        sy = float(s @ yv)
        # norms and outer products written out: the same bits, less overhead
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(yv @ yv)):
            rho = 1.0 / sy
            V = eye - rho * (s[:, None] * yv)
            H = V @ H @ V.T + rho * (s[:, None] * s)
        x, fx, g = xn, fn, gn
    return x, fx, False


# ---------------------------------------------------------------------------
# Estimation (CSS, PMM2, PMM3) and simulation
# ---------------------------------------------------------------------------

def _min_series_length(order: ModelOrder, method: str) -> int:
    """One less than the observations a ``method`` fit of ``order`` needs: more
    than p + q + s(P + Q) + d + sD + 5, and on the lag-design route a design of
    k columns with k + ``_extra_rows`` rows of the method (of CSS for the CSS
    stage of an ARI(p,d,0) PMM2 fit)."""
    lags = order.p + order.d + order.D * order.s
    need = lags + order.q + order.s * (order.P + order.Q) + 5
    if _is_pure_ar(order):  # the lag design fits the order or its CSS stage
        stage = method if _lag_design_route(method, order) else "CSS"
        need = max(need, lags + order.p + int(order.include_mean) + _extra_rows(stage) - 1)
    return need


def _unit_region_warnings(num: np.ndarray, den: np.ndarray, warns: list[str]):
    """Note an AR or MA polynomial (``num``, ``den`` of ``_Layout.polynomials``),
    1 + sum c_l z^l, with a root of modulus at most 1 + 1e-8.

    If sum |c_l| (1 + 1e-8)^L < 1 - 1e-6 (L the degree, 0 for a constant) no
    such root exists, and ``np.roots`` is skipped; written as
    ``not bound < ...`` so that NaN coefficients still reach ``np.roots`` and
    raise there.
    """
    for name, poly, region in (("AR", num, "non-stationary"), ("MA", den, "non-invertible")):
        bound = float(np.abs(poly[1:]).sum()) * (1.0 + 1e-8) ** (poly.size - 1)
        if not bound < 1.0 - 1e-6:
            roots = np.roots(poly[::-1])
            if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-8:
                warns.append(f"{name} polynomial has a root on or inside the unit "
                             f"circle ({region} region)")


def _is_pure_ar(order: ModelOrder) -> bool:
    """True for a pure nonseasonal AR order (p >= 1, no MA or seasonal terms)."""
    return order.p >= 1 and order.q == 0 and order.P == 0 and order.Q == 0


def _lag_design_route(method: str, order: ModelOrder) -> bool:
    """True when ``method`` fits ``order`` by the lag-design regression: a pure
    nonseasonal AR order, except ARI(p,d,0) PMM2 with d + D >= 1.

    That PMM2 estimator is the minimizer of the frozen-moment objective reached
    from the CSS start (acceptance criterion 7 checks its objective against the
    CSS one), which the regression with refreshed weights is not; ``_two_stage``
    reaches it by exact Newton.
    """
    return _is_pure_ar(order) and (method != "PMM2" or order.d + order.D == 0)


def _finish_ts_fit(method, x, w, vec, layout, warns, converged, frozen=None) -> TsFit:
    """The fit of parameter vector ``vec`` of ``layout``'s order: its residuals,
    sum of squares and moments, or the capped objective of the (weights,
    moments) a two-stage fit froze when ``frozen`` gives them; g is the
    ``_SCORES[method]`` clamp of the moments (1 for CSS).  Non-finite
    coefficients are a FitFailureError."""
    if not np.isfinite(vec).all():
        raise FitFailureError(f"{method} fit reached non-finite coefficients")
    order = layout.order
    residuals = css_residuals(w, vec, order, layout)
    score = _SCORES.get(method)
    if frozen is None:  # moments first: they raise where the squares overflow
        moments = _moments_or_none(residuals)
        objective = float((residuals * residuals).sum())
    else:  # under the errstate of ``_two_stage``, the one caller that freezes
        weights, moments = frozen
        objective = _capped(score, weights, moments.m2, residuals)
    g = score.clamp(moments, warns) if score is not None else 1.0
    _unit_region_warnings(layout.num, layout.den, warns)  # those of the residuals
    return TsFit(method, order, vec, residuals, x, moments, g, objective, converged, warns)


def _lag_design_fit(method, x, w, layout) -> TsFit:
    """Fit a pure AR order by the ``method`` regression fitter (OLS for CSS) on
    the lag design of ``w``.

    The regression intercept c maps to the process mean c / (1 - sum(phi)).
    """
    order = layout.order
    fitter = _REGRESSION_FITTERS["OLS" if method == "CSS" else method]
    rfit = fitter(ar_design_matrix(w, order.p, include_mean=order.include_mean))
    warns = list(rfit.warnings)
    vec = rfit.coefficients
    if order.include_mean:
        intercept, phi = vec[0], vec[1:]
        ar_sum = 1.0 - float(np.sum(phi))
        if abs(ar_sum) > 1e-10:
            mean = intercept / ar_sum
        else:
            mean = float(np.mean(w))
            warns.append("AR coefficients sum to ~1; mean set to the sample mean")
        vec = np.concatenate([phi, [mean]])
    return _finish_ts_fit(method, x, w, vec, layout, warns, rfit.converged)


def _capped(score, weights, m2: float, eps: np.ndarray) -> float:
    """``score.objective`` of residuals ``eps``; +inf where some e^2 exceeds
    1e6 * m2 (residuals past 1000 sd flag an exploding recursion).  Callers
    silence overflow and invalid-value warnings, once per optimizer run."""
    # max e^2 is the square of max |e|; NaN and inf fail the test as well
    a = np.abs(eps).max()
    if not a * a <= 1e6 * m2:
        return math.inf
    return score.objective(eps, weights, m2)


def _newton_ar(score, weights, m2: float, w: np.ndarray,
               phi0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimize the frozen ``score`` objective over pure AR coefficients by Newton;
    returns (phi, converged).

    Without a mean, CSS residuals of a pure AR order are linear in phi:
    e = w - Z phi, Z the lags of ``w`` with presample zeros, as in
    ``css_residuals``.  The gradient -Z'psi(e) and the Hessian
    Z' diag(psi'(e)) Z are therefore exact; where the Hessian is not positive
    definite the step is the Z'Z (regression score) one.  Step cap and Armijo
    test are those of ``minimize_qn``, the explosion cap that of ``_capped``.

    Converged means that the Newton decrement r'H^-1 r (r the gradient,
    measured in the Hessian's metric) is below 1e-10 of max(|Q|, m * m2),
    m * m2 being about twice the objective at the CSS start.  Returns after
    the full step (no cap, no backtracking) of a point where the decrement
    met that tolerance, and where the step, or the Armijo backtracking, falls
    below 1e-12 relative: a step that shrinks to nothing against the
    explosion cap is not convergence.
    """
    m, p = w.size, phi0.size
    Z = np.zeros((m, p))
    for j in range(1, p + 1):
        Z[j:, j - 1] = w[:m - j]
    phi = np.array(phi0, dtype=float)
    e = w - Z @ phi
    f = _capped(score, weights, m2, e)
    if not math.isfinite(f):
        return phi, False
    for _ in range(500):
        r = Z.T @ score.psi(e, weights, m2)  # minus the gradient
        H = Z.T @ (score.dpsi(e, weights, m2)[:, None] * Z)
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            H = Z.T @ Z
        d = np.linalg.solve(H, r)
        decrement = float(r @ d)
        if not math.isfinite(decrement):
            return phi, False
        converged = decrement <= 1e-10 * max(abs(f), m * m2)
        size = max(1.0, np.abs(phi).max())
        dnorm = np.abs(d).max()
        alpha = min(1.0, 0.1 * size / dnorm) if dnorm > 1e-12 * size else 0.0
        zd = Z @ d
        while alpha * dnorm > 1e-12 * size:
            en = e - alpha * zd
            fn = _capped(score, weights, m2, en)
            if math.isfinite(fn) and fn <= f - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:  # the step, or what backtracking left of it, is below 1e-12
            return phi, converged
        phi = phi + alpha * d
        if converged and alpha == 1.0:
            return phi, True
        e, f = en, fn
    return phi, False


def _two_stage(method: str, x: np.ndarray, w: np.ndarray, layout: _Layout,
               css: TsFit, start: tuple | None) -> TsFit:
    """The ``_SCORES[method]`` objective minimized from ``css``, the CSS fit of
    ``x``, with its residual moments frozen; unusable moments return a copy of
    ``css`` with a note, and ``css`` itself is never modified.

    ARI(p,d,0), the one pure AR order routed here, is minimized by
    ``_newton_ar``, any other order by ``minimize_qn``, from the inverse
    Hessian (E[psi'] J'J)^-1 when ``start`` carries the inverse of J'J.
    """
    order = layout.order
    score = _SCORES[method]
    if not css.converged:
        raise FitFailureError(f"CSS stage did not converge; {method} stage aborted")
    mom = css.moments
    note = "degenerate CSS residual moments"
    if mom is not None and not mom.degenerate:
        try:
            weights, note = score.weights(mom), None
        except DegenerateMomentsError:
            note = f"CSS residual moments leave the {method} weights undefined"
    if note:
        return replace(css, warnings=[*css.warnings, f"{note}; returning CSS fit"])
    warns = list(css.warnings)
    if score.symmetric and abs(mom.gamma3) > 0.5:
        warns.append(f"CSS residual skewness {mom.gamma3:.3f} exceeds 0.5; "
                     f"{method} assumes symmetric errors")
    if score.symmetric and weights[0] < 0.0:
        warns.append(f"b1 < 0 (platykurtic residuals): {method} objective may be nonconvex")
    with np.errstate(over="ignore", invalid="ignore"):
        if _is_pure_ar(order):
            vec, converged = _newton_ar(score, weights, mom.m2, w, css.coefficients)
        else:
            inverse = None if start is None else start[1]
            vec, _, converged = minimize_qn(
                lambda v: _capped(score, weights, mom.m2, css_residuals(w, v, order, layout)),
                css.coefficients,
                None if inverse is None else inverse / score.slope(weights, mom.m2))
        if not converged:
            warns.append(f"{method} optimizer did not converge")
        return _finish_ts_fit(method, x, w, vec, layout, warns, converged, (weights, mom))


def _css_fit(x: np.ndarray, w: np.ndarray, layout: _Layout,
             start: tuple | None = None) -> TsFit:
    """The CSS fit of ``w``, the differenced ``x``: the lag-design OLS fit of a
    pure nonseasonal AR order, white noise as it is, and any other order by
    quasi-Newton from ``start`` (see ``_fit_series``)."""
    order = layout.order
    if _is_pure_ar(order):
        return _lag_design_fit("CSS", x, w, layout)
    x0 = np.zeros(order.n_params) if start is None else np.array(start[0], dtype=float)
    if order.include_mean:
        x0[-1] = np.mean(w)
    if order.p == 0 and order.q == 0 and order.P == 0 and order.Q == 0:
        return _finish_ts_fit("CSS", x, w, x0, layout, [], True)

    def objective(vec):
        eps = css_residuals(w, vec, order, layout)
        return float((eps * eps).sum())

    H0 = None if start is None or start[1] is None else 0.5 * start[1]
    with np.errstate(over="ignore", invalid="ignore"):
        vec, _, converged = minimize_qn(objective, x0, H0)
    warns = []
    if not converged:
        warns.append("CSS optimizer did not converge")
    return _finish_ts_fit("CSS", x, w, vec, layout, warns, converged)


def _fit_series(method: str, x, order: ModelOrder, css: TsFit | None = None,
                start: tuple | None = None) -> TsFit:
    """Fit ``order`` to ``x`` by "CSS", "PMM2" or "PMM3": the one time-series route.

    A pure nonseasonal AR order after differencing is the lag-design regression
    of the same method (OLS for CSS).  Any other CSS order is minimized by
    quasi-Newton, and white noise is not minimized.  Any other PMM order is the
    two-stage fit from the CSS fit.  A given ``css``, the CSS fit of the same
    ``x`` and ``order``, is that CSS fit: "CSS" returns it.

    ``start``, private to refits near an earlier fit (``_refit_start``), is a
    pair (vector, inverse of J'J or None) that only the quasi-Newton runs read:
    the CSS run starts at the vector, with the mean term the sample mean as
    from the default zero start, and both runs start from inverse Hessians
    scaled from the inverse of J'J (the identity without it).
    """
    x = np.asarray(x, dtype=float)
    _require_finite("series", x)
    need = _min_series_length(order, method)
    if x.size <= need:
        raise InputTooShortError(
            f"series length {x.size} too short for order requiring > {need} observations")
    w = difference(x, order.d, order.D, order.s)
    layout = _Layout(order)
    if method != "CSS" and _lag_design_route(method, order):
        return _lag_design_fit(method, x, w, layout)
    if css is None:
        css = _css_fit(x, w, layout, start)
    return css if method == "CSS" else _two_stage(method, x, w, layout, css, start)


def _residual_jacobian(fit: TsFit) -> np.ndarray:
    """The central-difference Jacobian of the CSS residuals of ``fit``'s
    differenced series at its estimate."""
    order = fit.order
    w = difference(fit.original_series, order.d, order.D, order.s)
    layout = _Layout(order)
    return _central_difference(lambda v: css_residuals(w, v, order, layout), fit.coefficients)


def _residual_jtj(fit: TsFit) -> np.ndarray:
    """J'J, J the ``_residual_jacobian`` of ``fit``."""
    J = _residual_jacobian(fit)
    return J.T @ J


def _refit_start(fit: TsFit) -> tuple | None:
    """The ``start`` of ``_fit_series`` for refits near ``fit``: its estimate
    and the inverse of J'J (``_residual_jtj``), None in place of the inverse
    where Cholesky finds J'J not positive definite.  None for an order without
    MA or seasonal terms: its fits run no quasi-Newton, except the PMM stage
    of white noise with a mean, which runs it over the mean from no start."""
    order = fit.order
    if not (order.q or order.P or order.Q):
        return None
    jtj = _residual_jtj(fit)
    try:
        np.linalg.cholesky(jtj)
    except np.linalg.LinAlgError:
        return fit.coefficients, None
    return fit.coefficients, np.linalg.inv(jtj)


def fit_css(x, order: ModelOrder) -> TsFit:
    """Conditional-sum-of-squares estimation.

    Pure nonseasonal AR models are solved exactly by OLS on the lag design;
    anything with MA or seasonal terms is minimized by quasi-Newton from a
    zero start (sample mean for the mean term).
    """
    return _fit_series("CSS", x, order)


def simulate_arima(order: ModelOrder, params: "TsParams | np.ndarray", innovations,
                   burnin: int = 0) -> np.ndarray:
    """Drive the ARMA recursion with given innovations, then integrate d/D times
    from a zero history.

    ``params`` is a TsParams or its parameter vector (``TsParams.to_vector``).
    The first ``burnin`` generated values are discarded before integration, so
    the output has length len(innovations) - burnin.  Burn-in only makes sense
    for stationary AR polynomials; this is not enforced.
    """
    vec = _vector(params, order)
    parts = _split(vec, order)  # the mean is 0.0, unchecked, without a mean term
    for name, part in zip(("phi", "theta", "Phi", "Theta", "mean"), parts):
        _require_finite(f"parameter {name}", part)
    eps = np.asarray(innovations, dtype=float)
    _require_finite("innovations", eps)
    if burnin < 0 or burnin >= eps.size:
        raise ValueError(f"burnin={burnin} must be in [0, len(innovations))")
    num, den = _Layout(order).polynomials(vec)
    z = _lfilter(den, num, eps)[burnin:]
    if order.include_mean:
        z = z + parts[-1]
    return integrate_forecast(np.zeros(order.d + order.D * order.s), z,
                              order.d, order.D, order.s)


def ts_asymptotic_covariance(fit: TsFit) -> np.ndarray:
    """Gauss-Newton covariance ``linmodel._covariance``, J the ``_residual_jacobian``."""
    if fit.order.n_params == 0:
        return _covariance(fit, np.zeros((0, 0)), np.zeros(0))
    J = _residual_jacobian(fit)
    return _covariance(fit, np.linalg.inv(J.T @ J), J.sum(axis=0))
