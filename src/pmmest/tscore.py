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
on first use without importing the ``scipy.signal`` package.
"""

import functools
import math
import sys
import warnings as _warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .cumulants import _SCORES, MomentSet
from .errors import (
    DegenerateDistributionError,
    DegenerateMomentsError,
    FitFailureError,
    InputTooShortError,
    _require_finite,
)
from .linmodel import _REGRESSION_FITTERS, DesignProblem, _moments_or_none, build_design

__all__ = [
    "ModelOrder",
    "TsParams",
    "TsFit",
    "difference",
    "integrate_forecast",
    "ar_design_matrix",
    "expand_polynomial",
    "ma_expand_polynomial",
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

    @property
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
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.Phi = np.atleast_1d(np.asarray(self.Phi, dtype=float))
        self.Theta = np.atleast_1d(np.asarray(self.Theta, dtype=float))
        self.mean = float(self.mean)
        # each ndim is at least 1, so a sum above 4 means a field with more;
        # one test instead of four, as this runs once per residual evaluation
        if self.phi.ndim + self.theta.ndim + self.Phi.ndim + self.Theta.ndim > 4:
            name = next(n for n in ("phi", "theta", "Phi", "Theta")
                        if getattr(self, n).ndim > 1)
            raise ValueError(f"{name} must be one-dimensional, "
                             f"got shape {getattr(self, name).shape}")

    @classmethod
    def zeros(cls, order: ModelOrder) -> "TsParams":
        return cls(np.zeros(order.p), np.zeros(order.q),
                   np.zeros(order.P), np.zeros(order.Q), 0.0)

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
        """Split a parameter vector into fields, views of ``vec`` when it is
        float64; the fields are those the constructor gives, bit for bit."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size != order.n_params:
            raise ValueError(f"expected a vector of {order.n_params} parameters, "
                             f"got shape {vec.shape}")
        # slices of a 1-D float64 array already pass __post_init__'s coercion,
        # and this runs once per residual evaluation, so it is skipped
        self = cls.__new__(cls)
        i = 0
        self.phi = vec[i:i + order.p]; i += order.p
        self.theta = vec[i:i + order.q]; i += order.q
        self.Phi = vec[i:i + order.P]; i += order.P
        self.Theta = vec[i:i + order.Q]; i += order.Q
        self.mean = float(vec[i]) if order.include_mean else 0.0
        return self


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
    params: TsParams
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
    def n_params(self) -> int:
        return self.order.n_params

    @property
    def coefficients(self) -> np.ndarray:
        return self.params.to_vector(self.order)

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

def _lag_factor(coefs: np.ndarray, step: int, ma: bool) -> np.ndarray:
    """1 - sum_k c_k B^{step k}, or 1 + sum_k c_k B^{step k} when ``ma``.

    The lag terms are 0 - c (c + 0 when ``ma``) rather than -c: a convolution
    with [1.0] returns exactly these bits, signed zeros included, so a product
    skips that convolution without changing a bit.
    """
    # with step 1 every slot is written below
    factor = (np.empty if step == 1 else np.zeros)(1 + step * coefs.size)
    factor[0] = 1.0
    if ma:
        np.add(coefs, 0.0, out=factor[step::step])
    else:
        np.subtract(0.0, coefs, out=factor[step::step])
    return factor


def _lag_product(c: np.ndarray, C: np.ndarray, s: int, ma: bool) -> np.ndarray:
    """Coefficients, leading 1 included, of (1 - sum c_j B^j)(1 - sum C_k B^{sk}),
    or of (1 + sum c_j B^j)(1 + sum C_k B^{sk}) when ``ma``."""
    prod = _lag_factor(c, 1, ma)
    if C.size:
        if s < 2:
            raise ValueError("seasonal coefficients require s >= 2")
        prod = np.convolve(prod, _lag_factor(C, s, ma))
    return prod


def expand_polynomial(nonseasonal, seasonal=(), s: int = 0) -> np.ndarray:
    """Lag coefficients of the product (1 - sum c_j B^j)(1 - sum C_k B^{sk}).

    Input and output are in the positive-lag-weight convention: a returned
    vector ``a`` means the polynomial ``1 - sum_l a_l B^l``.
    """
    return -_lag_product(np.atleast_1d(np.asarray(nonseasonal, dtype=float)),
                         np.atleast_1d(np.asarray(seasonal, dtype=float)), s, False)[1:]


def ma_expand_polynomial(theta, Theta=(), s: int = 0) -> np.ndarray:
    """Lag coefficients b of (1 + sum theta B^k)(1 + sum Theta B^{sk}) = 1 + sum b B^l."""
    return _lag_product(np.atleast_1d(np.asarray(theta, dtype=float)),
                        np.atleast_1d(np.asarray(Theta, dtype=float)), s, True)[1:]


def _filter_polynomials(params: TsParams, order: ModelOrder) -> tuple[np.ndarray, np.ndarray]:
    """Full AR and MA polynomials (num, den), leading 1 included: the residual
    recursion is ``lfilter(num, den, w - mean)`` and the ARMA simulation is
    ``lfilter(den, num, eps)``."""
    return (_lag_product(params.phi, params.Phi, order.s, False),
            _lag_product(params.theta, params.Theta, order.s, True))


@functools.cache
def _linear_filter():
    """``scipy.signal._sigtools._linear_filter``, the compiled routine behind
    ``lfilter``.  The extension is loaded from the installed scipy directly,
    skipping the ``scipy.signal`` package ``__init__`` and the subpackages it
    imports (stats, interpolate, optimize, ...); it is registered under its own
    name, so a later ``import scipy.signal`` reuses the same module."""
    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        import importlib.util
        import os
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

        import scipy
        spec = FileFinder(os.path.join(scipy.__path__[0], "signal"),
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


def css_residuals(w, params: TsParams, order: ModelOrder) -> np.ndarray:
    """Conditional-sum-of-squares residual recursion on the differenced series.

    With a = expand_polynomial(phi, Phi, s) and b = ma_expand_polynomial(theta,
    Theta, s), computes e_t = (w_t - mean) - sum_j a_j (w_{t-j} - mean)
    - sum_k b_k e_{t-k}, with presample w and e terms treated as zero.
    Without MA terms the recursion is a finite convolution (numpy alone).
    """
    params.check_order(order)
    z = np.asarray(w, dtype=float) - params.mean
    return _lfilter(*_filter_polynomials(params, order), z)


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


def minimize_qn(f, x0):
    """Damped BFGS with central finite-difference gradients; returns (x, fun, converged).

    Line search is monotone (Armijo backtracking) and each iteration's step is
    capped at 0.1 * max(1, |x|_inf).  This keeps the iterates in the
    basin of the start point, which matters for the PMM polynomial objectives:
    they can be unbounded below in explosive parameter regions, and the
    estimator is defined as the local minimizer reached from the CSS start.
    Stops on gradient norm < 1e-8, relative objective change < 1e-12, or
    500 iterations, and unconverged on a non-finite gradient (a difference
    point where ``f`` is infinite).
    """
    x = np.array(x0, dtype=float)
    fx = float(f(x))
    if x.size == 0:
        return x, fx, True
    n = x.size
    g = _central_difference(f, x)
    eye = np.eye(n)  # never written in place, so H may share it
    H = eye
    converged = False
    for _ in range(500):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < 1e-8:
            converged = True
            break
        if not math.isfinite(gnorm):
            break
        d = -H @ g
        if not np.isfinite(d).all() or float(d @ g) >= 0.0:
            H = eye
            d = -g
        dnorm = float(np.max(np.abs(d)))
        cap = 0.1 * max(1.0, float(np.max(np.abs(x))))
        alpha = min(1.0, cap / dnorm) if dnorm > 0.0 else 1.0
        slope = float(g @ d)
        accepted = False
        for _ in range(50):
            xn = x + alpha * d
            fn = float(f(xn))
            if math.isfinite(fn) and fn <= fx + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # no Armijo progress: finite-difference noise floor reached
            converged = gnorm <= 1e-5 * max(1.0, abs(fx))
            break
        gn = _central_difference(f, xn)
        s = xn - x
        yv = gn - g
        sy = float(s @ yv)
        # norms and outer products written out: the same bits, less overhead
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(yv @ yv)):
            rho = 1.0 / sy
            V = eye - rho * (s[:, None] * yv)
            H = V @ H @ V.T + rho * (s[:, None] * s)
        rel_drop = abs(fx - fn) / max(1.0, abs(fx))
        x, fx, g = xn, fn, gn
        if rel_drop < 1e-12:
            converged = True
            break
    if not converged and float(np.max(np.abs(g))) <= 1e-5 * max(1.0, abs(fx)):
        converged = True
    return x, fx, converged


# ---------------------------------------------------------------------------
# Estimation (CSS, PMM2, PMM3) and simulation
# ---------------------------------------------------------------------------

def _min_series_length(order: ModelOrder, method: str) -> int:
    """One less than the observations a ``method`` fit of ``order`` needs: more
    than p + q + s(P + Q) + d + sD + 5, and on the lag-design route a design of
    k columns with k + ``_SCORES[method].extra_obs`` rows (k + 1 for CSS)."""
    lags = order.p + order.d + order.D * order.s
    need = lags + order.q + order.s * (order.P + order.Q) + 5
    if _lag_design_route(method, order):
        score = _SCORES.get(method)
        rows = order.p + int(order.include_mean) + (score.extra_obs if score else 1)
        need = max(need, lags + rows - 1)
    return need


def _unit_region_warnings(params: TsParams, order: ModelOrder, warns: list[str]):
    """Note an AR or MA polynomial 1 + sum c_l z^l with a root of modulus at most
    1 + 1e-8.

    If sum |c_l| (1 + 1e-8)^L < 1 - 1e-6 (L the degree, 0 for a constant) no
    such root exists, and ``np.roots`` is skipped; written as
    ``not bound < ...`` so that NaN coefficients still reach ``np.roots`` and
    raise there.
    """
    num, den = _filter_polynomials(params, order)
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


def _finish_ts_fit(method, x, w, params, order, warns, converged) -> TsFit:
    """Residuals, sum of squares and moments of ``params``; the fit's g is the
    ``_SCORES[method]`` clamp of the moments (1 for CSS)."""
    residuals = css_residuals(w, params, order)
    objective = float((residuals * residuals).sum())
    moments = _moments_or_none(residuals)
    score = _SCORES.get(method)
    g = score.clamp(moments, warns) if score is not None else 1.0
    _unit_region_warnings(params, order, warns)
    return TsFit(method, order, params, residuals, x, moments, g, objective, converged,
                 warns)


def _lag_design_fit(method, x, w, order) -> TsFit:
    """Fit a pure AR order by the ``method`` regression fitter (OLS for CSS) on
    the lag design of ``w``.

    The regression intercept c maps to the process mean c / (1 - sum(phi)).
    """
    fitter = _REGRESSION_FITTERS["OLS" if method == "CSS" else method]
    rfit = fitter(ar_design_matrix(w, order.p, include_mean=order.include_mean))
    warns = list(rfit.warnings)
    if order.include_mean:
        intercept, phi = rfit.coefficients[0], rfit.coefficients[1:]
        ar_sum = 1.0 - float(np.sum(phi))
        if abs(ar_sum) > 1e-10:
            mean = intercept / ar_sum
        else:
            mean = float(np.mean(w))
            warns.append("AR coefficients sum to ~1; mean set to the sample mean")
    else:
        phi, mean = rfit.coefficients, 0.0
    params = TsParams(phi, np.empty(0), np.empty(0), np.empty(0), mean)
    return _finish_ts_fit(method, x, w, params, order, warns, rfit.converged)


def _capped(score, weights, m2: float, eps: np.ndarray, explosion_cap: float | None) -> float:
    """``score.objective`` of residuals ``eps``; +inf where they are non-finite
    or some e^2 exceeds ``explosion_cap``."""
    if explosion_cap is None:
        if not np.isfinite(eps).all():
            return math.inf
    else:
        # max e^2 is the square of max |e|; NaN and inf fail the test as well
        a = float(np.abs(eps).max())
        if not a * a <= explosion_cap:
            return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        return score.objective(eps, weights, m2)


def _capped_objective(score, weights, m2: float, w, params: TsParams, order: ModelOrder,
                      explosion_cap: float | None) -> float:
    """``_capped`` objective of the CSS residuals of ``params``."""
    return _capped(score, weights, m2, css_residuals(w, params, order), explosion_cap)


def _newton_ar(score, weights, m2: float, w: np.ndarray, phi0: np.ndarray,
               explosion_cap: float) -> tuple[np.ndarray, bool]:
    """Minimize the frozen ``score`` objective over pure AR coefficients by Newton;
    returns (phi, converged).

    Without a mean, CSS residuals of a pure AR order are linear in phi:
    e = w - Z phi, Z the lags of ``w`` with presample zeros, as in
    ``css_residuals``.  The gradient -Z'psi(e) and the Hessian
    Z' diag(psi'(e)) Z are therefore exact; where the Hessian is not positive
    definite the step is the Z'Z (regression score) one.  Step cap, Armijo test
    and explosion cap are those of ``minimize_qn`` and ``_two_stage``.

    Stops when the step, or the Armijo backtracking, falls below 1e-12
    relative, and is converged only if the Newton decrement r'H^-1 r (r the
    gradient, measured in the Hessian's metric) is below 1e-10 of
    max(|Q|, m * m2), m * m2 being about twice the objective at the CSS
    start: a step that shrinks to nothing against the explosion cap is not
    convergence.
    """
    m, p = w.size, phi0.size
    Z = np.zeros((m, p))
    for j in range(1, p + 1):
        Z[j:, j - 1] = w[:m - j]
    phi = np.array(phi0, dtype=float)
    e = w - Z @ phi
    f = _capped(score, weights, m2, e, explosion_cap)
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
        size = max(1.0, float(np.max(np.abs(phi))))
        dnorm = float(np.max(np.abs(d)))
        alpha = min(1.0, 0.1 * size / dnorm) if dnorm > 1e-12 * size else 0.0
        zd = Z @ d
        while alpha * dnorm > 1e-12 * size:
            en = e - alpha * zd
            fn = _capped(score, weights, m2, en, explosion_cap)
            if math.isfinite(fn) and fn <= f - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:  # the step, or what backtracking left of it, is below 1e-12
            return phi, converged
        phi = phi + alpha * d
        e, f = en, fn
    return phi, False


def _two_stage(method: str, x: np.ndarray, w: np.ndarray, order: ModelOrder,
               css: TsFit | None = None) -> TsFit:
    """CSS fit, then the ``_SCORES[method]`` objective minimized from it with the
    CSS residual moments frozen; unusable moments return a copy of the CSS fit
    with a note.

    ``css`` is the CSS fit of the same ``x`` and ``order`` when the caller has
    one; it is used in place of a new one and never modified.  Pure
    nonseasonal AR orders without a mean (ARI(p,d,0) PMM2) are minimized by
    ``_newton_ar``, any other order by ``minimize_qn``.
    """
    score = _SCORES[method]
    base = fit_css(x, order) if css is None else css
    if not base.converged:
        raise FitFailureError(f"CSS stage did not converge; {method} stage aborted")
    warns = list(base.warnings)
    mom = base.moments
    if mom is None or mom.degenerate:
        return replace(base, warnings=[*base.warnings,
                                       "degenerate CSS residual moments; returning CSS fit"])
    if score.symmetric and abs(mom.gamma3) > 0.5:
        warns.append(f"CSS residual skewness {mom.gamma3:.3f} exceeds 0.5; "
                     f"{method} assumes symmetric errors")
    try:
        weights = score.weights(mom)
    except (DegenerateDistributionError, DegenerateMomentsError):
        return replace(base, warnings=[
            *base.warnings,
            f"CSS residual moments leave the {method} weights undefined; returning CSS fit"])
    if score.symmetric and weights[0] < 0.0:
        warns.append(f"b1 < 0 (platykurtic residuals): {method} objective may be nonconvex")
    cap = 1e6 * mom.m2  # residuals past 1000 sd flag an exploding recursion
    if _is_pure_ar(order) and not order.include_mean:
        phi, converged = _newton_ar(score, weights, mom.m2, w, base.params.phi, cap)
        params = TsParams.from_vector(phi, order)
    else:
        def objective(vec):
            return _capped_objective(score, weights, mom.m2, w,
                                     TsParams.from_vector(vec, order), order, cap)

        vec, _, converged = minimize_qn(objective, base.params.to_vector(order))
        params = TsParams.from_vector(vec, order)
    if not converged:
        warns.append(f"{method} optimizer did not converge")
    residuals = css_residuals(w, params, order)
    fun = _capped(score, weights, mom.m2, residuals, cap)
    g = score.clamp(mom, warns)
    _unit_region_warnings(params, order, warns)
    return TsFit(method, order, params, residuals, x, mom, g, fun, converged, warns)


def _fit_series(method: str, x, order: ModelOrder, css: TsFit | None = None) -> TsFit:
    """Fit ``order`` to ``x`` by "CSS", "PMM2" or "PMM3": the one time-series route.

    A pure nonseasonal AR order after differencing is the lag-design regression
    of the same method (OLS for CSS).  Any other CSS order is minimized by
    quasi-Newton from a zero start (sample mean for the mean term); any other
    PMM order is the two-stage fit from CSS, which starts from ``css`` (the
    CSS fit of the same ``x`` and ``order``) when it is given.
    """
    x = np.asarray(x, dtype=float)
    _require_finite("series", x)
    need = _min_series_length(order, method)
    if x.size <= need:
        raise InputTooShortError(
            f"series length {x.size} too short for order requiring > {need} observations")
    w = difference(x, order.d, order.D, order.s)
    if _lag_design_route(method, order):
        return _lag_design_fit(method, x, w, order)
    if method != "CSS":
        return _two_stage(method, x, w, order, css)
    start = TsParams.zeros(order)
    if order.include_mean:
        start.mean = float(np.mean(w))
    if order.p == 0 and order.q == 0 and order.P == 0 and order.Q == 0:
        return _finish_ts_fit("CSS", x, w, start, order, [], True)

    def objective(vec):
        eps = css_residuals(w, TsParams.from_vector(vec, order), order)
        with np.errstate(over="ignore", invalid="ignore"):
            return float((eps * eps).sum())

    vec, _, converged = minimize_qn(objective, start.to_vector(order))
    warns = []
    if not converged:
        warns.append("CSS optimizer did not converge")
        _warnings.warn("fit_css did not converge", RuntimeWarning, stacklevel=3)
    params = TsParams.from_vector(vec, order)
    return _finish_ts_fit("CSS", x, w, params, order, warns, converged)


def fit_css(x, order: ModelOrder) -> TsFit:
    """Conditional-sum-of-squares estimation.

    Pure nonseasonal AR models are solved exactly by OLS on the lag design;
    anything with MA or seasonal terms is minimized by quasi-Newton from a
    zero start (sample mean for the mean term).
    """
    return _fit_series("CSS", x, order)


def simulate_arima(order: ModelOrder, params: TsParams, innovations,
                   burnin: int = 0) -> np.ndarray:
    """Drive the ARMA recursion with given innovations, then integrate d/D times
    from a zero history.

    The first ``burnin`` generated values are discarded before integration, so
    the output has length len(innovations) - burnin.  Burn-in only makes sense
    for stationary AR polynomials; this is not enforced.
    """
    params.check_order(order)
    for name in ("phi", "theta", "Phi", "Theta"):
        _require_finite(f"parameter {name}", getattr(params, name))
    if order.include_mean:  # the mean is unused otherwise
        _require_finite("parameter mean", params.mean)
    eps = np.asarray(innovations, dtype=float)
    _require_finite("innovations", eps)
    if burnin < 0 or burnin >= eps.size:
        raise ValueError(f"burnin={burnin} must be in [0, len(innovations))")
    num, den = _filter_polynomials(params, order)
    z = _lfilter(den, num, eps)[burnin:]
    if order.include_mean:
        z = z + params.mean
    return integrate_forecast(np.zeros(order.d + order.D * order.s), z,
                              order.d, order.D, order.s)


def ts_asymptotic_covariance(fit: TsFit) -> np.ndarray:
    """Gauss-Newton asymptotic covariance g * m2 * (J'J)^-1, J = d(residuals)/d(params)."""
    order = fit.order
    if fit.moments is None:
        raise ValueError("covariance requires residual moments")
    vec = fit.params.to_vector(order)
    if vec.size == 0:
        return np.zeros((0, 0))
    w = difference(fit.original_series, order.d, order.D, order.s)
    J = _central_difference(
        lambda v: css_residuals(w, TsParams.from_vector(v, order), order), vec)
    jtj = J.T @ J
    return fit.g_coefficient * fit.moments.m2 * np.linalg.inv(jtj)
