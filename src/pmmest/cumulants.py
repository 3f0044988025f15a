"""Sample moments, standardized cumulants, and polynomial-score efficiency coefficients.

Conventions used throughout the package:

* ``m2`` is the sample variance with denominator ``n - 1``; ``m3``, ``m4``,
  ``m6`` are central moments with denominator ``n``.
* ``gamma3 = m3 / m2**1.5`` (skewness), ``gamma4 = m4 / m2**2 - 3`` (excess
  kurtosis), ``gamma6 = m6 / m2**3 - 15*gamma4 - 10*gamma3**2 - 15`` (sixth
  standardized cumulant).
* ``g2 = 1 - gamma3**2 / (gamma4 + 2)`` is the ratio of the PMM2 asymptotic
  variance to the OLS/CSS one; ``g3 = 1 - gamma4**2 / (6 + 9*gamma4 + gamma6)``
  is the symmetric PMM3 analogue.  Both live in [0, 1] for admissible
  cumulants.

Admissibility violations (possible for small-sample plug-in estimates) raise
errors in ``g2_coefficient``/``g3_coefficient``; ``_clamped_g2``/``_clamped_g3``
are the one clamped fallback for sample moments.

``_SCORES`` holds the two polynomial scores, PMM2 and PMM3, as one record
each; every PMM fitter reads its weights, score, objective and g from there.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMomentsError,
    InadmissibleCumulantsError,
    InputTooShortError,
    MomentOverflowError,
)

__all__ = [
    "MomentSet",
    "CumulantProfile",
    "central_moments",
    "g2_coefficient",
    "g3_coefficient",
    "pmm2_weight",
    "pmm3_weights",
]


@dataclass(frozen=True)
class MomentSet:
    """Sample central moments and standardized cumulants of one vector.

    ``degenerate`` is True for constant input, in which case the moments are
    all zero and the standardized cumulants are NaN.
    """

    n: int
    mean: float
    m2: float
    m3: float
    m4: float
    m6: float
    gamma3: float
    gamma4: float
    gamma6: float
    degenerate: bool = False


@dataclass(frozen=True)
class CumulantProfile:
    """Population cumulants of an innovation law plus its efficiency coefficients.

    ``gamma6`` and ``g3`` are None when no sixth-cumulant closed form is
    implemented for the family.
    """

    gamma3: float
    gamma4: float
    gamma6: float | None
    g2: float
    g3: float | None


def central_moments(x) -> MomentSet:
    """Compute the sample MomentSet of a vector (length >= 4).

    The variance m2 has the unbiased n - 1 denominator; the higher moments
    have denominator n.

    Raises MomentOverflowError when the moments or the standardized
    cumulants leave the float range: a sum of squares that overflows, as for
    data near 1e160, powers of m2 that overflow, as for the residuals of a
    diverging iteration, or that underflow to 0, as for data with an sd of
    about 1e-54 or less.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    n = x.size
    if n < 4:
        raise InputTooShortError(f"need at least 4 observations, got {n}")
    mean = float(x.sum()) / n  # the bits of x.mean(), without its Python wrapper
    d = x - mean
    if np.vdot(d, d) == math.inf:  # d * d overflows too, after numpy's warning
        raise MomentOverflowError("sample moments overflow the float range (m2 = inf)")
    d2 = d * d
    m2 = float(d2.sum() / (n - 1))
    # The mean of a constant vector can round away from its value, which leaves
    # m2 at rounding level (m2 / mean^2 near 1e-30) instead of 0; constancy is
    # checked exactly below 1e-20.
    if m2 == 0.0 or (m2 < 1e-20 * mean * mean and (x == x[0]).all()):
        return MomentSet(n, mean, 0.0, 0.0, 0.0, 0.0,
                         math.nan, math.nan, math.nan, degenerate=True)
    if m2 * (n - 1) < 1e102:
        m3, m4, m6 = _higher_moments(d, d2, n)
    else:  # sum d^6 <= (sum d^2)^3 may overflow: inf moments, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            m3, m4, m6 = _higher_moments(d, d2, n)
    try:  # float powers raise on overflow, and divisions by one that underflowed to 0
        gamma3 = m3 / m2**1.5
        gamma4 = m4 / m2**2 - 3.0
        gamma6 = m6 / m2**3 - 15.0 * gamma4 - 10.0 * gamma3**2 - 15.0
    except (OverflowError, ZeroDivisionError):
        raise MomentOverflowError(
            f"sample moments overflow or underflow the float range (m2 = {m2:g})") from None
    return MomentSet(n, mean, m2, m3, m4, m6, gamma3, gamma4, gamma6)


def _higher_moments(d: np.ndarray, d2: np.ndarray, n: int) -> tuple[float, float, float]:
    """m3, m4 and m6 of the deviations ``d`` from the mean, ``d2`` = d * d."""
    # Products and BLAS dots, not d**k: numpy sends integer powers above 2
    # through libm pow, about ten times the cost of a multiplication.
    d4 = d2 * d2
    return float(d2 @ d) / n, float(d4.sum()) / n, float(d4 @ d2) / n


def _g2(gamma3: float, gamma4: float) -> tuple[float, str]:
    """g2 clamped into [0, 1] and the admissibility condition it violates ("" if none).

    Either violation puts the formula at or below 0, so the clamped value is 0.
    """
    denom = gamma4 + 2.0
    if denom <= 0.0:
        return 0.0, f"gamma4 + 2 = {denom:g} is not positive"
    if gamma3 * gamma3 > denom:
        return 0.0, (f"cumulant inequality violated: gamma3^2 = {gamma3 * gamma3:g} "
                     f"> gamma4 + 2 = {denom:g}")
    return 1.0 - gamma3 * gamma3 / denom, ""


def _g3(gamma4: float, gamma6: float) -> tuple[float, str]:
    """g3 clamped into [0, 1] and the admissibility condition it violates ("" if none)."""
    denom = 6.0 + 9.0 * gamma4 + gamma6
    g = 0.0 if denom <= 0.0 else max(1.0 - gamma4 * gamma4 / denom, 0.0)
    if gamma4 < -2.0:
        return g, f"gamma4 = {gamma4:g} below -2"
    if denom <= 0.0:
        return g, f"6 + 9*gamma4 + gamma6 = {denom:g} is not positive"
    if gamma4 * gamma4 > denom:
        return g, f"admissibility violated: gamma4^2 = {gamma4 * gamma4:g} > {denom:g}"
    return g, ""


def g2_coefficient(gamma3: float, gamma4: float) -> float:
    """PMM2-to-OLS asymptotic variance ratio, 1 - gamma3^2 / (gamma4 + 2).

    Raises InadmissibleCumulantsError when gamma4 + 2 <= 0 or the cumulant
    inequality gamma3^2 <= gamma4 + 2 fails.  Never clamps: sample estimates
    may transiently violate the inequality and the caller owns the fallback
    (``_clamped_g2`` for sample moments).
    """
    g, violation = _g2(gamma3, gamma4)
    if violation:
        raise InadmissibleCumulantsError(violation)
    return g


def g3_coefficient(gamma4: float, gamma6: float) -> float:
    """Symmetric PMM3-to-OLS variance ratio, 1 - gamma4^2 / (6 + 9*gamma4 + gamma6).

    Admissibility for symmetric laws requires gamma4 >= -2 and
    6 + 9*gamma4 + gamma6 >= gamma4^2 with a positive denominator.
    """
    g, violation = _g3(gamma4, gamma6)
    if violation:
        raise InadmissibleCumulantsError(violation)
    return g


def _clamped(name: str, formula: Callable) -> Callable:
    """The ``name`` coefficient of sample moments by ``formula`` (MomentSet ->
    (value, violation), as ``_g2``/``_g3``): 1 without usable moments, clamped
    into [0, 1] with a note in ``warns`` when the plug-in cumulants are
    inadmissible."""
    def clamp(mom: MomentSet | None, warns: list[str]) -> float:
        if mom is None or mom.degenerate:
            warns.append(f"residual cumulants unavailable; {name} set to 1")
            return 1.0
        value, violation = formula(mom)
        if violation:
            warns.append(f"sample cumulants inadmissible for {name}; clamped to {value:g}")
        return value
    return clamp


_clamped_g2 = _clamped("g2", lambda mom: _g2(mom.gamma3, mom.gamma4))
_clamped_g3 = _clamped("g3", lambda mom: _g3(mom.gamma4, mom.gamma6))


def pmm2_weight(m2: float, m3: float, m4: float) -> float:
    """Variance-minimizing quadratic correction weight c = -m3 / (m4 - m2^2).

    The corrected score e + c*(e^2 - m2) has variance
    m2 + 2*c*m3 + c^2*(m4 - m2^2), minimized at the returned c with minimum
    value m2 * g2.  Units: 1 / data-unit.

    Raises DegenerateMomentsError when m4 <= m2^2, as ``pmm3_weights`` does
    for a singular or indefinite moment matrix.
    """
    spread = m4 - m2 * m2
    if spread <= 0.0:
        raise DegenerateMomentsError(
            f"m4 - m2^2 = {spread:g} is not positive; quadratic weight undefined")
    return -m3 / spread


def pmm3_weights(m2: float, m4: float, m6: float) -> tuple[float, float]:
    """Cubic-score weights (b1, b3) solving [[m2, m4], [m4, m6]] b = (1, 3*m2).

    For a symmetric error law the score psi(e) = b1*e + b3*e^3 then has
    E[psi] = 0, E[psi'] = b1 + 3*m2*b3 > 0, and estimating-equation variance
    1 / (b1 + 3*m2*b3) = m2 * g3.  The solution is returned unnormalized;
    positive rescaling leaves the estimator's root unchanged.
    """
    det = m2 * m6 - m4 * m4
    if m2 <= 0.0 or det <= 0.0:
        raise DegenerateMomentsError(
            f"moment matrix [[m2={m2:g}, m4={m4:g}], [m4, m6={m6:g}]] "
            "is not positive definite")
    b1 = (m6 - 3.0 * m2 * m4) / det
    b3 = (3.0 * m2 * m2 - m4) / det
    return b1, b3


def _pmm2_objective(e, w, m2) -> float:
    """sum of (0.5*e)*e + c*((e*e)*e/3 - m2*e), c = w[0], in two temporaries:
    each in-place step is one operation of that expression, in its order."""
    t = e * e
    t *= e
    t /= 3.0
    u = e * m2
    t -= u
    t *= w[0]
    np.multiply(e, 0.5, out=u)
    u *= e
    u += t
    return float(u.sum())


def _pmm3_objective(e, w, m2) -> float:
    """sum of (0.5*b1)*e*e + (0.25*b3)*((e*e)*(e*e)), (b1, b3) = w, in two
    temporaries, each in-place step one operation of that expression."""
    t = e * e
    q = t * t
    q *= 0.25 * w[1]
    np.multiply(e, 0.5 * w[0], out=t)
    t *= e
    t += q
    return float(t.sum())


@dataclass(frozen=True)
class _Score:
    """One PMM polynomial score psi(e) with weight tuple w, for every PMM fitter."""

    weights: Callable    # MomentSet -> w; raises DegenerateMomentsError
    fallback: tuple      # the w whose score is the OLS/CSS one
    psi: Callable        # (e, w, m2) -> psi(e)
    dpsi: Callable       # (e, w, m2) -> psi'(e), the weights of the exact Hessian
    slope: Callable      # (w, m2) -> E[psi'(e)], the Newton step divisor
    objective: Callable  # (e, w, m2) -> summed antiderivative of psi
    clamp: Callable      # (MomentSet | None, warns) -> the fit's g
    extra_obs: int       # observations the weights need beyond the parameter count
    symmetric: bool      # assumes symmetric errors: skewness and b1 < 0 are noted


_SCORES = {
    # psi = e + c*(e^2 - m2), w = (c,)
    "PMM2": _Score(
        lambda mom: (pmm2_weight(mom.m2, mom.m3, mom.m4),), (0.0,),
        lambda e, w, m2: e + w[0] * (e * e - m2),
        lambda e, w, m2: 1.0 + 2.0 * w[0] * e,
        lambda w, m2: 1.0,
        _pmm2_objective, _clamped_g2, 4, False),
    # psi = b1*e + b3*e^3, w = (b1, b3); E[psi'] = b1 + 3*b3*m2 = h' M^-1 h > 0
    # for a definite moment matrix M
    "PMM3": _Score(
        lambda mom: pmm3_weights(mom.m2, mom.m4, mom.m6), (1.0, 0.0),
        lambda e, w, m2: w[0] * e + w[1] * (e * e * e),
        lambda e, w, m2: w[0] + 3.0 * w[1] * (e * e),
        lambda w, m2: w[0] + 3.0 * w[1] * m2,
        _pmm3_objective, _clamped_g3, 6, True),
}
