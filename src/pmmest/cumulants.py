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
    DegenerateDistributionError,
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

    Raises MomentOverflowError when the standardized cumulants overflow the
    float range, as for the residuals of a diverging iteration.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    n = x.size
    if n < 4:
        raise InputTooShortError(f"need at least 4 observations, got {n}")
    mean = float(x.sum()) / n  # the bits of x.mean(), without its Python wrapper
    d = x - mean
    # Products and BLAS dots, not d**k: numpy sends integer powers above 2
    # through libm pow, about ten times the cost of a multiplication.
    d2 = d * d
    m2 = float(d2.sum() / (n - 1))
    # The mean of a constant vector can round away from its value, which leaves
    # m2 at rounding level (m2 / mean^2 near 1e-30) instead of 0; constancy is
    # checked exactly below 1e-20.
    if m2 == 0.0 or (m2 < 1e-20 * mean * mean and (x == x[0]).all()):
        return MomentSet(n, mean, 0.0, 0.0, 0.0, 0.0,
                         math.nan, math.nan, math.nan, degenerate=True)
    d4 = d2 * d2
    m3 = float(d2 @ d) / n
    m4 = float(d4.sum()) / n
    m6 = float(d4 @ d2) / n
    try:  # a finite Python float power raises where numpy would give inf
        gamma3 = m3 / m2**1.5
        gamma4 = m4 / m2**2 - 3.0
        gamma6 = m6 / m2**3 - 15.0 * gamma4 - 10.0 * gamma3**2 - 15.0
    except OverflowError:
        raise MomentOverflowError(
            f"sample moments overflow the float range (m2 = {m2:g})") from None
    return MomentSet(n, mean, m2, m3, m4, m6, gamma3, gamma4, gamma6)


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


def _clamped_g2(mom: MomentSet | None, warns: list[str]) -> float:
    """g2 of sample moments: 1 without usable moments, clamped into [0, 1]
    with a note in ``warns`` when the plug-in cumulants are inadmissible."""
    if mom is None or mom.degenerate:
        warns.append("residual cumulants unavailable; g2 set to 1")
        return 1.0
    g, violation = _g2(mom.gamma3, mom.gamma4)
    if violation:
        warns.append(f"sample cumulants inadmissible for g2; clamped to {g:g}")
    return g


def _clamped_g3(mom: MomentSet | None, warns: list[str]) -> float:
    """g3 of sample moments, with the fallbacks of ``_clamped_g2``."""
    if mom is None or mom.degenerate:
        warns.append("residual cumulants unavailable; g3 set to 1")
        return 1.0
    g, violation = _g3(mom.gamma4, mom.gamma6)
    if violation:
        warns.append(f"sample cumulants inadmissible for g3; clamped to {g:g}")
    return g


def pmm2_weight(m2: float, m3: float, m4: float) -> float:
    """Variance-minimizing quadratic correction weight c = -m3 / (m4 - m2^2).

    The corrected score e + c*(e^2 - m2) has variance
    m2 + 2*c*m3 + c^2*(m4 - m2^2), minimized at the returned c with minimum
    value m2 * g2.  Units: 1 / data-unit.
    """
    spread = m4 - m2 * m2
    if spread <= 0.0:
        raise DegenerateDistributionError(
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


@dataclass(frozen=True)
class _Score:
    """One PMM polynomial score psi(e) with weight tuple w, for every PMM fitter."""

    weights: Callable    # MomentSet -> w; raises DegenerateDistribution/MomentsError
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
        lambda e, w, m2: float((0.5 * e * e + w[0] * (e * e * e / 3.0 - m2 * e)).sum()),
        _clamped_g2, 4, False),
    # psi = b1*e + b3*e^3, w = (b1, b3); E[psi'] = b1 + 3*b3*m2 = h' M^-1 h > 0
    # for a definite moment matrix M
    "PMM3": _Score(
        lambda mom: pmm3_weights(mom.m2, mom.m4, mom.m6), (1.0, 0.0),
        lambda e, w, m2: w[0] * e + w[1] * (e * e * e),
        lambda e, w, m2: w[0] + 3.0 * w[1] * (e * e),
        lambda w, m2: w[0] + 3.0 * w[1] * m2,
        lambda e, w, m2: float((0.5 * w[0] * e * e + 0.25 * w[1] * ((e * e) * (e * e))).sum()),
        _clamped_g3, 6, True),
}
