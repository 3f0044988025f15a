"""Shared test utilities: synthetic vectors with prescribed sample cumulants, and
data whose fits do not converge."""

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import norm

from pmmest.cumulants import central_moments
from pmmest.linmodel import build_design


def vector_with_cumulants(gamma3, gamma4, n=4000):
    """Deterministic vector whose *sample* gamma3/gamma4 hit the targets.

    A cubic transform of fixed normal scores is tuned by least squares; the
    targets are matched to solver precision (checked by the caller's asserts).
    """
    z = norm.ppf((np.arange(1, n + 1) - 0.5) / n)

    def resid(bc):
        b, c = bc
        v = z + b * z * z + c * z**3
        m = central_moments(v)
        return [m.gamma3 - gamma3, m.gamma4 - gamma4]

    starts = [(gamma3 / 6.0, gamma4 / 60.0), (gamma3 / 4.0, 0.0), (0.0, -0.1)]
    best = None
    for b0, c0 in starts:
        sol = least_squares(resid, [b0, c0], xtol=1e-15, ftol=1e-15)
        if best is None or sol.cost < best.cost:
            best = sol
    if best.cost > 1e-16:
        raise RuntimeError(f"could not match cumulants ({gamma3}, {gamma4}); "
                           f"residual cost {best.cost:.2e}")
    b, c = best.x
    return z + b * z * z + c * z**3


def symmetric_orthogonal_errors():
    """Error vector with exact zero mean, zero third moment, orthogonal to [1, x].

    Paired +-1 pattern: sum e = 0, sum x*e = 0 for x = 1..8, and m3 = 0
    exactly, so PMM2 must reproduce OLS in one step.
    """
    x = np.arange(1.0, 9.0)
    e = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    assert e.sum() == 0.0 and (x * e).sum() == 0.0 and (e**3).sum() == 0.0
    return x, e


def unconverged_pmm2_problem():
    """y = 1 + 2x + Gamma(2, 1) - 2 on 20 rows, whose PMM2 fit stops at the
    200-iteration cap, unconverged."""
    rng = np.random.default_rng(np.random.SeedSequence([5, 20]).spawn(300)[145])
    x = rng.standard_normal(20)
    e = rng.gamma(2.0, 1.0, 20) - 2.0
    return build_design(1.0 + 2.0 * x + e, [x], column_names=["x"])


def unconverged_css_series():
    """A 20-point +-1 series whose ARMA(1,1) CSS fit does not converge."""
    return np.random.default_rng(5).choice([-1.0, 1.0], 40)[20:]
