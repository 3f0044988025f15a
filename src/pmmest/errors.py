"""Exception types shared across the package."""

import numpy as np


class PmmError(Exception):
    """Base class for all pmmest errors."""


class InputTooShortError(PmmError):
    """Input vector has fewer observations than the operation requires."""


class InadmissibleCumulantsError(PmmError):
    """Cumulants violate the admissibility inequalities (g2/g3 undefined or outside [0,1])."""


class DegenerateDistributionError(PmmError):
    """Moment configuration leaves the quadratic correction weight undefined (m4 <= m2^2)."""


class DegenerateMomentsError(PmmError):
    """Moment matrix is singular or indefinite; polynomial weights undefined."""


class MomentOverflowError(PmmError):
    """Sample moments overflow the float range (residuals of a diverging iteration)."""


class SingularDesignError(PmmError):
    """Design matrix is rank deficient at the working tolerance."""


class DegenerateInputError(PmmError):
    """Input has zero variance or is otherwise unusable for method selection."""


class FitFailureError(PmmError):
    """Model fitting failed irrecoverably."""


class DataError(PmmError):
    """Malformed input data (CSV parsing, missing or non-finite values, wrong shapes)."""


def _require_finite(what: str, values) -> None:
    """Raise DataError when ``values`` holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise DataError(f"{what} contains NaN or infinite values")


# What a bootstrap or Monte Carlo refit may raise on unlucky data; anything
# else is a defect and must not be counted as a failed replicate.
_REPLICATE_FAILURES = (PmmError, np.linalg.LinAlgError, FloatingPointError)
