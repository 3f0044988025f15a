"""Polynomial maximization method (PMM2/PMM3) estimation for regression and ARIMA models.

PMM2 exploits residual skewness, symmetric PMM3 exploits the fourth and sixth
cumulants; both reduce estimation variance relative to OLS/CSS when errors
are non-Gaussian, by the efficiency factors g2 and g3.
"""

from .cumulants import (
    CumulantProfile,
    MomentSet,
    central_moments,
    g2_coefficient,
    g3_coefficient,
    pmm2_weight,
    pmm3_weights,
)
from .dispatch import (
    DispatchConfig,
    DispatchDecision,
    dispatch_fit,
    fit_model,
    render_decision,
    select_method,
)
from .errors import (
    DataError,
    DegenerateInputError,
    DegenerateMomentsError,
    FitFailureError,
    InadmissibleCumulantsError,
    InputTooShortError,
    MomentOverflowError,
    PmmError,
    SingularDesignError,
)
from .inference import BootstrapResult, block_bootstrap_ts, default_block_length, residual_bootstrap
from .linmodel import (
    DesignProblem,
    RegressionFit,
    asymptotic_covariance,
    build_design,
    confidence_intervals,
    fit_ols,
    fit_pmm2,
    fit_pmm3,
    information_criteria,
)
from .mcbench import (
    GridResult,
    InnovationSpec,
    McSpec,
    McSummary,
    advantage_grid,
    innovation_theory,
    run_monte_carlo,
    sample_innovations,
)
from .tscore import (
    ModelOrder,
    TsFit,
    TsParams,
    ar_design_matrix,
    css_residuals,
    difference,
    fit_css,
    integrate_forecast,
    simulate_arima,
    ts_asymptotic_covariance,
)
from .tspmm import fit_ar_pmm2, fit_ts_pmm2, fit_ts_pmm3, forecast

__version__ = "0.1.0"
