"""alphasign: spatial-sign tests for alpha in factor models with smoothly
time-varying coefficients.

The package fits each asset's returns on a B-spline sieve in rescaled
time interacted with observed factors, leaving the time-averaged
intercept in the residuals, and then tests whether any asset carries such
an intercept. Max-type and sum-type statistics built on cross-sectional
spatial signs (CSM, CSS) are robust to heavy-tailed errors; least-squares
counterparts (HDA, MNT) and Cauchy combinations (Ada, CC) complete the
battery. A seeded Monte Carlo harness, rolling-window driver, and CSV
based CLI sit on top.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .basis import (
    DesignMatrix,
    FitResult,
    SplineConfig,
    build_design,
    default_knot_candidates,
    fit_panel,
    make_knots,
    select_knots_bic,
)
from .dgp import (
    EXAMPLE_FACTORS,
    HML,
    MARKET,
    SMB,
    AlphaSpec,
    ErrorScenario,
    FactorSpec,
    SimulatedPanel,
    simulate_panel,
)
from .errors import (
    AlphaSignError,
    ContractError,
    ConvergenceError,
    DegenerateScaleError,
    DegenerateStatisticError,
    PanelFormatError,
    SingularDesignError,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    RollingResult,
    replication_rng,
    resolve_knots,
    rolling_windows,
    run_experiment,
    run_replication_results,
)
from .panels import Panel, read_factors, read_panel, write_panel
from .spatial import (
    MomentEstimates,
    SpatialLocation,
    moment_estimates,
    spatial_median_scale,
)
from .stat_tests import (
    TEST_NAMES,
    TestResult,
    cauchy_combine,
    csm_test,
    css_test,
    gumbel_critical_value,
    gumbel_p_value,
    hda_test,
    mnt_test,
    run_all_tests,
    trace_sigma_u_sq,
)

# Importing a name from a submodule binds the submodule here too; the
# public names are the imported functions, classes and constants alone.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
