"""Exception taxonomy shared across the package.

Two broad families matter to callers: value/format errors (bad arguments,
malformed input files) and numerical failures (rank-deficient designs,
degenerate scale or variance estimates, unconverged iterations). The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""

import numpy as np


class AlphaSignError(Exception):
    """Base class for all package-specific errors."""


class ContractError(AlphaSignError, ValueError):
    """An argument violates a documented precondition (shape, domain, range)."""


class PanelFormatError(AlphaSignError, ValueError):
    """A panel or factor CSV file is malformed; message carries coordinates."""


class SingularDesignError(AlphaSignError, ArithmeticError):
    """Design matrix is rank deficient or numerically ill conditioned."""


class DegenerateScaleError(AlphaSignError, ArithmeticError):
    """Spatial scale iteration collapsed (constant residual column or zero scale)."""


class DegenerateStatisticError(AlphaSignError, ArithmeticError):
    """A statistic's normalizer (trace, variance, moment denominator) is invalid."""


class ConvergenceError(AlphaSignError, ArithmeticError):
    """An iterative estimate exhausted its rounds before reaching its tolerance."""


# The numerical family as one `except` tuple: the CLI maps it to exit 3, and
# the Monte Carlo harness counts it, and only it, as a failed replication.
NUMERICAL_ERRORS = (
    SingularDesignError,
    DegenerateScaleError,
    DegenerateStatisticError,
    ConvergenceError,
    np.linalg.LinAlgError,
)
