"""Spatial signs, the joint location/scale fixed-point iteration, and the
standardized-norm moments feeding the max-type statistic.

The location estimate is a spatial median computed in a diagonally
standardized metric; the diagonal scale is pinned down jointly by
requiring each coordinate of the sign vectors to carry an average squared
weight of 1/N. Both estimating equations are solved by alternating
fixed-point updates. The scale matrix is identified only up to its
overall level (sign vectors are scale free), which cancels in every
downstream statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateScaleError, DegenerateStatisticError

SCALE_FLOOR = 1e-12


def spatial_sign(v) -> np.ndarray:
    """Direction vector v / ||v||, with the zero vector mapped to zero."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ContractError(f"spatial_sign expects a vector, got ndim={v.ndim}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros_like(v)
    return v / norm


def _row_signs(rows: np.ndarray) -> np.ndarray:
    """Spatial signs of each row of a matrix; zero rows stay zero."""
    out = np.empty_like(rows)
    return _divide_rows(rows, _row_norms(rows, out), out)


def _row_norms(rows: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as np.linalg.norm(rows, axis=1) gives
    it, with `work` (same shape) as the only T x N temporary."""
    return np.sqrt(np.multiply(rows, rows, out=work).sum(axis=1))


def _divide_rows(rows: np.ndarray, norms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows / norms row by row, written to `out`; zero-norm rows become zero."""
    nz = norms > 0.0
    if nz.all():
        return np.divide(rows, norms[:, None], out=out)
    out.fill(0.0)
    out[nz] = rows[nz] / norms[nz, None]
    return out


@dataclass(frozen=True)
class SpatialLocation:
    """Joint location/scale estimate for residual cross sections.

    theta is the N-vector location, scale_diag the diagonal of the (level
    unidentified) scale matrix. eq_residual is the larger of the two
    estimating-equation residuals at exit; converged records whether it
    reached the tolerance within the iteration budget.
    """

    theta: np.ndarray
    scale_diag: np.ndarray
    iterations: int
    converged: bool
    eq_residual: float


def spatial_median_scale(
    residuals, tol: float = 1e-8, max_iter: int = 200
) -> SpatialLocation:
    """Solve the joint spatial-median / diagonal-scale estimating equations.

    Parameters
    ----------
    residuals : (T, N) array
        One cross section per row.
    tol : float
        Convergence threshold on the estimating-equation residuals: the
        Euclidean norm of the mean sign vector, and N times the largest
        deviation of the mean squared sign coordinates from 1/N.
    max_iter : int
        Update rounds before giving up; the best iterate is still returned
        with converged=False.

    Rows that coincide exactly with the current location have undefined
    direction and drop out of both estimating equations; the means are
    taken over the remaining rows. (With one column and an odd sample
    the location sits exactly on an observation, so this convention is
    what lets the equations balance there.) Any scale coordinate falling
    below an absolute floor aborts with a degenerate-scale error (a
    constant residual column triggers this immediately).
    """
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ContractError(f"residuals must be T x N, got ndim={E.ndim}")
    T, N = E.shape
    if T < 2:
        raise ContractError(f"need at least 2 cross sections, got T={T}")
    if not np.all(np.isfinite(E)):
        raise ContractError("residuals contain non-finite values")
    theta = E.mean(axis=0)
    scale = E.var(axis=0, ddof=1)
    # Every round reuses two T x N buffers: X holds the standardized rows
    # and then the squared signs, U the signs.
    X = np.empty_like(E)
    U = np.empty_like(E)
    iterations = 0
    while True:
        if np.any(scale < SCALE_FLOOR):
            j = int(np.argmin(scale))
            raise DegenerateScaleError(
                f"scale coordinate {j} fell below {SCALE_FLOOR:g}; "
                "residual column is (near) constant"
            )
        root = np.sqrt(scale)
        np.divide(np.subtract(E, theta, out=X), root, out=X)
        norms = _row_norms(X, U)
        nz = norms > 0.0
        if not np.any(nz):
            raise DegenerateScaleError("all standardized residual rows are zero")
        _divide_rows(X, norms, U)
        U_nz = U if nz.all() else U[nz]
        mean_u = U_nz.mean(axis=0)
        mean_u2 = np.multiply(U_nz, U_nz, out=X[: len(U_nz)]).mean(axis=0)
        eq_residual = max(
            float(np.linalg.norm(mean_u)),
            float(N * np.max(np.abs(mean_u2 - 1.0 / N))),
        )
        if eq_residual <= tol:
            return SpatialLocation(theta, scale, iterations, True, eq_residual)
        if iterations >= max_iter:
            return SpatialLocation(theta, scale, iterations, False, eq_residual)
        inv_norm_sum = float(np.sum(1.0 / norms[nz]))
        theta = theta + root * U.sum(axis=0) / inv_norm_sum
        scale = N * scale * mean_u2
        iterations += 1


@dataclass(frozen=True)
class MomentEstimates:
    """Moments of the standardized residual norms and the derived factor
    zeta_hat that calibrates the max-type statistic."""

    varsigma2: float
    varsigma1: float
    varsigma_neg1: float
    zeta_hat: float


def moment_estimates(
    residuals, loc: SpatialLocation, omega_T: float
) -> MomentEstimates:
    """Norm moments of the standardized cross sections and zeta_hat.

    varsigma2, varsigma1 and varsigma_neg1 are the time averages of the
    squared, plain and inverse norms of D^(-1/2)(e_t - theta). zeta_hat
    combines them with eta = 1 - omega_T / T; its denominator must stay
    positive for the max-type calibration to make sense.
    """
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ContractError(f"residuals must be T x N, got ndim={E.ndim}")
    T, N = E.shape
    X = np.subtract(E, loc.theta)
    X /= np.sqrt(loc.scale_diag)
    norms = _row_norms(X, X)
    if np.any(norms == 0.0):
        raise DegenerateStatisticError(
            "a standardized residual cross section is exactly zero"
        )
    s2 = float(np.mean(norms**2))
    s1 = float(np.mean(norms))
    s_neg1 = float(np.mean(1.0 / norms))
    eta = 1.0 - omega_T / T
    denom = 1.0 - 2.0 * eta * s_neg1 * s1 + eta * s2 * s_neg1**2
    if denom <= 0.0:
        raise DegenerateStatisticError(
            f"zeta_hat denominator is non-positive ({denom:g}); "
            "omega_T is incompatible with the norm moments"
        )
    zeta = N * s_neg1**2 / denom
    return MomentEstimates(s2, s1, s_neg1, zeta)
