"""Spatial signs, the joint location/scale fixed-point iteration, and the
standardized-norm moments feeding the max-type statistic.

The location estimate is a spatial median computed in a diagonally
standardized metric; the diagonal scale is pinned down jointly by
requiring each coordinate of the sign vectors to carry an average squared
weight of 1/N. Both estimating equations are solved by alternating
fixed-point updates (Weiszfeld's step for the location, in the form of
Vardi & Zhang 2000). The scale matrix is identified only up to its
overall level (sign vectors are scale free), which cancels in every
downstream statistic.

No sign matrix is formed. The residuals are centered once by their column
means (E) and squared once (E o E); the iteration runs on the location's
offset d from those means. With w = 1/scale, every quantity of a round is
a matrix-vector product on those two arrays:

    r^2         = (E o E) w - 2 E (d o w) + d'(d o w)
    sum_t u_t   = (E'a - d sum(a)) / sqrt(scale),              a = 1/r
    sum_t u_t^2 = w o ((E o E)'b - 2 d o E'b + d^2 sum(b)),    b = 1/r^2

so a round writes no T x N array; E'a and E'b come from one product with
the two-row left factor [a b]'. Rows on or near the location, where the
expansion of r^2 cancels, are recomputed directly; a round in which no
row is near skips that step (its selection, the rows' coordinates and
their signs), which changes nothing. The standardized row norms r at the
returned location and scale are kept on the estimate, and
`moment_estimates` reads them from there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateScaleError, DegenerateStatisticError, _is_count

SCALE_FLOOR = 1e-12

# The expanded r^2 of a row carries a rounding error of about eps times the
# terms it is summed from, base + lift, so it cancels when the location sits
# on or next to the row. Rows whose r^2 falls below this share of those terms
# are recomputed from their coordinates; every expanded r^2 kept is then
# good to a few times 1e-12, relative.
NEAR_ROW_SHARE = 1e-4


def _inverse_norms(norms: np.ndarray) -> np.ndarray:
    """1 / norms, with 0 for a zero norm (a zero row's spatial sign is the
    zero vector, so it carries no weight)."""
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)


@dataclass(frozen=True)
class SpatialLocation:
    """Joint location/scale estimate for residual cross sections.

    theta is the N-vector location, scale_diag the diagonal of the (level
    unidentified) scale matrix. eq_residual is the larger of the two
    estimating-equation residuals at exit; converged records whether it
    reached the tolerance within the iteration budget. norms holds the
    T standardized row norms ||D^(-1/2)(e_t - theta)|| at the returned
    theta and scale, zero for a row that sits on the location.
    """

    theta: np.ndarray
    scale_diag: np.ndarray
    iterations: int
    converged: bool
    eq_residual: float
    norms: np.ndarray


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
        deviation of the mean squared sign coordinates from 1/N. Must be
        finite and > 0.
    max_iter : int
        Update rounds before giving up, an integer >= 0; the best iterate
        is still returned with converged=False.

    Rows that coincide exactly with the current location have undefined
    direction and drop out of both estimating equations; the means are
    taken over the remaining rows. (With one column and an odd sample
    the location sits exactly on an observation, so this convention is
    what lets the equations balance there.) Any scale coordinate falling
    below an absolute floor aborts with a degenerate-scale error (a
    constant residual column triggers this immediately).

    Each round is four products on the centered residuals and their
    squares, formed once per call (see the module docstring).
    """
    if isinstance(tol, bool) or not (
        isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0
    ):
        raise ContractError(f"tol must be a finite number > 0, got {tol!r}")
    if not (_is_count(max_iter) and max_iter >= 0):
        raise ContractError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ContractError(f"residuals must be T x N, got ndim={E.ndim}")
    T, N = E.shape
    if T < 2:
        raise ContractError(f"need at least 2 cross sections, got T={T}")
    if not np.all(np.isfinite(E)):
        raise ContractError("residuals contain non-finite values")
    center = E.mean(axis=0)
    E = E - center
    E2 = E * E
    scale = E2.sum(axis=0) / (T - 1)
    delta = np.zeros(N)  # the location's offset from the column means
    iterations = 0
    while True:
        if np.any(scale < SCALE_FLOOR):
            j = int(np.argmin(scale))
            raise DegenerateScaleError(
                f"scale coordinate {j} fell below {SCALE_FLOOR:g}; "
                "residual column is (near) constant"
            )
        root = np.sqrt(scale)
        w = 1.0 / scale
        dw = delta * w
        lift = float(delta @ dw)
        base = E2 @ w
        r2 = base - 2.0 * (E @ dw) + lift
        is_near = r2 <= NEAR_ROW_SHARE * (base + lift)
        near = np.flatnonzero(is_near) if is_near.any() else None
        if near is None:  # every r^2 is positive, so every row counts
            norms = np.sqrt(r2)
            inv = a = 1.0 / norms
            n_rows = T
        else:
            X_near = (E[near] - delta) / root
            r2[near] = np.einsum("kn,kn->k", X_near, X_near)
            norms = np.sqrt(r2)
            n_rows = int(np.count_nonzero(norms > 0.0))
            if n_rows == 0:
                raise DegenerateScaleError("all standardized residual rows are zero")
            inv = _inverse_norms(norms)
            a = inv.copy()
            a[near] = 0.0  # near rows enter below, from their own coordinates
        b = a * a
        Ea, Eb = np.stack((a, b)) @ E
        u_sum = (Ea - delta * a.sum()) / root
        u2_sum = w * (E2.T @ b - 2.0 * delta * Eb + delta * delta * b.sum())
        if near is not None:
            U_near = X_near * inv[near, None]
            u_sum += U_near.sum(axis=0)
            u2_sum += (U_near * U_near).sum(axis=0)
        mean_u = u_sum / n_rows
        mean_u2 = u2_sum / n_rows
        eq_residual = max(
            float(np.linalg.norm(mean_u)),
            float(N * np.max(np.abs(mean_u2 - 1.0 / N))),
        )
        if eq_residual <= tol or iterations >= max_iter:
            return SpatialLocation(
                center + delta, scale, iterations, eq_residual <= tol, eq_residual, norms
            )
        # Vardi & Zhang's step: rows sitting on the location hold it there
        # unless the other rows' signs pull harder than their count
        held = T - n_rows
        pull = float(np.linalg.norm(u_sum))
        if pull > held:
            delta = delta + (1.0 - held / pull) * root * u_sum / float(inv.sum())
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


def moment_estimates(loc: SpatialLocation, omega_T: float) -> MomentEstimates:
    """Norm moments of the standardized cross sections and zeta_hat.

    varsigma2, varsigma1 and varsigma_neg1 are the time averages of the
    squared, plain and inverse norms of D^(-1/2)(e_t - theta), read from
    the estimate (`SpatialLocation.norms`). zeta_hat combines them with
    eta = 1 - omega_T / T; its denominator must stay positive for the
    max-type calibration to make sense.
    """
    norms = loc.norms
    T, N = len(norms), len(loc.theta)
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
