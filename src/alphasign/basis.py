"""B-spline sieve designs and per-asset least-squares residualization.

A panel of T observations on N assets is regressed, asset by asset, on a
design built from a clamped B-spline basis in rescaled time u = t/T. The
design couples a *centered* intercept-basis block with one basis block per
factor, each multiplied by that factor's realization. Centering the
intercept block keeps the time-averaged intercept of every asset out of
the fitted span, so it survives in the residuals; the test statistics
downstream probe exactly that surviving component. A twin design with the
*uncentered* intercept block absorbs the averaged intercept instead and
supplies the residuals used by variance/trace estimators.

Each design is factorized once, through the uncentered twin, whose span
contains the centered one's; it keeps that twin's orthonormal basis
alone. The two spans differ by one direction, the annihilated ones
vector h, which one K x K solve gives, so a fit is one projection on
the basis and a rank-one update, and the centered twin's annihilator is
read off the basis and h. Both twins' rank checks are certified from
the uncentered twin's triangular factor R_tilde and its inverse, with
singular values only for a design near the threshold.

The knot search scores a candidate from R_tilde alone: the fitted sum of
squares is ||R_tilde^-T Z_tilde' Y||^2, so no candidate forms a basis.
It takes a stack of panels of one length (consecutive rolling windows)
and factorizes its twins in one batched call; a single panel is a stack
of one. The chosen count's design is then built by `build_design`, as a
fixed count's is, so a chosen design equals the design at its count. On a
large panel, outside the worker pool's jobs, a kept helper thread scores
about half of the candidates (`pool._both`), each to the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .errors import ContractError, DegenerateStatisticError, SingularDesignError, _is_count
from .pool import _both

# Reciprocal condition number below which a design is treated as singular.
RCOND_MIN = 1e-12

# A design whose certified lower bound on both twins' reciprocal condition
# numbers is at least this many times RCOND_MIN passes both rank checks
# without singular values (`_factor_twins`); the margin covers the
# rounding of the exact check's singular values.
_SCREEN_MARGIN = 2.0

# Share of ||Y||^2 below which bic_score takes its residual sum of squares
# from the residual rather than from ||Y||^2 - ||Q'Y||^2, keeping the
# subtraction's relative error near eps / 1e-3.
_RSS_FALLBACK = 1e-3

# Bases kept by _clamped_basis, and their column means by _basis_means:
# two panel lengths' default knot searches (8 candidates each), so every
# window of a rolling run and every replication of a cell reuses them.
_BASIS_CACHE_SIZE = 16


@dataclass(frozen=True)
class SplineConfig:
    """Clamped B-spline space on [0, 1].

    Parameters
    ----------
    interior_knots : int
        Number of uniformly spaced interior knots (n >= 0).
    order : int
        Spline order (polynomial degree + 1). Order 3 gives quadratics.
    """

    interior_knots: int
    order: int = 3

    def __post_init__(self):
        for name, value, least in (
            ("spline order", self.order, 1),
            ("interior knot count", self.interior_knots, 0),
        ):
            if not _is_count(value):
                raise ContractError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ContractError(f"{name} must be >= {least}, got {value}")

    @property
    def basis_dim(self) -> int:
        """Number of basis functions L = interior_knots + order."""
        return self.interior_knots + self.order


def make_knots(interior_knots: int, order: int = 3) -> np.ndarray:
    """Clamped knot vector on [0, 1] with uniform interior knots.

    Interior knot i (1-based) sits at i / (interior_knots + 1); both
    boundary knots are repeated `order` times so the basis is clamped.
    The counts are checked as `SplineConfig` checks them.
    """
    SplineConfig(interior_knots, order)
    inner = np.arange(1, interior_knots + 1) / (interior_knots + 1)
    return np.concatenate([np.zeros(order), inner, np.ones(order)])


def _basis_matrix(knots: np.ndarray, order: int, u: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at the points u via the Cox-de Boor recursion.

    Returns an array of shape (len(u), L). The support convention is
    half-open intervals, closed at the right boundary so the basis still
    sums to one at u = 1.
    """
    u = np.asarray(u, dtype=float)
    nk = knots.size
    left, right = knots[:-1], knots[1:]
    B = ((u[:, None] >= left) & (u[:, None] < right)).astype(float)
    at_end = u == knots[-1]
    if np.any(at_end):
        last = np.nonzero(right > left)[0][-1]
        B[at_end, :] = 0.0
        B[at_end, last] = 1.0
    for k in range(2, order + 1):
        cols = nk - k
        # Column i mixes B_i and B_{i+1}; a zero-width span (repeated knot)
        # drops its term, here by dividing by inf.
        den1 = knots[k - 1 : nk - 1] - knots[:cols]
        den2 = knots[k:] - knots[1 : cols + 1]
        left = (u[:, None] - knots[:cols]) / np.where(den1 > 0.0, den1, np.inf) * B[:, :cols]
        right = (knots[k:] - u[:, None]) / np.where(den2 > 0.0, den2, np.inf) * B[:, 1:]
        B = left + right
    return B


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _clamped_basis(T: int, interior_knots: int, order: int) -> np.ndarray:
    """The T x L basis at u = t/T, t = 1..T, shared read-only by every
    design of this length, knot count and order."""
    B = _basis_matrix(make_knots(interior_knots, order), order, np.arange(1, T + 1) / T)
    B.flags.writeable = False
    return B


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _basis_means(T: int, interior_knots: int, order: int) -> np.ndarray:
    """The column means m of `_clamped_basis`, read-only; they sum to one."""
    m = _clamped_basis(T, interior_knots, order).mean(axis=0)
    m.flags.writeable = False
    return m


# The two inputs `_as_matrix` checks: each one's name in its messages, the
# shape it must have, and the verb that says it holds a non-finite value.
_MATRICES = {"panel": ("T x N", "contains"), "factors": ("T x p", "contain")}


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise ContractError(f"{name} {_MATRICES[name][1]} non-finite values")


def _as_matrix(values, name: str) -> np.ndarray:
    """The panel or the factors (name) as a finite float matrix, a vector
    as one column; ContractError otherwise."""
    M = np.asarray(values, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ContractError(f"{name} must be a {_MATRICES[name][0]} matrix, got ndim={M.ndim}")
    _check_finite(M, name)
    return M


def _panel_and_factors(panel, factors) -> tuple[np.ndarray, np.ndarray]:
    Y, f = _as_matrix(panel, "panel"), _as_matrix(factors, "factors")
    if Y.shape[0] != f.shape[0]:
        raise ContractError(
            f"panel has {Y.shape[0]} rows but factors have {f.shape[0]}"
        )
    return Y, f


def _panel_stack(panel, factors) -> tuple[np.ndarray, np.ndarray]:
    """A (W, T, N) stack of panels and its (W, T, p) stack of factors. A
    T x N panel with its factors is a stack of one, with every check of
    `_panel_and_factors`; a stack is taken as is (a view stays a view),
    with the same checks except the scan of the panel's values for
    non-finite ones, which the caller makes (`_squared_norms`)."""
    if np.ndim(panel) != 3:
        Y, f = _panel_and_factors(panel, factors)
        return Y[None], f[None]
    Y, f = np.asarray(panel, dtype=float), np.asarray(factors, dtype=float)
    if f.ndim != 3 or f.shape[:2] != Y.shape[:2]:
        raise ContractError(
            f"a panel stack of shape {Y.shape} needs factors of shape "
            f"{Y.shape[:2]} + (p,), got {f.shape}"
        )
    _check_finite(f, "factors")
    return Y, f


def _effective_rcond(s: np.ndarray, structural_nullity: int = 0) -> np.ndarray:
    """Reciprocal condition numbers from singular values (descending along
    the last axis, one set per leading index), ignoring nulls that are
    present by construction.

    The centered intercept-basis block always contains exactly one exact
    linear dependency: the uncentered basis sums to one at every point, so
    the centered columns sum to zero. Passing structural_nullity=1 excludes
    that expected zero singular value from the conditioning measure; any
    deficiency beyond it still drives the result to ~0.
    """
    keep = s.shape[-1] - structural_nullity
    if keep < 1:
        return np.zeros(s.shape[:-1])
    top = s[..., 0]
    return np.divide(s[..., keep - 1], top, out=np.zeros_like(top), where=top > 0.0)


def _name_singular_block(
    blocks: list[np.ndarray], p: int, first_block_nullity: int = 0
) -> str:
    names = ["intercept-basis block"] + [f"factor {j + 1} block" for j in range(p)]
    acc = None
    for name, blk in zip(names, blocks):
        acc = blk if acc is None else np.hstack([acc, blk])
        keep = acc.shape[1] - first_block_nullity
        if keep < 1:
            continue
        s = np.linalg.svd(acc, compute_uv=False)
        if _effective_rcond(s, first_block_nullity) <= RCOND_MIN:
            return name
    return "combined design"


@dataclass(frozen=True)
class DesignMatrix:
    """Sieve design pair for one panel length, factorized once. Its arrays
    are read-only, so the stored basis cannot go stale.

    The design pair itself is not stored. The centered twin Z holds the
    centered intercept-basis block followed by p factor blocks; that block
    carries one exact linear dependency by construction (its columns sum
    to zero), so Z has column rank (1+p)L - 1, and every quantity derived
    from it here depends only on its column span. The uncentered twin
    Z_tilde has the same layout with the uncentered block and is full
    rank (`_uncentered_twins` assembles it from the factors).

    Attributes
    ----------
    factors : (T, p) array
        The factor realizations the design was built from (a copy).
    omega_T : float
        1' M 1 where M is the annihilator of Z; equals the squared norm of h.
    h : (T,) array
        Annihilated ones vector M 1. Under a fully centered design h = 1.
    Q_tilde : (T, (1+p)L) array
        Orthonormal basis of the column span of Z_tilde, the design's only
        basis. Z's span is Q_tilde's less the direction h, so every
        quantity of Z's annihilator M follows from Q_tilde and h:
        M = I - Q_tilde Q_tilde' + h h' / h'h.
    """

    factors: np.ndarray = field(repr=False)
    omega_T: float
    h: np.ndarray
    config: SplineConfig
    Q_tilde: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.factors, self.h, self.Q_tilde):
            arr.flags.writeable = False

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]

    @property
    def n_obs(self) -> int:
        return self.Q_tilde.shape[0]

    @property
    def n_columns(self) -> int:
        return self.Q_tilde.shape[1]


class _Twins(NamedTuple):
    """A stack of W design pairs factorized through their uncentered twins
    Z_tilde = Q_tilde R_tilde and rank-checked; every array has the stack
    as its leading axis. Q_tilde is None unless the basis was asked for."""

    Z_tilde: np.ndarray
    Q_tilde: np.ndarray | None
    R_tilde: np.ndarray  # K x K upper triangular
    R_inv: np.ndarray  # its inverse


def _uncentered_twins(f: np.ndarray, config: SplineConfig) -> np.ndarray:
    """Z_tilde = [B, f_1 B, ..., f_p B] for each (T, p) factor block of the
    (W, T, p) stack f, B the T x L clamped basis."""
    W, T, p = f.shape
    L = config.basis_dim
    B = _clamped_basis(T, config.interior_knots, config.order)
    Z_tilde = np.empty((W, T, (1 + p) * L))
    Z_tilde[:, :, :L] = B
    for j in range(p):
        np.multiply(f[:, :, j, None], B, out=Z_tilde[:, :, (j + 1) * L : (j + 2) * L])
    return Z_tilde


def _inverses(R: np.ndarray) -> np.ndarray:
    """The inverse of each K x K matrix of the stack R, or NaNs for one
    that LAPACK finds singular; each equals the matrix's inverse alone."""
    try:
        return np.linalg.inv(R)
    except np.linalg.LinAlgError:
        out = np.full_like(R, np.nan)
        for w, r in enumerate(R):
            try:
                out[w] = np.linalg.inv(r)
            except np.linalg.LinAlgError:
                pass
        return out


def _rcond_bounds(R: np.ndarray, R_inv: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """A lower bound, per design of the stack, on the reciprocal condition
    numbers of both twins; 0 or NaN where the inverse is not finite.

    With Z_tilde = Q_tilde R_tilde, rcond(Z_tilde) >= 1 / (||R||_F
    ||R^-1||_F), since the Frobenius norm bounds the spectral one. The
    centered twin is Z = Z_tilde - 1 m_pad' (m the basis column means), a
    rank-one change, so sigma_{K-1}(Z) >= sigma_K(Z_tilde) by interlacing,
    while sigma_1(Z) <= sigma_1(Z_tilde) + sqrt(T) ||m|| <= (1 + sqrt(L)
    ||m||) sigma_1(Z_tilde), because Z_tilde maps [1_L; 0] / sqrt(L) to
    1 / sqrt(L) and so sigma_1(Z_tilde) >= sqrt(T / L). Hence rcond(Z) >=
    rcond(Z_tilde) / (1 + sqrt(L) ||m||), the smaller of the two bounds.
    """
    centering = 1.0 + math.sqrt(mean.size * float(mean @ mean))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("wij,wij->w", R, R) * np.einsum("wij,wij->w", R_inv, R_inv))
        return 1.0 / (norms * centering)


def _exact_rank_check(
    Z_tilde: np.ndarray, q_tilde: np.ndarray, r_tilde: np.ndarray, mean: np.ndarray, p: int
) -> None:
    """Both twins' rank checks on one design from singular values. The
    centered twin Z, whose intercept block is B - 1 m' (m the column means
    of B), lies in the span of Z_tilde, so Q_tilde' Z, formed as R_tilde
    less (Q_tilde' 1) m' in the intercept columns, has the singular values
    of Z; R_tilde has those of Z_tilde. Raises SingularDesignError, naming
    the first failing block, when either twin is rank deficient (Z beyond
    its built-in dependency)."""
    L = mean.size
    rcond_tilde = _effective_rcond(np.linalg.svd(r_tilde, compute_uv=False))
    R = r_tilde.copy()
    R[:, :L] -= q_tilde.sum(axis=0)[:, None] * mean
    rcond = _effective_rcond(np.linalg.svd(R, compute_uv=False), structural_nullity=1)
    if rcond > RCOND_MIN and rcond_tilde > RCOND_MIN:
        return
    B = Z_tilde[:, :L]
    factor_blocks = [Z_tilde[:, (j + 1) * L : (j + 2) * L] for j in range(p)]
    if rcond <= RCOND_MIN:
        raise SingularDesignError(
            "design matrix is rank deficient beyond the built-in dependency "
            "of the centered intercept block (first failing prefix: "
            f"{_name_singular_block([B - mean] + factor_blocks, p, first_block_nullity=1)})"
        )
    raise SingularDesignError(
        "uncentered design matrix is rank deficient (first failing "
        f"prefix: {_name_singular_block([B] + factor_blocks, p)})"
    )


def _factor_twins(f: np.ndarray, config: SplineConfig, *, basis: bool = False) -> _Twins:
    """For each (T, p) factor block of the (W, T, p) stack f, assemble the
    uncentered twin Z_tilde (`_uncentered_twins`), factorize it by
    Householder QR, with its basis Q_tilde only if `basis`, invert R_tilde
    and check the rank of both twins. One batched QR and one batched K x K
    inverse serve the whole stack, and the two calls give each design the
    bits it gets alone.

    A design whose certified bound on both twins' reciprocal condition
    numbers (`_rcond_bounds`) is at least _SCREEN_MARGIN * RCOND_MIN passes
    both checks with no singular values. Every other design, one whose
    bound is too small, whose R_tilde LAPACK finds singular, or whose
    inverse is not finite, takes the exact check (`_exact_rank_check`),
    which accepts it or raises its error. Raises ContractError when T <
    K + 1 and, for the first design in the stack that fails, its
    SingularDesignError.
    """
    _, T, p = f.shape
    L = config.basis_dim
    K = (1 + p) * L
    if T < K + 1:
        raise ContractError(
            f"need T >= (1+p)L + 1 = {K + 1} observations, got T={T}"
        )
    Z_tilde = _uncentered_twins(f, config)
    if basis:
        q_tilde, r_tilde = np.linalg.qr(Z_tilde)
    else:
        q_tilde, r_tilde = None, np.linalg.qr(Z_tilde, mode="r")
    r_inv = _inverses(r_tilde)
    mean = _basis_means(T, config.interior_knots, config.order)
    certified = _rcond_bounds(r_tilde, r_inv, mean) >= _SCREEN_MARGIN * RCOND_MIN
    for w in np.flatnonzero(~certified):
        q = np.linalg.qr(Z_tilde[w])[0] if q_tilde is None else q_tilde[w]
        _exact_rank_check(Z_tilde[w], q, r_tilde[w], mean, p)
    return _Twins(Z_tilde, q_tilde, r_tilde, r_inv)


def build_design(factors, config: SplineConfig) -> DesignMatrix:
    """Assemble and factorize the centered/uncentered design pair.

    Parameters
    ----------
    factors : (T, p) array
        Factor realizations; p = 0 (shape (T, 0)) yields an intercept-only
        design.
    config : SplineConfig

    The uncentered twin is factorized and rank-checked by `_factor_twins`
    (a stack of one) as Z_tilde = Q_tilde R_tilde, with the same R_tilde
    bits and the same rank decision as the knot search's scoring, and h
    comes from one K x K solve. With m_pad the basis column means padded
    with zeros to K, Q_tilde' Z = R_tilde - (Q_tilde' 1) m_pad'. Since the
    basis sums to one, (Q_tilde' 1)' R_tilde^-T m_pad = sum(m) = 1, so
    v = R_tilde^-T m_pad spans the null space of (Q_tilde' Z)': Q_tilde v
    is the one direction of Q_tilde's span outside Z's, and
    h = 1 - Q_tilde (Q_tilde' 1 - v / v'v). The knot search builds its
    chosen count's design here too.
    """
    f = _as_matrix(factors, "factors")
    T = f.shape[0]
    twins = _factor_twins(f[None], config, basis=True)
    q_tilde = twins.Q_tilde[0]
    m_pad = np.zeros(q_tilde.shape[1])
    m_pad[: config.basis_dim] = _basis_means(T, config.interior_knots, config.order)
    v = np.linalg.solve(twins.R_tilde[0].T, m_pad)
    ones = np.ones(T)
    h = ones - q_tilde @ (q_tilde.T @ ones - v / (v @ v))
    omega = float(np.clip(h @ h, 0.0, float(T)))
    return DesignMatrix(factors=f.copy(), omega_T=omega, h=h, config=config, Q_tilde=q_tilde)


# A row whose annihilator diagonal falls to this has leverage 1: its
# residual is identically zero.
_LEVERAGE_GAP = 1e-12


def _check_h_norm(hh: float) -> None:
    """The sign tests normalize by h'h (h'h - 1): raise DegenerateStatisticError
    unless h'h > 1."""
    if hh <= 1.0:
        raise DegenerateStatisticError(
            f"normalization requires h'h > 1, got h'h = {hh:g}"
        )


def _annihilator_diagonal(design: DesignMatrix) -> np.ndarray:
    """diag(M) = 1 - ||Q_tilde_t||^2 + h_t^2 / h'h, M the centered twin's
    annihilator (see `DesignMatrix`). Raises DegenerateStatisticError,
    naming the first such time, when a row has leverage 1."""
    q, h = design.Q_tilde, design.h
    d = 1.0 - np.einsum("tk,tk->t", q, q) + h * h / float(h @ h)
    if np.any(d <= _LEVERAGE_GAP):
        bad = int(np.argmin(d))
        raise DegenerateStatisticError(
            f"design leverage is 1 at time {bad + 1}: the residual there "
            "is identically zero"
        )
    return d


def _sign_test_refusal(design: DesignMatrix) -> DegenerateStatisticError | None:
    """The error the sum-type sign test (CSS) raises on this design whatever
    the panel, or None if it accepts the design: it needs h'h > 1 and no
    row of leverage 1."""
    try:
        _check_h_norm(float(design.h @ design.h))
        _annihilator_diagonal(design)
    except DegenerateStatisticError as exc:
        return exc
    return None


@dataclass(frozen=True)
class FitResult:
    """Per-asset least-squares residuals (T x N) and their one gram. Its
    arrays are read-only, so the gram cannot go stale.

    residuals come from the centered design, residuals_tilde from the
    uncentered twin. Residuals are unique even though the centered
    design's built-in dependency leaves its coefficients identified only
    up to one null direction. The twins' spans differ by h alone, so
    residuals = residuals_tilde + h (h'Y)' / h'h (see `fit_panel`).
    gram_tilde = residuals_tilde residuals_tilde' (T x T) is the only
    residual gram a battery forms; HDA and CSS both read it. It is formed
    here unless given; `run_all_tests` gives the one it formed beside the
    spatial median.
    """

    residuals: np.ndarray
    residuals_tilde: np.ndarray
    gram_tilde: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        E = self.residuals_tilde
        if E.ndim != 2 or self.residuals.shape != E.shape:
            raise ContractError(
                "residuals must be two T x N arrays of one shape, got "
                f"{self.residuals.shape} and {E.shape}"
            )
        if self.gram_tilde is None:
            object.__setattr__(self, "gram_tilde", E @ E.T)
        elif self.gram_tilde.shape != (E.shape[0],) * 2:
            raise ContractError(
                f"the residual gram must be T x T, got {self.gram_tilde.shape}"
            )
        for arr in (self.residuals, self.residuals_tilde, self.gram_tilde):
            arr.flags.writeable = False


def fit_panel(panel, design: DesignMatrix) -> FitResult:
    """Regress every asset's return series on the design pair.

    No intercept is added: the centered design leaves each asset's
    time-averaged intercept in `residuals`, while `residuals_tilde`
    absorbs it. residuals_tilde is Y - Q_tilde (Q_tilde' Y) with the
    design's stored basis. The uncentered twin's span is the centered
    one's plus h, orthogonal to it, so the centered residuals follow by a
    rank-one update, E = E~ + h (h'Y)' / h'h, with no second projection.
    """
    Y = _as_matrix(panel, "panel")
    if Y.shape[0] != design.n_obs:
        raise ContractError(
            f"panel has {Y.shape[0]} rows but design expects {design.n_obs}"
        )
    return FitResult(*_fit_residuals(Y, design))


def _fit_residuals(Y: np.ndarray, design: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """`fit_panel`'s residuals and residuals_tilde, of a T x N panel that
    is already checked and has the design's row count."""
    q = design.Q_tilde
    resid_tilde = _residual(Y, q, q.T @ Y)
    h = design.h
    resid = np.multiply.outer(h / float(h @ h), h @ Y)
    resid += resid_tilde
    return resid, resid_tilde


def _residual(v, q, qv):
    """v - q qv for orthonormal q and qv = q' v, written over the fitted
    values so that it allocates one T x N array."""
    out = q @ qv
    return np.subtract(v, out, out=out)


def _bic_penalty(N: int, T: int, n_factors: int, config: SplineConfig) -> float:
    """Complexity charge log(NT)/(NT) * (p+1) * L used by the knot criterion."""
    nt = N * T
    return math.log(nt) / nt * (n_factors + 1) * config.basis_dim


def bic_score(panel, factors, config: SplineConfig, *, _norms=None):
    """Information criterion for one interior-knot count.

    The goodness-of-fit term is the log mean squared residual of the
    uncentered-design fit, whose span contains the constant and therefore
    absorbs any time-averaged intercept before the fit is scored. With
    Z_tilde = Q_tilde R_tilde the uncentered twin's factorization, Q_tilde'
    Y = R_tilde^-T (Z_tilde' Y), so the residual sum of squares is ||Y||^2
    - ||R_tilde^-T Z_tilde' Y||^2, from the twin's triangular factor and
    its inverse (`_factor_twins`): no basis and no T x N residual is
    formed. That subtraction loses about eps ||Y||^2 / RSS relative
    accuracy; when RSS falls below 1e-3 ||Y||^2 that panel alone takes the
    reduced QR and the residual Y - Q_tilde (Q_tilde' Y) instead. A
    candidate is unusable, with `build_design`'s error, exactly when its
    design pair is.

    panel and factors may also be stacks (W, T, N) and (W, T, p) of panels
    of one length, such as consecutive rolling windows. The stack is
    scored in one batched factorization and the W scores come back as an
    array, each equal to the panel's own score; the first panel whose
    design is unusable raises its error for the whole stack.

    `_norms` is private to the knot search, which scores every candidate
    on one stack: the panels' `_squared_norms`, taken once for the search.
    """
    Y, f = _panel_stack(panel, factors)
    W, T, N = Y.shape
    norms = _squared_norms(Y) if _norms is None else _norms
    twins = _factor_twins(f, config)
    fitted = np.swapaxes(twins.R_inv, 1, 2) @ (np.swapaxes(twins.Z_tilde, 1, 2) @ Y)
    penalty = _bic_penalty(N, T, f.shape[2], config)
    scores = np.empty(W)
    for w, yy in enumerate(norms):
        rss = yy - float(np.vdot(fitted[w], fitted[w]))
        if rss < _RSS_FALLBACK * yy:
            q = np.linalg.qr(twins.Z_tilde[w])[0]
            resid = _residual(Y[w], q, q.T @ Y[w])
            rss = float(np.vdot(resid, resid))
        # exact interpolation pushes the criterion to -inf, so it wins
        scores[w] = math.log(rss / (T * N)) + penalty if rss > 0.0 else -math.inf
    return scores if np.ndim(panel) == 3 else float(scores[0])


def _squared_norms(Y: np.ndarray) -> list[float]:
    """||Y_w||^2 of each panel of a (W, T, N) stack. Raises ContractError
    if a panel holds a non-finite value: such a value makes its panel's
    squared norm non-finite, and only then is the stack scanned. Overflow
    in a finite panel does the same, and that panel is scored all the
    same."""
    norms = [float(np.vdot(Y[w], Y[w])) for w in range(Y.shape[0])]
    if not all(map(math.isfinite, norms)):
        _check_finite(Y, "panel")
    return norms


def _check_knots(knots) -> int | str:
    """A knot policy: a non-negative integer count (returned as int) or "auto"."""
    if isinstance(knots, str) and knots == "auto":
        return knots
    if _is_count(knots) and knots >= 0:
        return int(knots)
    raise ContractError(f"knots must be a non-negative integer or 'auto', got {knots!r}")


def default_knot_candidates(T: int) -> range:
    """Default search range 1 .. ceil(T^(1/5)) + 4."""
    return range(1, math.ceil(T ** 0.2) + 5)


# A knot candidate's own failures: too few observations or a singular design.
_UNUSABLE = (SingularDesignError, ContractError)


def _score_or_error(panel, factors, config: SplineConfig, norms):
    """The search's `bic_score` of a (1, T, N) stack, or the error that
    makes the candidate unusable."""
    try:
        return float(bic_score(panel, factors, config, _norms=norms)[0])
    except _UNUSABLE as exc:
        return exc


class _KnotSearch(NamedTuple):
    """One panel's knot search. `table` is {n: score, or the error that
    makes candidate n unusable}, keyed in ascending n, where a count whose
    design the sum-type sign test refuses holds that test's error.
    `outcome` is the chosen design, or the SingularDesignError that lists
    each candidate's error when no count is usable."""

    table: dict
    outcome: DesignMatrix | SingularDesignError

    def design(self) -> DesignMatrix:
        """The chosen design; raises the search's error if there is none."""
        if isinstance(self.outcome, SingularDesignError):
            raise self.outcome
        return self.outcome


def _chosen_design(
    table: dict, factors: np.ndarray, order: int
) -> DesignMatrix | SingularDesignError:
    """The design at the count of least score in one panel's table, ties
    to the smaller count, built by `build_design`, so it equals the design
    at that count. It must be one the sum-type sign test accepts
    (`_sign_test_refusal`); if not, its count is marked unusable in the
    table with that test's error, and the next count in score order is
    built (this is rare). Returns, not raises, the SingularDesignError
    listing each candidate's error when no count is left."""
    while True:
        usable = {n: s for n, s in table.items() if not isinstance(s, Exception)}
        if not usable:
            return SingularDesignError(
                "no knot candidate produced a usable design: "
                + "; ".join(f"n={n}: {exc}" for n, exc in table.items())
            )
        n = min(usable, key=usable.__getitem__)
        design = build_design(factors, SplineConfig(n, order))
        refusal = _sign_test_refusal(design)
        if refusal is None:
            return design
        table[n] = refusal


def _halves(configs: list) -> tuple[list, list]:
    """configs in two lists of about equal cost, each in the given order. A
    candidate's scoring costs about its column count K, through the T x K
    by T x N product Z_tilde' Y, so each count goes, largest first, to the
    list with the smaller sum of K so far."""
    sides, loads = ([], []), [0, 0]
    for config in sorted(configs, key=lambda c: c.basis_dim, reverse=True):
        side = loads.index(min(loads))
        sides[side].append(config)
        loads[side] += config.basis_dim
    return tuple(sorted(side, key=configs.index) for side in sides)


@one_blas_thread()
def _knot_search(panel, factors, candidates=None, order: int = 3) -> list[_KnotSearch]:
    """Search the candidate knot counts on a panel, or on every panel of a
    (W, T, N) stack with its (W, T, p) factors; returns one `_KnotSearch`
    per panel (a single panel is a stack of one), holding its table and
    its chosen design (`_chosen_design`). candidates defaults to
    `default_knot_candidates(T)`.

    Each candidate is scored on the whole stack by one `bic_score` call,
    from its twins' triangular factors alone; a candidate unusable on some
    panel is rescored panel by panel. Every call reads the panels' squared
    norms, taken once. On a large stack the kept helper thread scores about
    half of the candidates, balanced by cost (`_halves`, `pool._both`);
    each score is the same either way. Candidates with too few
    observations or singular designs are unusable; any other error a
    candidate raises is raised for the first such candidate in ascending
    order. Raises ContractError if the candidate set is empty or holds a
    count that is not a non-negative integer, the order is not an integer
    >= 1, or the panel and factors disagree in shape or hold non-finite
    values. OpenBLAS runs at one thread for the call.
    """
    Y, f = _panel_stack(panel, factors)
    W, T = Y.shape[:2]
    cand = sorted(set(default_knot_candidates(T) if candidates is None else candidates))
    if not cand:
        raise ContractError("candidate set for knot selection is empty")
    # Input errors are the caller's, not a candidate's: raise them here, so
    # the scoring below only meets a candidate's own failures (too few
    # observations or a singular design).
    configs = [SplineConfig(n, order) for n in cand]
    norms = _squared_norms(Y)

    def rows(share):
        """Each candidate's W scores or errors, or what it raised instead."""
        out = []
        for config in share:
            try:
                row = bic_score(Y, f, config, _norms=norms).tolist()
            except _UNUSABLE as exc:
                row = [exc] if W == 1 else [
                    _score_or_error(Y[w : w + 1], f[w : w + 1], config, norms[w : w + 1])
                    for w in range(W)
                ]
            except Exception as exc:  # raised below, in candidate order
                row = exc
            out.append(row)
        return out

    theirs, mine = _halves(configs)
    rows_theirs, rows_mine = _both(lambda: rows(theirs), lambda: rows(mine), Y.size)
    outcomes = dict(zip(theirs + mine, rows_theirs + rows_mine))
    tables = [{} for _ in range(W)]
    for config in configs:
        row = outcomes[config]
        if isinstance(row, Exception):
            raise row
        for table, score in zip(tables, row):
            table[config.interior_knots] = score
    return [
        _KnotSearch(table, _chosen_design(table, f[w], order)) for w, table in enumerate(tables)
    ]


def select_knots_bic(panel, factors, candidates=None, order: int = 3) -> int:
    """Pick the interior-knot count minimizing the information criterion on
    one T x N panel (`_knot_search`).

    Candidates with too few observations or singular designs are skipped,
    and so is a count whose design the sum-type sign test refuses (h'h <= 1
    or a row of leverage 1); ties break toward the smaller knot count.
    candidates defaults to `default_knot_candidates(T)`. Raises
    ContractError on a panel that is not a T x N matrix (a stack of
    panels too) or on mismatched or non-finite inputs, and
    SingularDesignError if every candidate is unusable.
    """
    Y, f = _panel_and_factors(panel, factors)
    # as a stack of one the checked panel is not scanned again
    return _knot_search(Y[None], f[None], candidates, order)[0].design().config.interior_knots
