"""The six alpha tests and their combination rules.

Max-type and sum-type statistics built on spatial signs (CSM, CSS), their
least-squares counterparts (MNT max-type, HDA sum-type), and Cauchy
combinations of each pair (Ada for the least-squares pair, CC for the
sign pair). All statistics act on residuals from the sieve fit: the
centered-design residuals keep each asset's time-averaged intercept, the
uncentered-design residuals remove it and therefore calibrate nuisance
quantities under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    DesignMatrix,
    FitResult,
    SplineConfig,
    _annihilator_diagonal,
    _check_h_norm,
    _check_knots,
    _Choice,
    _choose_designs,
    _fit_residuals,
    _panel_and_factors,
    build_design,
    default_knot_candidates,
)
from .blas import one_blas_thread
from .errors import (
    AlphaSignError,
    ContractError,
    ConvergenceError,
    DegenerateStatisticError,
)
from .pool import _both
from .spatial import (
    MomentEstimates,
    SpatialLocation,
    _inverse_norms,
    moment_estimates,
    spatial_median_scale,
)

TEST_NAMES = ("HDA", "MNT", "Ada", "CSS", "CSM", "CC")

REFERENCES = {
    "HDA": "standard-normal",
    "MNT": "gumbel",
    "Ada": "combined",
    "CSS": "scaled-chi-square",
    "CSM": "gumbel",
    "CC": "combined",
}

# Combination inputs are clamped away from {0, 1}: a p-value that underflows
# to exactly 0 would otherwise map to an infinite tangent.
P_CLAMP = 1e-15


@dataclass(frozen=True)
class TestResult:
    """One test's outcome: statistic is None for pure combination tests."""

    name: str
    statistic: float | None
    p_value: float
    reference: str


def _norm_sf(x: float) -> float:
    """Upper tail of the standard normal, accurate far into the tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _gammainc_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    Power series below the a+1 crossover, Lentz continued fraction above;
    both converge fast for the moderate shapes used here.
    """
    if a <= 0.0:
        raise ContractError(f"shape must be positive, got {a}")
    if x < 0.0:
        raise ContractError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # P(a,x) series: sum x^k Gamma(a) / Gamma(a+1+k), k >= 0
        term = 1.0 / a
        total = term
        k = a
        for _ in range(1000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = math.exp(log_front) * total
        return min(max(1.0 - p, 0.0), 1.0)
    # modified Lentz continued fraction for Q(a,x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(log_front) * f
    return min(max(q, 0.0), 1.0)


def _chi2_sf(x: float, df: float) -> float:
    """Upper tail of a chi-square with (possibly fractional) df."""
    if x <= 0.0:
        return 1.0
    return _gammainc_q(df / 2.0, x / 2.0)


def gumbel_p_value(y: float) -> float:
    """Upper-tail p-value of the centered max-statistic reference law.

    The reference CDF is G(y) = exp(-exp(-y/2) / sqrt(pi)); the p-value is
    1 - G(y), computed with expm1 so extreme statistics keep precision.
    """
    t = -y / 2.0
    if t > 700.0:
        return 1.0
    return -math.expm1(-math.exp(t) / math.sqrt(math.pi))


def gumbel_critical_value(gamma: float) -> float:
    """Level-gamma critical value: -log(pi) - 2 log log 1/(1-gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ContractError(f"level must lie in (0, 1), got {gamma}")
    return -math.log(math.pi) - 2.0 * math.log(math.log(1.0 / (1.0 - gamma)))


def csm_test(
    loc: SpatialLocation, moments: MomentEstimates, T: int, N: int
) -> TestResult:
    """Max-type spatial-sign test.

    The statistic is T * max_i (theta_i^2 / scale_i) * zeta_hat recentred
    by 2 log N - log log N and referred to the Gumbel-type law.
    """
    if N < 3:
        raise ContractError(f"max-type calibration needs N >= 3, got N={N}")
    if len(loc.theta) != N:
        raise ContractError("location estimate does not match N")
    standardized_sq = loc.theta**2 / loc.scale_diag
    stat = (
        T * float(np.max(standardized_sq)) * moments.zeta_hat
        - 2.0 * math.log(N)
        + math.log(math.log(N))
    )
    return TestResult("CSM", stat, gumbel_p_value(stat), REFERENCES["CSM"])


def trace_sigma_u_sq(gram_tilde, h) -> float:
    """Weighted estimate of tr(Sigma_u^2), the sign gram's second moment.

    Cross products of distinct sign vectors are squared and weighted by
    h_t1^2 h_t2^2, then normalized by h'h (h'h - 1). The sign vectors must
    come from the intercept-absorbing (uncentered-design) residuals, whose
    T x T gram (`FitResult.gram_tilde`) is the input.

    The sign gram is the residual gram scaled by the inverse row norms on
    both sides, which its diagonal supplies; a zero row gets weight 0. No
    sign matrix is formed.
    """
    G = np.asarray(gram_tilde, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ContractError(f"residual gram must be T x T, got shape {G.shape}")
    T = G.shape[0]
    if T < 2:
        raise ContractError(f"need at least 2 cross sections, got T={T}")
    hv = np.asarray(h, dtype=float)
    if hv.shape != (T,):
        raise ContractError("h must have one entry per cross section")
    hh = float(hv @ hv)
    _check_h_norm(hh)
    inv_norms = _inverse_norms(np.sqrt(np.diag(G)))
    W = G * inv_norms[:, None]
    W *= inv_norms
    np.multiply(W, W, out=W)
    np.fill_diagonal(W, 0.0)
    h2 = hv * hv
    return float(h2 @ W @ h2) / (hh * (hh - 1.0))


def projection_sign_bias(design: DesignMatrix) -> float:
    """First-order null expectation of the h-weighted cross-sign sum.

    Residual rows are projections of the underlying errors, so sign vectors
    at distinct times have expected inner product approximately
    M_t1t2 / sqrt(M_t1t1 M_t2t2), where M = I - Q_tilde Q_tilde' + h h'/h'h
    is the design's annihilator (see `DesignMatrix`). The h-weighted sum of
    those expectations over distinct pairs, divided by h'h, is a pure
    design constant (no data enters) and is subtracted from the sum-type
    numerator so the statistic is centered under the null.

    With d = diag(M) and g = h / sqrt(d), the all-pairs sum is
    g'Mg = g'g - ||Q_tilde'g||^2 + (h'g)^2 / h'h and its diagonal is h'h;
    no T x T matrix is formed.
    """
    d = _annihilator_diagonal(design)
    hv = design.h
    hh = float(hv @ hv)
    g = hv / np.sqrt(d)
    qg = design.Q_tilde.T @ g
    hg = float(hv @ g)
    return (float(g @ g) - float(qg @ qg) + hg * hg / hh - hh) / hh


def css_test(fit: FitResult, design: DesignMatrix) -> TestResult:
    """Sum-type spatial-sign test, one-sided against positive intercepts.

    The numerator aggregates the sign gram of the intercept-keeping
    residuals through the design's h; the denominator is the square root
    of the null variance of that cross-pair sum,
    2 tr(Sigma_u^2) (1 - sum h^4/(h'h)^2), with the trace estimated from
    the intercept-absorbing residuals. Two projection corrections derived
    from the same cross-time sign correlation C_ts = M_ts / sqrt(M_tt M_ss)
    apply: the numerator's null expectation (see projection_sign_bias) is
    subtracted, and the variance picks up the shared-index pair term
    2 tr(Sigma_u^2) * 2b, so the factor becomes
    (1 - sum h^4/(h'h)^2 + 2b). Both corrections vanish as the design's
    column share K/T goes to zero.

    P-value reference: the nonnegative quadratic aggregate (numerator + 1)
    is referred to a two-moment-matched scaled chi-square with
    nu = 1 / (trace * variance factor) degrees of freedom. This keeps the
    mean and variance of the standard normal limit but also carries the
    right-skew a weighted sum of squares has in finite samples, and it
    converges to the normal limit as nu grows. The reported statistic is
    the standardized form.
    """
    E = fit.residuals
    if design.n_obs != E.shape[0]:
        raise ContractError("design row count does not match residuals")
    hv = design.h
    trace = trace_sigma_u_sq(fit.gram_tilde, hv)
    if trace <= 0.0:
        raise DegenerateStatisticError(
            f"trace estimate must be positive, got {trace:g}"
        )
    hh = float(hv @ hv)
    # S'h with S the row signs of E: the h weights divided by the row norms
    Sh = E.T @ (hv * _inverse_norms(np.sqrt(np.einsum("tn,tn->t", E, E))))
    bias = projection_sign_bias(design)
    numerator = float(Sh @ Sh) / hh - 1.0 - bias
    var_factor = 1.0 - float(np.sum(hv**4)) / (hh * hh) + 2.0 * bias
    if var_factor <= 0.0:
        raise DegenerateStatisticError(
            f"variance factor must be positive, got {var_factor:g}"
        )
    stat = numerator / math.sqrt(2.0 * trace * var_factor)
    nu = 1.0 / (trace * var_factor)
    p = _chi2_sf(nu + stat * math.sqrt(2.0 * nu), nu)
    return TestResult("CSS", stat, p, REFERENCES["CSS"])


def hda_j_stat(residuals) -> float:
    """Average squared scaled residual sum, N^-1 sum_i (T^-1/2 sum_t e_it)^2."""
    E = np.asarray(residuals, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    T = E.shape[0]
    col_sums = E.sum(axis=0)
    return float(np.mean(col_sums**2)) / T


def hda_test(fit: FitResult, design: DesignMatrix) -> TestResult:
    """Sum-type least-squares test, studentized under cross-sectional
    Gaussian calibration.

    The mean uses omega_T / T times the average residual variance; the
    variance uses twice the squared Frobenius norm of the residual
    covariance estimate. Residual degrees of freedom are T - (1+p)L.

    That norm is ||E E'||^2 for the centered-design residuals E, taken from
    the fit's gram of the uncentered-design residuals E~. The twins' spans
    differ by h, so with c = E'h, E = E~ + h c'/h'h and h'E~ = 0, which
    splits ||E E'||^2 into ||E~ E~'||^2 + 2 ||E~ c||^2 / h'h + ||c||^4 / (h'h)^2:
    three non-negative terms, none formed as a T x T or N x N product here.
    """
    E = fit.residuals
    T, N = E.shape
    K = design.n_columns
    if T <= K + 1:
        raise ContractError(
            f"need T > (1+p)L + 1 = {K + 1} for residual degrees of freedom"
        )
    if design.n_obs != T:
        raise ContractError("design row count does not match residuals")
    dof = T - K
    j_stat = hda_j_stat(E)
    ratio = design.omega_T / T
    m_hat = ratio * float(np.vdot(E, E)) / (dof * N)
    hv = design.h
    hh = float(hv @ hv)
    c = hv @ E
    cc = float(c @ c)
    a = fit.residuals_tilde @ c
    fro_sq = float(np.vdot(fit.gram_tilde, fit.gram_tilde))
    fro_sq += 2.0 * float(a @ a) / hh + cc * cc / (hh * hh)
    v_hat = 2.0 * ratio**2 * fro_sq / (dof**2 * N**2)
    if v_hat <= 0.0:
        raise DegenerateStatisticError("variance estimate is non-positive")
    stat = (j_stat - m_hat) / math.sqrt(v_hat)
    return TestResult("HDA", stat, _norm_sf(stat), REFERENCES["HDA"])


def mnt_test(residuals, p_effective: int) -> TestResult:
    """Max-type least-squares test with per-asset variance studentization.

    Each asset contributes (sum_t e_it)^2 / (T sigma_ii) with sigma_ii =
    e_i'e_i / (T - p_effective - 1); the max is recentred by
    2 log N - log log N and referred to the Gumbel-type law.
    """
    E = np.asarray(residuals, dtype=float)
    if E.ndim != 2:
        raise ContractError(f"residuals must be T x N, got ndim={E.ndim}")
    T, N = E.shape
    if N < 3:
        raise ContractError(f"max-type calibration needs N >= 3, got N={N}")
    if p_effective < 0:
        raise ContractError("p_effective must be >= 0")
    if T <= p_effective + 1:
        raise ContractError(
            f"need T > p_effective + 1 = {p_effective + 1}, got T={T}"
        )
    dof = T - p_effective - 1
    sigma_diag = np.einsum("tn,tn->n", E, E) / dof
    if np.any(sigma_diag <= 0.0):
        bad = int(np.argmin(sigma_diag))
        raise DegenerateStatisticError(
            f"asset {bad} has zero residual variance"
        )
    col_sums = E.sum(axis=0)
    per_asset = col_sums**2 / (T * sigma_diag)
    stat = float(np.max(per_asset)) - 2.0 * math.log(N) + math.log(math.log(N))
    return TestResult("MNT", stat, gumbel_p_value(stat), REFERENCES["MNT"])


def cauchy_combine(p_values, truncated: bool) -> float:
    """Combine p-values through the tails of the Cauchy distribution.

    Each p maps to tan((0.5 - p) pi); the combined p-value is the upper
    Cauchy tail of the equally weighted average. In truncated mode the
    terms with p >= 0.5 are zeroed out, which keeps the combination
    one-sided and bounds it away from anti-conservative blowups.

    Inputs must lie in [0, 1]; the endpoints are nudged inside by 1e-15
    because p-values that underflow to exactly 0 or round to 1 are
    expected under strong signals.
    """
    ps = np.asarray(p_values, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise ContractError("p_values must be a non-empty vector")
    if np.any(~np.isfinite(ps)) or np.any(ps < 0.0) or np.any(ps > 1.0):
        raise ContractError(f"p-values must lie in [0, 1], got {ps}")
    ps = np.clip(ps, P_CLAMP, 1.0 - P_CLAMP)
    terms = np.tan((0.5 - ps) * math.pi)
    if truncated:
        terms = np.where(ps < 0.5, terms, 0.0)
    stat = float(np.mean(terms))
    return 0.5 - math.atan(stat) / math.pi


def _converged(loc: SpatialLocation, tol: float) -> SpatialLocation:
    """loc, if its iteration reached the tolerance; else ConvergenceError,
    so that no p-value comes from an unconverged estimate."""
    if not loc.converged:
        raise ConvergenceError(
            f"not converged after max_iter={loc.iterations} rounds: "
            f"estimating-equation residual {loc.eq_residual:.3g} > tol {tol:g}"
        )
    return loc


@one_blas_thread()
def run_all_tests(
    panel,
    factors,
    knots: int | str = "auto",
    order: int = 3,
    tol: float = 1e-8,
    max_iter: int = 200,
    *,
    _chosen: _Choice | None = None,
) -> list[TestResult]:
    """Run the full battery on one panel and return all six results.

    The sieve fit happens once, the spatial location/scale iteration runs
    once on the centered-design residuals, and every statistic reuses
    those shared pieces. knots is either a fixed non-negative interior-knot
    count or "auto" for information-criterion selection over the default
    candidates; anything else raises ContractError. With "auto" the knot
    search builds the chosen count's design with `build_design`, so the
    design, the fit and every result equal those at that count. MNT's
    residual dof uses the factor count p. A spatial median that has not
    converged within max_iter rounds raises ConvergenceError. Errors from
    any stage are re-raised with the stage name prefixed. OpenBLAS runs
    at one thread for the call (see `alphasign.blas`).

    The panel is scanned for non-finite values once, here. On a large
    panel the kept helper thread (`pool._both`) scores half of the knot
    candidates and forms the fit's T x T gram while this thread runs the
    spatial median; every result and every error is the same as in one
    thread.

    `_chosen` is private to `rolling_windows`: with knots "auto", this
    panel's `basis._Choice` from a knot search run on a stack of windows,
    which then stands in for the search here.
    """
    Y, F = _panel_and_factors(panel, factors)
    knots = _check_knots(knots)
    T, N = Y.shape
    p = F.shape[1]

    def _stage(name, fn):
        try:
            return fn()
        except AlphaSignError as exc:
            raise type(exc)(f"{name}: {exc}") from exc

    if knots == "auto" and _chosen is not None:
        design = _stage("knot-selection", _chosen.design)
    elif knots == "auto":
        # as a stack of one the panel is not scanned again
        candidates = default_knot_candidates(T)
        design = _stage(
            "knot-selection",
            lambda: _choose_designs(Y[None], F[None], candidates, order)[0].design(),
        )
    else:
        design = _stage("design", lambda: build_design(F, SplineConfig(knots, order)))
    residuals, residuals_tilde = _stage("fit", lambda: _fit_residuals(Y, design))
    # the spatial median reads the residuals alone, so the gram, which HDA
    # and CSS read, is formed beside it; this thread allocates it, so that
    # it comes from the heap the battery's other arrays use, not from the
    # helper thread's malloc arena
    gram = np.empty((T, T))
    _, loc = _both(
        lambda: np.matmul(residuals_tilde, residuals_tilde.T, out=gram),
        lambda: _stage(
            "spatial-median",
            lambda: _converged(spatial_median_scale(residuals, tol=tol, max_iter=max_iter), tol),
        ),
        Y.size,
    )
    fit = FitResult(residuals, residuals_tilde, gram)
    moments = _stage(
        "moments", lambda: moment_estimates(loc, design.omega_T)
    )
    hda = _stage("HDA", lambda: hda_test(fit, design))
    mnt = _stage("MNT", lambda: mnt_test(fit.residuals, p))
    csm = _stage("CSM", lambda: csm_test(loc, moments, T, N))
    css = _stage("CSS", lambda: css_test(fit, design))
    ada = TestResult(
        "Ada",
        None,
        cauchy_combine([hda.p_value, mnt.p_value], truncated=False),
        REFERENCES["Ada"],
    )
    cc = TestResult(
        "CC",
        None,
        cauchy_combine([css.p_value, csm.p_value], truncated=True),
        REFERENCES["CC"],
    )
    return [hda, mnt, ada, css, csm, cc]
