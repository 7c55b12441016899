"""End-to-end acceptance checks at desk scale.

Each test prints one PASS/FAIL line with the measured quantities so a
plain `pytest -v` run doubles as the acceptance record. The simulation
cells use one fixed seed chosen before the final run; rates at 300-500
replications carry binomial noise of roughly +-0.02, which the bands
account for.

Criterion 3 (sparse power ordering) compares CSM with MNT on the grid-mean
power: the equal-weight average of each rejection rate over the ten grid
points c = 2, 4, ..., 20, i.e. the area under the power curve by the
rectangle rule. A single large c is no test of the ordering because both
rates saturate there (1 - MNT leaves less headroom than the margin). The
CC clause holds at every grid point.

Criterion 5 (sum/max dependence under the null) checks the finite-N
content of asymptotic independence rather than the limit itself. T_CSS and
T_CSM converge to the sum S = sum_i W_i^2 and the maximum M = max_i W_i^2
of one Gaussian vector W ~ N(0, rho^|i-j|) with the error law's rho. That
pair is dependent at every finite N and decouples only slowly, so its
correlation and joint tail at the cell's N are the oracle: ORACLE_DRAWS
numpy draws of (S, M) at the same N and covariance. Two null cells are
measured, the shared N=200 cell (500 replications) and an N=800 cell
(N800_REPS replications, same example, errors, T and seed, knots resolved
once). At each N the measured correlation must lie within 3 standard
errors of the oracle's (two-sided) and the joint 5% rejection must not
exceed the oracle's joint tail, taken at the measured marginal rejection
rates, by more than 3 standard errors (criterion 1 bands the marginal
sizes; matching them here leaves only the dependence to compare). The
correlation must also fall
from N=200 to N=800 by more than 2 combined standard errors. Standard
errors, fixed before the run:

- correlation r of n pairs, with x, y standardized and m_ab = mean(x^a y^b):
  se(r)^2 = [(1 + r^2/2) m_22 + (r^2/4)(m_40 + m_04) - r (m_31 + m_13)] / n,
  the large-sample variance of a sample correlation without a normality
  assumption (it reduces to (1 - r^2)^2 / n for Gaussian pairs); the
  band for measured vs oracle combines both: sqrt(se^2 + se_oracle^2).
- joint rejection, with q the oracle joint tail, reps replications and
  ORACLE_DRAWS draws: se^2 = q (1 - q) (1/reps + 1/ORACLE_DRAWS).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from alphasign.basis import SplineConfig, _basis_matrix, build_design, fit_panel, make_knots
from alphasign.dgp import ERROR_AR_RHO, AlphaSpec, ErrorScenario, simulate_panel
from alphasign.harness import (
    ExperimentConfig,
    resolve_knots,
    rolling_windows,
    run_experiment,
    run_replication_results,
)
from alphasign.spatial import spatial_median_scale
from alphasign.stat_tests import cauchy_combine, gumbel_critical_value, gumbel_p_value

from conftest import design_pair

ACCEPT_SEED = 20260816
GAMMA = 0.05
ORACLE_DRAWS = 4000
N800_REPS = 300


def _record(criterion: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _null_cell_normal(N: int, reps: int):
    """Example 1, normal errors, T=350, knots resolved once for the cell.

    Returns the full per-replication result lists (statistics and
    p-values) plus the wall time.
    """
    config = ExperimentConfig(
        example=1,
        scenario=ErrorScenario("normal"),
        N=N,
        T=350,
        reps=reps,
        seed=ACCEPT_SEED,
    )
    config = replace(config, knots=resolve_knots(config))
    start = time.perf_counter()
    results = [run_replication_results(config, i) for i in range(config.reps)]
    wall = time.perf_counter() - start
    return results, wall


@pytest.fixture(scope="module")
def null_cell_normal():
    """N=200, 500 replications, shared by the size and the
    sum/max-dependence criteria."""
    return _null_cell_normal(200, 500)


@pytest.fixture(scope="module")
def null_cell_normal_n800():
    """N=800, N800_REPS replications: the decay point of criterion 5."""
    return _null_cell_normal(800, N800_REPS)


@pytest.fixture(scope="module")
def null_cell_t3():
    config = ExperimentConfig(
        example=1,
        scenario=ErrorScenario("t"),
        N=200,
        T=350,
        reps=500,
        seed=ACCEPT_SEED,
    )
    return run_experiment(config, workers=1)


@pytest.fixture(scope="module")
def power_curve_t3():
    """CC/CSS/CSM/MNT rejection rates along the signal-strength grid."""
    rates = {}
    for c in range(2, 21, 2):
        config = ExperimentConfig(
            example=1,
            scenario=ErrorScenario("t"),
            N=400,
            T=350,
            reps=300,
            seed=ACCEPT_SEED,
            alpha_spec=AlphaSpec(sparsity=2, strength=float(c)),
        )
        rates[c] = run_experiment(config, workers=1).rejection_rates
    return rates


def _rates(results, names):
    out = {}
    for name in names:
        ps = np.array([
            next(r.p_value for r in rep if r.name == name) for rep in results
        ])
        out[name] = float(np.mean(ps < GAMMA))
    return out


def test_criterion_1_size_with_light_tails(null_cell_normal):
    results, wall = null_cell_normal
    r = _rates(results, ("CSS", "CSM", "CC"))
    ok = (
        0.030 <= r["CSS"] <= 0.070
        and 0.035 <= r["CSM"] <= 0.090
        and 0.035 <= r["CC"] <= 0.090
        and wall <= 20 * 60
    )
    assert _record(
        "criterion 1 (size, normal errors)",
        ok,
        f"CSS={r['CSS']:.3f} in [.030,.070], CSM={r['CSM']:.3f} in [.035,.090], "
        f"CC={r['CC']:.3f} in [.035,.090], wall={wall:.0f}s <= 1200s",
    )


def test_criterion_2_size_with_heavy_tails(null_cell_t3):
    r = null_cell_t3.rejection_rates
    ok = (
        0.030 <= r["CSS"] <= 0.070
        and 0.035 <= r["CSM"] <= 0.090
        and 0.035 <= r["CC"] <= 0.090
        and r["HDA"] <= 0.035
        and r["MNT"] <= 0.035
    )
    assert _record(
        "criterion 2 (size, t(3) errors)",
        ok,
        f"CSS={r['CSS']:.3f}, CSM={r['CSM']:.3f}, CC={r['CC']:.3f} in sign bands; "
        f"HDA={r['HDA']:.3f} <= .035, MNT={r['MNT']:.3f} <= .035",
    )


def test_criterion_3_sparse_power_ordering(power_curve_t3):
    grid = sorted(power_curve_t3)
    curve = {
        name: np.array([power_curve_t3[c][name] for c in grid])
        for name in ("CSS", "CSM", "MNT", "CC")
    }
    margin_max = float(curve["CSM"].mean() - curve["MNT"].mean())
    margin_cc = curve["CC"] - np.maximum(curve["CSS"], curve["CSM"])
    worst = int(np.argmin(margin_cc))
    ok = margin_max >= 0.05 and margin_cc[worst] >= -0.05

    def fmt(v):
        return ",".join(f"{x:.3f}" for x in v)

    assert _record(
        f"criterion 3 (power ordering, grid-mean over c={grid[0]}..{grid[-1]})",
        ok,
        f"grid-mean CSM={curve['CSM'].mean():.3f} vs MNT={curve['MNT'].mean():.3f} "
        f"(margin {margin_max:+.3f}, need >= +0.05); "
        f"min over c of CC-max(CSS,CSM)={margin_cc[worst]:+.3f} at c={grid[worst]} "
        f"(need >= -0.05 at every c); c={grid[-1]} headroom 1-MNT="
        f"{1.0 - curve['MNT'][-1]:.3f}; curves CSM={fmt(curve['CSM'])}, "
        f"MNT={fmt(curve['MNT'])}, CSS={fmt(curve['CSS'])}, CC={fmt(curve['CC'])}",
    )


def test_criterion_4_power_monotonicity(power_curve_t3):
    grid = sorted(power_curve_t3)
    cc = [power_curve_t3[c]["CC"] for c in grid]
    rho = float(scipy.stats.spearmanr(grid, cc).statistic)
    ok = rho > 0.9
    assert _record(
        "criterion 4 (CC power monotone in c)",
        ok,
        f"spearman rho={rho:.3f} > 0.9; CC curve="
        + ",".join(f"{v:.3f}" for v in cc),
    )


def _sum_max_oracle(N: int) -> tuple[np.ndarray, np.ndarray]:
    """ORACLE_DRAWS draws of (sum_i W_i^2, max_i W_i^2), W ~ N(0, rho^|i-j|)."""
    idx = np.arange(N)
    chol = np.linalg.cholesky(ERROR_AR_RHO ** np.abs(idx[:, None] - idx[None, :]))
    W = np.random.default_rng(ACCEPT_SEED).standard_normal((ORACLE_DRAWS, N)) @ chol.T
    sq = W * W
    return sq.sum(axis=1), sq.max(axis=1)


def _corr_with_se(x, y) -> tuple[float, float]:
    """Sample correlation and its moment-formula standard error (module doc)."""
    x = (x - x.mean()) / x.std()
    y = (y - y.mean()) / y.std()
    r = float(np.mean(x * y))
    m22 = np.mean(x * x * y * y)
    var = (
        (1.0 + r * r / 2.0) * m22
        + (r * r / 4.0) * (np.mean(x**4) + np.mean(y**4))
        - r * (np.mean(x**3 * y) + np.mean(x * y**3))
    ) / len(x)
    return r, float(np.sqrt(var))


def _dependence_vs_oracle(results, N: int) -> tuple[bool, float, float, str]:
    """Compare one null cell's CSS/CSM dependence with the oracle at its N.

    Returns (within bands, measured corr, its standard error, detail).
    """
    def column(name, attr):
        return np.array([
            getattr(next(r for r in rep if r.name == name), attr) for rep in results
        ])

    reps = len(results)
    reject_css = column("CSS", "p_value") < GAMMA
    reject_csm = column("CSM", "p_value") < GAMMA
    corr, se = _corr_with_se(column("CSS", "statistic"), column("CSM", "statistic"))
    joint = float(np.mean(reject_css & reject_csm))

    S, M = _sum_max_oracle(N)
    corr_o, se_o = _corr_with_se(S, M)
    joint_o = float(np.mean(
        (S > np.quantile(S, 1.0 - reject_css.mean()))
        & (M > np.quantile(M, 1.0 - reject_csm.mean()))
    ))
    corr_band = 3.0 * math.hypot(se, se_o)
    joint_band = 3.0 * math.sqrt(joint_o * (1.0 - joint_o) * (1.0 / reps + 1.0 / ORACLE_DRAWS))
    ok = abs(corr - corr_o) <= corr_band and joint <= joint_o + joint_band
    detail = (
        f"N={N}, {reps} reps: corr={corr:.3f} vs oracle {corr_o:.3f} +- {corr_band:.3f} "
        f"(3 se); joint={joint:.4f} <= oracle {joint_o:.4f} + {joint_band:.4f} (3 se)"
    )
    return ok, corr, se, detail


def test_criterion_5_sum_max_dependence(null_cell_normal, null_cell_normal_n800):
    ok_200, corr_200, se_200, detail_200 = _dependence_vs_oracle(null_cell_normal[0], 200)
    ok_800, corr_800, se_800, detail_800 = _dependence_vs_oracle(
        null_cell_normal_n800[0], 800
    )
    decay = corr_200 - corr_800
    decay_band = 2.0 * math.hypot(se_200, se_800)
    ok = ok_200 and ok_800 and decay > decay_band
    assert _record(
        "criterion 5 (sum/max dependence under the null vs the Gaussian "
        f"sum/max oracle, {ORACLE_DRAWS} draws)",
        ok,
        f"{detail_200}; {detail_800}; decay corr(200)-corr(800)={decay:+.3f} "
        f"> {decay_band:.3f} (2 se)",
    )


def test_criterion_6_analytic_oracles():
    worst_gumbel = max(
        abs(gumbel_p_value(gumbel_critical_value(g)) - g) for g in (0.01, 0.05, 0.10)
    )
    worst_cauchy = max(
        abs(cauchy_combine([p, p], truncated=truncated) - p)
        for p in (0.001, 0.05, 0.3)
        for truncated in (False, True)
    )
    ok = worst_gumbel <= 1e-10 and worst_cauchy <= 1e-12
    assert _record(
        "criterion 6 (reference-law oracles)",
        ok,
        f"max |p(q_gamma)-gamma|={worst_gumbel:.2e} <= 1e-10; "
        f"max |combine(p,p)-p|={worst_cauchy:.2e} <= 1e-12",
    )


def test_criterion_7_estimator_oracles():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_fit = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 3))
        n = int(rng.integers(0, 2))
        order = int(rng.integers(2, 4))
        K = (1 + p) * (n + order)
        if K + 1 > 20:
            n, order = 0, 2
            K = (1 + p) * 2
        T = int(rng.integers(K + 1, 21))
        N = int(rng.integers(1, 6))
        design = build_design(rng.standard_normal((T, p)), SplineConfig(n, order))
        Y = rng.standard_normal((T, N))
        fit = fit_panel(Y, design)
        Z_c, Z_u = design_pair(design)
        for Z, resid in ((Z_c, fit.residuals), (Z_u, fit.residuals_tilde)):
            coef = np.linalg.pinv(Z.T @ Z) @ (Z.T @ Y)
            worst_fit = max(worst_fit, float(np.max(np.abs(Y - Z @ coef - resid))))

    worst_median = 0.0
    for _ in range(50):
        T = int(rng.integers(2, 26)) * 2 + 1
        x = rng.standard_normal(T) * rng.uniform(0.5, 3.0) + rng.uniform(-5.0, 5.0)
        loc = spatial_median_scale(x[:, None])
        med = float(np.median(x))
        worst_median = max(
            worst_median, abs(float(loc.theta[0]) - med) / (1.0 + abs(med))
        )

    worst_eq = 0.0
    for seed in range(3):
        sim = simulate_panel(
            1, ErrorScenario("normal"), AlphaSpec(), 20, 120,
            np.random.default_rng(ACCEPT_SEED + seed),
        )
        design = build_design(sim.factors, SplineConfig(2, 3))
        fit = fit_panel(sim.panel, design)
        loc = spatial_median_scale(fit.residuals)
        assert loc.converged
        X = (fit.residuals - loc.theta) / np.sqrt(loc.scale_diag)
        norms = np.linalg.norm(X, axis=1)
        U = X / norms[:, None]
        N = fit.residuals.shape[1]
        worst_eq = max(
            worst_eq,
            float(np.linalg.norm(U.mean(axis=0))),
            float(N * np.max(np.abs((U * U).mean(axis=0) - 1.0 / N))),
        )

    ok = worst_fit <= 1e-8 and worst_median <= 1e-8 and worst_eq <= 1e-8
    assert _record(
        "criterion 7 (estimator oracles)",
        ok,
        f"fit vs normal equations max err={worst_fit:.2e} <= 1e-8 (50 cases); "
        f"univariate location vs sorted median rel err={worst_median:.2e} <= 1e-8 (50 cases); "
        f"estimating equations at convergence={worst_eq:.2e} <= 1e-8",
    )


def test_criterion_8_spline_oracles():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_unity = 0.0
    for n, order in ((0, 3), (2, 3), (5, 2), (8, 4), (3, 1)):
        values = _basis_matrix(make_knots(n, order), order, rng.random(1000))
        worst_unity = max(worst_unity, float(np.max(np.abs(values.sum(axis=1) - 1.0))))
    u = np.linspace(0.0, 1.0, 101)
    bern = np.column_stack([(1 - u) ** 2, 2 * u * (1 - u), u**2])
    worst_bernstein = float(np.max(np.abs(_basis_matrix(make_knots(0, 3), 3, u) - bern)))
    ok = worst_unity <= 1e-12 and worst_bernstein <= 1e-12
    assert _record(
        "criterion 8 (spline oracles)",
        ok,
        f"partition of unity max err={worst_unity:.2e} <= 1e-12 (5 configs x 1000 points); "
        f"quadratic Bernstein max err={worst_bernstein:.2e} <= 1e-12",
    )


def test_criterion_9_rolling_window_counts():
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 8, 399,
        np.random.default_rng(ACCEPT_SEED),
    )
    counts = {}
    for window in (276, 288, 300):
        rolling = rolling_windows(sim.panel, sim.factors, window=window, knots=1)
        counts[window] = len(rolling.window_starts)
        assert rolling.p_values.shape[0] == counts[window]
    ok = counts == {276: 124, 288: 112, 300: 100}
    assert _record(
        "criterion 9 (rolling window counts)",
        ok,
        f"T=399 -> counts {counts[276]}/{counts[288]}/{counts[300]}, expected 124/112/100",
    )
