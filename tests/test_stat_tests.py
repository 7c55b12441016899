"""The six test statistics, their reference laws, and the combination rule."""

import csv
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import orth

from alphasign import cli, panels
from alphasign.basis import FitResult, SplineConfig, build_design, fit_panel, select_knots_bic
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign import harness
from alphasign.errors import (
    NUMERICAL_ERRORS,
    ContractError,
    ConvergenceError,
    DegenerateScaleError,
    DegenerateStatisticError,
)
from alphasign.spatial import MomentEstimates, SpatialLocation
from alphasign.stat_tests import (
    REFERENCES,
    TEST_NAMES,
    TestResult,
    _chi2_sf,
    _gammainc_q,
    _norm_sf,
    cauchy_combine,
    csm_test,
    css_test,
    gumbel_critical_value,
    gumbel_p_value,
    hda_j_stat,
    hda_test,
    mnt_test,
    projection_sign_bias,
    run_all_tests,
    trace_sigma_u_sq,
)

from conftest import design_pair

GUMBEL_LOC = -math.log(math.pi)  # reference law exp(-exp(-y/2)/sqrt(pi))


def test_gumbel_reference_matches_scipy_parametrization():
    for y in np.linspace(-6.0, 30.0, 25):
        ref = scipy.stats.gumbel_r.sf(y, loc=GUMBEL_LOC, scale=2.0)
        assert abs(gumbel_p_value(float(y)) - ref) <= 1e-14


def test_gumbel_critical_values():
    assert gumbel_critical_value(0.05) == pytest.approx(4.795660612234931, abs=1e-9)
    assert gumbel_critical_value(0.01) == pytest.approx(8.055568567703746, abs=1e-9)
    assert gumbel_critical_value(0.10) == pytest.approx(3.356004768775490, abs=1e-9)
    for gamma in (0.01, 0.05, 0.10):
        ref = scipy.stats.gumbel_r.ppf(1.0 - gamma, loc=GUMBEL_LOC, scale=2.0)
        assert gumbel_critical_value(gamma) == pytest.approx(ref, abs=1e-10)
    with pytest.raises(ContractError):
        gumbel_critical_value(0.0)
    with pytest.raises(ContractError):
        gumbel_critical_value(1.0)


def test_gumbel_p_value_extremes_and_monotonicity():
    assert gumbel_p_value(-2000.0) == 1.0
    tiny = gumbel_p_value(200.0)
    assert 0.0 < tiny < 1e-40
    grid = np.linspace(-20.0, 40.0, 61)
    ps = [gumbel_p_value(float(y)) for y in grid]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("p", [0.001, 0.05, 0.3])
@pytest.mark.parametrize("truncated", [False, True])
def test_cauchy_combination_fixed_points(p, truncated):
    assert abs(cauchy_combine([p, p], truncated=truncated) - p) <= 1e-12


def test_cauchy_combination_hand_values():
    # truncation zeroes both terms at p = 0.5
    assert cauchy_combine([0.5, 0.5], truncated=True) == pytest.approx(0.5, abs=1e-12)
    # untruncated symmetric pair cancels exactly
    assert cauchy_combine([0.01, 0.99], truncated=False) == pytest.approx(0.5, abs=1e-12)
    # truncation discards the uninformative half
    trunc = cauchy_combine([0.01, 0.99], truncated=True)
    assert trunc < 0.5


@given(p=st.floats(min_value=0.01, max_value=0.49, allow_nan=False))
def test_cauchy_combination_symmetric_pairs_cancel(p):
    q = 1.0 - p
    assert cauchy_combine([p, q], truncated=False) == pytest.approx(0.5, abs=1e-9)


def test_cauchy_combination_validation_and_clamping():
    with pytest.raises(ContractError):
        cauchy_combine([], truncated=False)
    with pytest.raises(ContractError):
        cauchy_combine([0.2, 1.2], truncated=False)
    with pytest.raises(ContractError):
        cauchy_combine([0.2, float("nan")], truncated=False)
    combined = cauchy_combine([0.0, 0.0], truncated=False)
    assert 0.0 < combined < 1e-12  # endpoints are clamped, not fatal


def test_trace_hand_cases():
    # identical unit sign vectors: every cross product is one
    pair = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert trace_sigma_u_sq(pair @ pair.T, np.ones(2)) == pytest.approx(1.0, abs=1e-14)
    s22 = math.sqrt(2.0) / 2.0
    rows = np.array([[1.0, 0.0], [s22, s22], [-s22, s22]])
    assert trace_sigma_u_sq(rows @ rows.T, np.ones(3)) == pytest.approx(1.0 / 3.0, abs=1e-14)
    # mutually orthogonal sign vectors: no cross signal at all
    rows = np.eye(3)
    assert trace_sigma_u_sq(rows @ rows.T, np.ones(3)) == pytest.approx(0.0, abs=1e-14)


def test_trace_guards():
    rows = np.eye(2)
    with pytest.raises(DegenerateStatisticError, match="h'h > 1"):
        trace_sigma_u_sq(rows @ rows.T, np.array([1.0, 0.0]))
    rows = np.eye(3)
    with pytest.raises(ContractError):
        trace_sigma_u_sq(rows @ rows.T, np.ones(2))
    rows = np.ones((1, 2))
    with pytest.raises(ContractError):
        trace_sigma_u_sq(rows @ rows.T, np.ones(1))


def test_css_orthogonal_signs_have_no_normalizer():
    # intercept-only designs with no interior knots: the centered block is
    # orthogonal to the constant, so h = 1; orthogonal signs have no cross
    # products, so the trace is exactly 0 whatever h's rounding
    signs = np.eye(10)[:8]
    for order in (2, 3):
        design = build_design(np.empty((8, 0)), SplineConfig(0, order))
        assert np.allclose(design.h, 1.0, rtol=0.0, atol=1e-12)
        with pytest.raises(DegenerateStatisticError, match="trace estimate must be positive"):
            css_test(FitResult(signs, signs), design)


def test_css_input_guards(small_sim, small_design, small_fit):
    E, E_tilde = small_fit.residuals, small_fit.residuals_tilde
    with pytest.raises(ContractError):
        css_test(FitResult(E[:, 0], E_tilde), small_design)
    other = build_design(small_sim.factors[:100], SplineConfig(2, 3))
    with pytest.raises(ContractError, match="design row count"):
        css_test(FitResult(E, E_tilde), other)
    with pytest.raises(ContractError):
        css_test(FitResult(E, E_tilde[:100]), small_design)


def test_css_and_trace_match_the_sign_matrix_form(small_design, small_fit, row_signs):
    # both are computed without the sign matrix; pin them to it, with two
    # zero rows whose signs are the zero vector
    E, E_tilde = small_fit.residuals.copy(), small_fit.residuals_tilde.copy()
    E[[3, 50]] = 0.0
    E_tilde[[3, 50]] = 0.0
    h = small_design.h
    hh = float(h @ h)
    h2 = h * h
    W = (row_signs(E_tilde) @ row_signs(E_tilde).T) ** 2
    np.fill_diagonal(W, 0.0)
    trace = float(h2 @ W @ h2) / (hh * (hh - 1.0))
    assert trace_sigma_u_sq(E_tilde @ E_tilde.T, h) == pytest.approx(trace, rel=1e-12, abs=0.0)

    Sh = row_signs(E).T @ h
    bias = projection_sign_bias(small_design)
    numerator = float(Sh @ Sh) / hh - 1.0 - bias
    var_factor = 1.0 - float(np.sum(h**4)) / (hh * hh) + 2.0 * bias
    stat = numerator / math.sqrt(2.0 * trace * var_factor)
    assert css_test(FitResult(E, E_tilde), small_design).statistic == pytest.approx(stat, rel=1e-12, abs=0.0)


def test_css_design_corrections_match_manual_recomputation(small_sim, small_design, small_fit):
    design, fit = small_design, small_fit
    # independent annihilator from an orthonormal basis of the design span
    Q = orth(design_pair(design)[0])
    T = design.n_obs
    M = np.eye(T) - Q @ Q.T
    d = np.diag(M).copy()
    R = M / np.sqrt(np.outer(d, d))
    np.fill_diagonal(R, 0.0)
    h = design.h
    hh = float(h @ h)
    bias = float(h @ (R @ h)) / hh
    assert projection_sign_bias(design) == pytest.approx(bias, abs=1e-10)
    ones = np.ones(T)
    assert np.max(np.abs((ones - Q @ (Q.T @ ones)) - h)) <= 1e-10

    E = fit.residuals
    signs = E / np.linalg.norm(E, axis=1)[:, None]
    numerator = float((signs.T @ h) @ (signs.T @ h)) / hh - 1.0 - bias
    trace = trace_sigma_u_sq(fit.residuals_tilde @ fit.residuals_tilde.T, h)
    var_factor = 1.0 - float(np.sum(h**4)) / (hh * hh) + 2.0 * bias
    stat = numerator / math.sqrt(2.0 * trace * var_factor)
    nu = 1.0 / (trace * var_factor)
    p = scipy.stats.chi2.sf(nu + stat * math.sqrt(2.0 * nu), df=nu)

    result = css_test(FitResult(E, fit.residuals_tilde), design)
    assert result.name == "CSS"
    assert result.reference == REFERENCES["CSS"] == "scaled-chi-square"
    assert result.statistic == pytest.approx(stat, abs=1e-9)
    assert result.p_value == pytest.approx(float(p), abs=1e-10)


def test_css_bias_rejects_unit_leverage():
    # a unit-spike factor puts all of time 5 into the design span
    T = 40
    spike = np.zeros((T, 1))
    spike[4, 0] = 1.0
    design = build_design(spike, SplineConfig(0, 1))
    with pytest.raises(DegenerateStatisticError, match="leverage is 1 at time 5"):
        projection_sign_bias(design)
    Y = np.random.default_rng(5).standard_normal((T, 6))
    with pytest.raises(DegenerateStatisticError, match="^CSS: .*leverage is 1 at time 5"):
        run_all_tests(Y, spike, knots=0, order=1)


def test_hda_j_stat_values():
    assert hda_j_stat(np.ones(4)) == pytest.approx(4.0, abs=1e-14)
    assert hda_j_stat(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-14)


def test_hda_test_contract(small_design, small_fit):
    result = hda_test(FitResult(small_fit.residuals, small_fit.residuals_tilde), small_design)
    assert result.name == "HDA"
    assert result.p_value == pytest.approx(
        float(scipy.stats.norm.sf(result.statistic)), abs=1e-13
    )
    short = small_fit.residuals[: small_design.n_columns + 1]
    short_tilde = small_fit.residuals_tilde[: small_design.n_columns + 1]
    with pytest.raises(ContractError):
        hda_test(FitResult(short, short_tilde), small_design)


def _reference_hda_statistic(E, design):
    # the statistic as first written: column sums of squares for the mean
    # and the Frobenius norm of E'E for the variance
    T, N = E.shape
    dof = T - design.n_columns
    ratio = design.omega_T / T
    j_stat = float(np.mean(E.sum(axis=0) ** 2)) / T
    m_hat = ratio * float(np.mean((E * E).sum(axis=0) / dof))
    G = E.T @ E
    v_hat = 2.0 * ratio**2 * float(np.sum(G * G)) / dof**2 / N**2
    return (j_stat - m_hat) / math.sqrt(v_hat)


def _near_exact_fit_panel():
    # the panel of test_knot_score.test_bic_score_near_exact_fit_matches_reference
    rng = np.random.default_rng(77)
    factors = rng.standard_normal((120, 2))
    Z_tilde = design_pair(build_design(factors, SplineConfig(3, 3)))[1]
    Y = Z_tilde @ rng.standard_normal((Z_tilde.shape[1], 15))
    Y += 1e-9 * rng.standard_normal(Y.shape)
    return Y, factors


def _sim_panel(N, T, alpha):
    sim = simulate_panel(1, ErrorScenario("t"), alpha, N, T, np.random.default_rng(N + T))
    return sim.panel, sim.factors


@pytest.mark.parametrize(
    "panel, knots",
    [
        (lambda: _sim_panel(60, 40, AlphaSpec()), 2),  # T < N
        (lambda: _sim_panel(25, 140, AlphaSpec()), 2),  # T > N
        (_near_exact_fit_panel, 3),
        (lambda: _sim_panel(30, 120, AlphaSpec(sparsity=30, strength=40.0)), 2),
    ],
    ids=["T<N", "T>N", "near-exact-fit", "strong-alpha"],
)
def test_hda_matches_the_direct_frobenius_form(panel, knots):
    Y, factors = panel()
    design = build_design(factors, SplineConfig(knots, 3))
    fit = fit_panel(Y, design)
    ref = _reference_hda_statistic(fit.residuals, design)
    assert hda_test(fit, design).statistic == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_fit_owns_one_read_only_gram(small_fit):
    E_tilde = small_fit.residuals_tilde
    assert np.array_equal(small_fit.gram_tilde, E_tilde @ E_tilde.T)
    for arr in (small_fit.residuals, E_tilde, small_fit.gram_tilde):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        small_fit.gram_tilde[0, 0] = 0.0
    # a gram formed elsewhere (the battery forms one beside the spatial
    # median) is kept, read-only, if it is T x T
    given = FitResult(small_fit.residuals, E_tilde, E_tilde @ E_tilde.T)
    assert np.array_equal(given.gram_tilde, small_fit.gram_tilde)
    assert not given.gram_tilde.flags.writeable
    with pytest.raises(ContractError, match="residual gram must be T x T"):
        FitResult(small_fit.residuals, E_tilde, E_tilde.T @ E_tilde)


def test_mnt_statistic_hand_case():
    # column of ones saturates the max at T - 1 = 3; the others stay small
    E = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, 0.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 0.5],
        ]
    )
    result = mnt_test(E, 0)
    expected = 3.0 - 2.0 * math.log(3.0) + math.log(math.log(3.0))
    assert result.statistic == pytest.approx(expected, abs=1e-12)
    assert result.statistic == pytest.approx(0.8968232502804795, abs=1e-9)
    assert result.p_value == pytest.approx(gumbel_p_value(result.statistic), abs=1e-15)


def test_mnt_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError):
        mnt_test(rng.standard_normal((10, 2)), 0)  # needs N >= 3
    with pytest.raises(ContractError):
        mnt_test(rng.standard_normal((3, 4)), 2)  # needs T > p_effective + 1
    E = rng.standard_normal((10, 3))
    E[:, 1] = 0.0
    with pytest.raises(DegenerateStatisticError):
        mnt_test(E, 0)


def test_csm_zero_location_hand_case():
    N = 200
    loc = SpatialLocation(np.zeros(N), np.ones(N), 3, True, 0.0, np.ones(350))
    moments = MomentEstimates(1.0, 1.0, 1.0, 5.0)
    result = csm_test(loc, moments, T=350, N=N)
    assert result.statistic == pytest.approx(-8.929245440954613, abs=1e-9)
    assert result.p_value > 0.99
    with pytest.raises(ContractError):
        csm_test(loc, moments, T=350, N=2)
    with pytest.raises(ContractError):
        csm_test(loc, moments, T=350, N=100)


def test_csm_statistic_formula():
    rng = np.random.default_rng(7)
    N, T = 30, 120
    theta = rng.standard_normal(N) * 0.1
    scale = rng.uniform(0.5, 2.0, N)
    loc = SpatialLocation(theta, scale, 9, True, 0.0, np.ones(T))
    moments = MomentEstimates(1.2, 1.05, 0.97, 22.0)
    result = csm_test(loc, moments, T=T, N=N)
    expected = (
        T * float(np.max(theta**2 / scale)) * 22.0
        - 2.0 * math.log(N)
        + math.log(math.log(N))
    )
    assert result.statistic == pytest.approx(expected, rel=1e-12)


def test_normal_tail_matches_scipy():
    for x in np.linspace(-8.0, 8.0, 33):
        assert abs(_norm_sf(float(x)) - float(scipy.stats.norm.sf(x))) <= 1e-14


@given(
    a=st.floats(min_value=0.01, max_value=200.0, allow_nan=False),
    x=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
def test_upper_incomplete_gamma_matches_scipy(a, x):
    ours = _gammainc_q(a, x)
    ref = float(scipy.special.gammaincc(a, x))
    if ref > 1e-280:
        assert abs(ours - ref) <= 1e-9 * max(ref, 1e-12)
    else:
        assert ours <= 1e-250


def test_incomplete_gamma_edges():
    assert _gammainc_q(3.0, 0.0) == 1.0
    with pytest.raises(ContractError):
        _gammainc_q(0.0, 1.0)
    with pytest.raises(ContractError):
        _gammainc_q(1.0, -1.0)
    # fractional degrees of freedom against scipy
    for x, df in ((150.0, 137.3), (5.0, 2.0), (0.5, 10.7), (300.0, 250.0)):
        assert _chi2_sf(x, df) == pytest.approx(
            float(scipy.stats.chi2.sf(x, df)), rel=1e-10
        )
    assert _chi2_sf(0.0, 5.0) == 1.0
    assert _chi2_sf(-1.0, 5.0) == 1.0


def test_run_all_tests_contract(small_sim):
    results = run_all_tests(small_sim.panel, small_sim.factors, knots=2)
    assert [r.name for r in results] == list(TEST_NAMES)
    for r in results:
        assert 0.0 <= r.p_value <= 1.0
        assert r.reference == REFERENCES[r.name]
        if r.name in ("Ada", "CC"):
            assert r.statistic is None
        else:
            assert np.isfinite(r.statistic)
    # combinations reproduce exactly from their inputs
    by_name = {r.name: r for r in results}
    assert by_name["CC"].p_value == pytest.approx(
        cauchy_combine(
            [by_name["CSS"].p_value, by_name["CSM"].p_value], truncated=True
        ),
        abs=1e-15,
    )
    assert by_name["Ada"].p_value == pytest.approx(
        cauchy_combine(
            [by_name["HDA"].p_value, by_name["MNT"].p_value], truncated=False
        ),
        abs=1e-15,
    )


def test_run_all_tests_is_deterministic_and_scale_invariant(small_sim):
    first = run_all_tests(small_sim.panel, small_sim.factors, knots=2)
    second = run_all_tests(small_sim.panel, small_sim.factors, knots=2)
    for a, b in zip(first, second):
        assert a == b
    scaled = run_all_tests(7.0 * small_sim.panel, small_sim.factors, knots=2)
    for a, b in zip(first, scaled):
        assert a.p_value == pytest.approx(b.p_value, abs=1e-10)
        if a.statistic is not None:
            assert a.statistic == pytest.approx(b.statistic, abs=1e-8)


def test_run_all_tests_auto_knots_and_stage_errors(small_sim):
    results = run_all_tests(small_sim.panel, small_sim.factors, knots="auto")
    assert len(results) == len(TEST_NAMES)
    with pytest.raises(DegenerateScaleError, match="^spatial-median:"):
        run_all_tests(np.zeros_like(small_sim.panel), small_sim.factors, knots=2)
    with pytest.raises(ContractError):
        run_all_tests(small_sim.panel[:100], small_sim.factors, knots=2)
    # a nan tolerance is refused under its stage, not run for every round
    # into an estimate marked unconverged
    with pytest.raises(ContractError, match="^spatial-median: tol must be a finite number > 0"):
        run_all_tests(small_sim.panel, small_sim.factors, knots=2, tol=np.nan)


@pytest.mark.parametrize("knots", ["auto", 2])
def test_a_battery_scans_its_panel_for_non_finite_values_once(small_sim, knots, monkeypatch):
    # the knot search and the fit read the panel the battery checked on
    # entry, so the panel is scanned once
    panel = small_sim.panel
    isfinite, scans = np.isfinite, []

    def spy(x, *args, **kwargs):
        if np.may_share_memory(x, panel):
            scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    run_all_tests(panel, small_sim.factors, knots=knots)
    assert scans == [panel.shape]
    bad = panel.copy()
    bad[5, 3] = np.nan
    with pytest.raises(ContractError, match="^panel contains non-finite values$"):
        run_all_tests(bad, small_sim.factors, knots=knots)


def test_an_unconverged_spatial_median_fails_its_stage(small_sim, tmp_path, monkeypatch, capsys):
    # one round leaves the estimating equations unsolved: the battery
    # raises rather than return p-values from that estimate
    with pytest.raises(
        ConvergenceError,
        match=r"^spatial-median: not converged after max_iter=1 rounds: .* > tol 1e-08$",
    ) as info:
        run_all_tests(small_sim.panel, small_sim.factors, knots=2, max_iter=1)
    assert isinstance(info.value, NUMERICAL_ERRORS)
    one_round = functools.partial(run_all_tests, max_iter=1)
    # a Monte Carlo replication counts it as a failure
    monkeypatch.setattr(harness, "run_all_tests", one_round)
    config = harness.ExperimentConfig(
        example=1, scenario=ErrorScenario("normal"), N=10, T=70, reps=1, seed=0, knots=1
    )
    assert harness._replication_pvalues((config, 0)) is None
    # and the CLI exits with the numerical code
    monkeypatch.setattr(cli, "run_all_tests", one_round)
    paths = [str(tmp_path / name) for name in ("panel.csv", "factors.csv")]
    panels.write_panel(paths[0], small_sim.panel, [f"A{i}" for i in range(small_sim.panel.shape[1])])
    panels.write_panel(paths[1], small_sim.factors, ["MKT"])
    capsys.readouterr()
    assert cli.main(["test", *paths, "--knots", "2", "--out", str(tmp_path / "r.csv")]) == 3
    assert "numerical failure: spatial-median: not converged" in capsys.readouterr().err


# P-values and projection bias pinned before the fit and the bias were
# rewritten on the design's stored orthonormal bases (example 2, t errors,
# N=40, T=160, seed 20261018; "auto" picks 7 interior knots). A refactor
# of the fit or the statistics must reproduce them to 1e-12.
GOLDEN_P_VALUES = {
    2: {
        "HDA": 0.6627506379051729,
        "MNT": 0.40960275008780855,
        "Ada": 0.5425855826201889,
        "CSS": 0.5587174498686501,
        "CSM": 0.21227804194642164,
        "CC": 0.3198779148009022,
    },
    "auto": {
        "HDA": 0.6198422010397171,
        "MNT": 0.5806650611658167,
        "Ada": 0.6006473667832442,
        "CSS": 0.5398059152415255,
        "CSM": 0.28013570273283894,
        "CC": 0.3752545280891537,
    },
}
GOLDEN_BIAS_KNOTS_2 = 0.16707421211090792


@pytest.fixture(scope="module")
def golden_sim():
    rng = np.random.default_rng(20261018)
    return simulate_panel(
        2, ErrorScenario("t"), AlphaSpec(sparsity=3, strength=2.0), 40, 160, rng
    )


@pytest.mark.parametrize("knots", [2, "auto"])
def test_golden_p_values(golden_sim, knots):
    results = run_all_tests(golden_sim.panel, golden_sim.factors, knots=knots)
    got = {r.name: r.p_value for r in results}
    for name, expected in GOLDEN_P_VALUES[knots].items():
        assert got[name] == pytest.approx(expected, abs=1e-12), name


def _outcomes(results):
    return [(r.name, r.statistic, r.p_value) for r in results]


@pytest.mark.parametrize("example", ["golden", 2, 3])
def test_auto_equals_the_battery_at_the_chosen_knots_bit_for_bit(golden_sim, example):
    # the auto battery reuses the knot search's factorization and its Q~'Y;
    # a fixed-knot battery factorizes the chosen count's design itself
    if example == "golden":
        Y, F = golden_sim.panel, golden_sim.factors
    else:
        sim = simulate_panel(
            example, ErrorScenario("t"), AlphaSpec(), 30, 150, np.random.default_rng(example)
        )
        Y, F = sim.panel, sim.factors
    knots = select_knots_bic(Y, F)
    assert _outcomes(run_all_tests(Y, F, knots="auto")) == _outcomes(
        run_all_tests(Y, F, knots=knots)
    )


def test_golden_projection_bias(golden_sim):
    design = build_design(golden_sim.factors, SplineConfig(2, 3))
    assert projection_sign_bias(design) == pytest.approx(GOLDEN_BIAS_KNOTS_2, abs=1e-12)


def test_result_csv_row_formatting(tmp_path, monkeypatch):
    # a TestResult becomes a `test` table row in cli._cmd_test
    results = [
        TestResult("CSS", 1.0 / 3.0, 1e-17, "scaled-chi-square"),
        TestResult("CC", None, 0.25, "combined"),
    ]
    monkeypatch.setattr(panels, "read_panel", lambda path: SimpleNamespace(values=None))
    monkeypatch.setattr(panels, "read_factors", lambda path: SimpleNamespace(values=None))
    monkeypatch.setattr(cli, "run_all_tests", lambda *args, **kwargs: results)
    out = tmp_path / "results.csv"
    argv = ["test", "panel.csv", "factors.csv", "--tests", "CC,CSS", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[2][:4] == ["CC", "", "0.25", "combined"]
    stat_row = rows[1]
    assert float(stat_row[1]) == 1.0 / 3.0
    assert float(stat_row[2]) == 1e-17
