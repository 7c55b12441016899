"""Spline basis construction, design assembly, and the least-squares fit."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import orth

from alphasign.basis import (
    SplineConfig,
    _annihilator_diagonal,
    _basis_matrix,
    _clamped_basis,
    _bic_penalty,
    bic_score,
    build_design,
    default_knot_candidates,
    fit_panel,
    make_knots,
    select_knots_bic,
)
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import ContractError, SingularDesignError

from conftest import design_pair


def bspline_basis(config, knots, u):
    """The L basis function values at one point u, from the basis routine
    every design uses."""
    return _basis_matrix(np.asarray(knots, dtype=float), config.order, np.array([u]))[0]


def test_spline_config_validation():
    with pytest.raises(ContractError):
        SplineConfig(2, order=0)
    with pytest.raises(ContractError):
        SplineConfig(-1, order=3)
    # counts are integers: a float or a bool is refused, not truncated or
    # left for slicing to trip over; numpy integers are counts
    for knots, order in ((2.7, 3), (2.0, 3), (True, 3), (2, 2.5), (2, True)):
        with pytest.raises(ContractError, match="must be an integer, got"):
            SplineConfig(knots, order)
    assert SplineConfig(np.int64(2), np.int32(3)).basis_dim == 5
    assert SplineConfig(5, order=3).basis_dim == 8
    assert SplineConfig(0, order=1).basis_dim == 1


def test_make_knots_layout():
    knots = make_knots(3, order=3)
    assert np.allclose(knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
    assert np.allclose(make_knots(0, order=2), [0, 0, 1, 1])
    with pytest.raises(ContractError):
        make_knots(-1)
    with pytest.raises(ContractError):
        make_knots(2, order=0)
    # counts are integers, as in SplineConfig: 1.5 knots are not two knots
    # at 0.4 and 0.8, and True is not 1
    for knots, order in ((1.5, 3), (True, 3), (2, 3.0), (2, True)):
        with pytest.raises(ContractError, match="must be an integer, got"):
            make_knots(knots, order)
    assert np.array_equal(make_knots(np.int64(1), np.int32(2)), [0, 0, 0.5, 1, 1])


def test_order_one_basis_is_interval_indicator():
    config = SplineConfig(1, order=1)
    knots = make_knots(1, order=1)
    assert np.allclose(bspline_basis(config, knots, 0.3), [1, 0])
    assert np.allclose(bspline_basis(config, knots, 0.7), [0, 1])
    # intervals are half open; the right boundary closes the last one
    assert np.allclose(bspline_basis(config, knots, 0.5), [0, 1])
    assert np.allclose(bspline_basis(config, knots, 1.0), [0, 1])


def test_clamped_basis_interpolates_at_endpoints():
    config = SplineConfig(3, order=3)
    knots = make_knots(3, order=3)
    L = config.basis_dim
    left = bspline_basis(config, knots, 0.0)
    right = bspline_basis(config, knots, 1.0)
    assert np.allclose(left, np.eye(L)[0], atol=1e-14)
    assert np.allclose(right, np.eye(L)[L - 1], atol=1e-14)


@given(
    u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=0, max_value=8),
    order=st.integers(min_value=1, max_value=4),
)
def test_partition_of_unity(u, n, order):
    config = SplineConfig(n, order)
    values = bspline_basis(config, make_knots(n, order), u)
    assert values.shape == (config.basis_dim,)
    assert np.all(values >= -1e-14)
    assert abs(values.sum() - 1.0) <= 1e-12


def test_no_interior_knots_order3_is_quadratic_bernstein():
    config = SplineConfig(0, order=3)
    knots = make_knots(0, order=3)
    grid = np.linspace(0.0, 1.0, 101)
    for u in grid:
        values = bspline_basis(config, knots, u)
        bern = np.array([(1 - u) ** 2, 2 * u * (1 - u), u**2])
        assert np.max(np.abs(values - bern)) <= 1e-12


def test_design_layout_and_h_invariants(small_design):
    design = small_design
    L = design.config.basis_dim
    T = design.n_obs
    p = design.n_factors
    Z, Z_tilde = design_pair(design)
    assert Z.shape == (T, (1 + p) * L)
    assert Z_tilde.shape == Z.shape
    # centered intercept block: columns sum to zero
    assert np.max(np.abs(Z[:, :L].sum(axis=0))) <= 1e-10
    # uncentered intercept block: rows sum to one
    assert np.max(np.abs(Z_tilde[:, :L].sum(axis=1) - 1.0)) <= 1e-12
    # factor blocks are shared between the twins
    assert np.array_equal(Z[:, L:], Z_tilde[:, L:])
    # h is the annihilated ones vector: orthogonal to the span, norm omega_T
    assert np.max(np.abs(Z.T @ design.h)) <= 1e-8
    assert design.omega_T == pytest.approx(float(design.h @ design.h), rel=1e-12)
    assert 0.0 < design.omega_T <= T
    # h is the annihilated ones vector of an oracle basis of Z's span
    q = orth(Z)
    assert q.shape[1] == design.n_columns - 1
    ones = np.ones(T)
    assert np.max(np.abs(ones - q @ (q.T @ ones) - design.h)) <= 1e-10


def test_design_arrays_are_read_only(small_design):
    # the stored basis and h were computed from the factors; none may change
    for arr in (small_design.h, small_design.Q_tilde, small_design.factors):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the stored basis is orthonormal and spans Z_tilde's columns, which
    # hold Z's and h
    K = small_design.n_columns
    Q = small_design.Q_tilde
    assert Q.shape == (small_design.n_obs, K)
    assert np.max(np.abs(Q.T @ Q - np.eye(K))) <= 1e-12
    for Z in (*design_pair(small_design), small_design.h[:, None]):
        assert np.max(np.abs(Z - Q @ (Q.T @ Z))) <= 1e-10 * np.max(np.abs(Z))


def test_design_needs_enough_observations():
    rng = np.random.default_rng(0)
    config = SplineConfig(1, 3)  # L=4, two blocks -> K=8
    with pytest.raises(ContractError, match="need T >="):
        build_design(rng.standard_normal((8, 1)), config)
    build_design(rng.standard_normal((9, 1)), config)  # boundary is usable


def test_rank_deficient_designs_name_the_failing_block():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((60, 1))
    dup = np.hstack([f, f])
    with pytest.raises(SingularDesignError, match="factor 2 block"):
        build_design(dup, SplineConfig(2, 3))
    zero_first = np.hstack([np.zeros((60, 1)), f])
    with pytest.raises(SingularDesignError, match="factor 1 block"):
        build_design(zero_first, SplineConfig(2, 3))


def test_fit_matches_brute_force_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(10):
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
        for Z, resid in zip(design_pair(design), (fit.residuals, fit.residuals_tilde)):
            coef = np.linalg.pinv(Z.T @ Z) @ (Z.T @ Y)
            assert np.max(np.abs(Y - Z @ coef - resid)) <= 1e-8


@pytest.mark.parametrize("example", [1, 2, 3, "intercept only"])
def test_rank_one_residuals_match_the_projection_oracle(example):
    # the centered residuals come from the uncentered ones by the rank-one
    # update E = E~ + h (h'Y)' / h'h; the oracle projects Y on an
    # orthonormal basis of Z's span directly. The annihilator's diagonal is
    # read off Q_tilde and h; the oracle takes it as diag(I - P_Z).
    ex = 1 if example == "intercept only" else example
    sim = simulate_panel(ex, ErrorScenario("t"), AlphaSpec(), 20, 120, np.random.default_rng(11))
    F = sim.factors[:, :0] if example == "intercept only" else sim.factors
    design = build_design(F, SplineConfig(3, 3))
    q_oracle = orth(design_pair(design)[0])
    leverage = np.einsum("tk,tk->t", q_oracle, q_oracle)
    assert np.max(np.abs(_annihilator_diagonal(design) - (1.0 - leverage))) <= 1e-12
    Y = sim.panel
    fit = fit_panel(Y, design)
    for q, resid in ((q_oracle, fit.residuals), (design.Q_tilde, fit.residuals_tilde)):
        oracle = Y - q @ (q.T @ Y)
        assert np.max(np.abs(resid - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    h = design.h
    assert np.max(np.abs(h @ fit.residuals_tilde)) <= 1e-12 * np.linalg.norm(h) * np.max(
        np.linalg.norm(fit.residuals_tilde, axis=0)
    )


def test_fixed_knot_design_takes_no_singular_value_call(small_sim, monkeypatch):
    # one factorization per design: the QR of the uncentered twin, whose
    # triangular factor and its inverse certify both twins' ranks
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    build_design(small_sim.factors, SplineConfig(2, 3))
    assert calls == []


def test_fit_residuals_orthogonal_to_design(small_design, small_fit):
    scale = np.max(np.abs(small_fit.residuals))
    Z, Z_tilde = design_pair(small_design)
    assert np.max(np.abs(Z.T @ small_fit.residuals)) <= 1e-8 * scale * small_design.n_obs
    assert np.max(np.abs(Z_tilde.T @ small_fit.residuals_tilde)) <= 1e-8 * scale * small_design.n_obs


def test_fit_input_guards(small_design):
    with pytest.raises(ContractError):
        fit_panel(np.zeros((10, 3)), small_design)  # wrong row count
    bad = np.zeros((small_design.n_obs, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ContractError):
        fit_panel(bad, small_design)


def test_bic_penalty_value():
    # log(200*350)/(200*350) * (3+1) * (2+3)
    assert _bic_penalty(200, 350, 3, SplineConfig(2, 3)) == pytest.approx(
        3.1875001488661414e-3, rel=1e-9
    )


def test_knot_selection_contract(small_sim):
    picked = select_knots_bic(small_sim.panel, small_sim.factors, candidates=[2])
    assert picked == 2
    default = select_knots_bic(small_sim.panel, small_sim.factors)
    assert default in default_knot_candidates(small_sim.panel.shape[0])
    again = select_knots_bic(small_sim.panel, small_sim.factors)
    assert again == default
    # scores are comparable across candidates for the winner to be minimal
    scores = {
        n: bic_score(small_sim.panel, small_sim.factors, SplineConfig(n, 3))
        for n in default_knot_candidates(small_sim.panel.shape[0])
    }
    assert default == min(sorted(scores), key=lambda n: scores[n])


def test_knot_selection_failure_modes(small_sim):
    with pytest.raises(ContractError):
        select_knots_bic(small_sim.panel, small_sim.factors, candidates=[])
    rng = np.random.default_rng(3)
    tiny_f = rng.standard_normal((30, 1))
    tiny_y = rng.standard_normal((30, 2))
    with pytest.raises(SingularDesignError, match="no knot candidate"):
        select_knots_bic(tiny_y, tiny_f, candidates=[40])
    # input errors are raised once, before any candidate is scored
    with pytest.raises(ContractError, match="30 rows but factors have 29"):
        select_knots_bic(tiny_y, tiny_f[:29], candidates=[1, 2])
    bad_y = tiny_y.copy()
    bad_y[3, 1] = np.inf
    with pytest.raises(ContractError, match="non-finite"):
        select_knots_bic(bad_y, tiny_f, candidates=[1, 2])
    # so are a negative candidate and an order below 1, even next to usable
    # candidates
    with pytest.raises(ContractError, match="got -1"):
        select_knots_bic(tiny_y, tiny_f, candidates=[1, -1])
    with pytest.raises(ContractError, match="order must be >= 1"):
        select_knots_bic(tiny_y, tiny_f, candidates=[1, 2], order=0)
    # a candidate that is not an integer is refused, not scored as int(c)
    for bad in (2.7, True):
        with pytest.raises(ContractError, match=f"interior knot count must be an integer, got {bad}"):
            select_knots_bic(tiny_y, tiny_f, candidates=[2, bad])


def _loop_basis_matrix(knots, order, u):
    """Cox-de Boor recursion one column at a time."""
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
        nb = np.zeros((u.size, cols))
        for i in range(cols):
            den1 = knots[i + k - 1] - knots[i]
            den2 = knots[i + k] - knots[i + 1]
            if den1 > 0.0:
                nb[:, i] += (u - knots[i]) / den1 * B[:, i]
            if den2 > 0.0:
                nb[:, i] += (knots[i + k] - u) / den2 * B[:, i + 1]
        B = nb
    return B


def test_basis_matrix_matches_column_loop_bit_for_bit():
    for T in (7, 60, 301):
        u = np.arange(1, T + 1) / T
        for order in (1, 2, 3, 4):
            for n in (0, 1, 2, 5, 11):
                knots = make_knots(n, order)
                got = _basis_matrix(knots, order, u)
                want = _loop_basis_matrix(knots, order, u)
                assert got.tobytes() == want.tobytes(), (T, order, n)


def test_cached_basis_is_read_only_and_exact(small_design):
    T = small_design.n_obs
    B = _clamped_basis(T, 2, 3)
    assert _clamped_basis(T, 2, 3) is B  # one array per (T, knots, order)
    with pytest.raises(ValueError):
        B[0, 0] = 1.0
    direct = _basis_matrix(make_knots(2, 3), 3, np.arange(1, T + 1) / T)
    assert B.tobytes() == direct.tobytes()
    assert np.array_equal(design_pair(small_design)[1][:, : B.shape[1]], B)
