"""Spatial signs, the joint location/scale iteration, and norm moments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphasign.errors import ContractError, DegenerateScaleError, DegenerateStatisticError
from alphasign.spatial import (
    SpatialLocation,
    _row_signs,
    moment_estimates,
    spatial_median_scale,
    spatial_sign,
)

# a divide by zero or an invalid value anywhere in the product form of the
# iteration is a defect, not a warning
pytestmark = pytest.mark.filterwarnings("error")

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(finite_coord, min_size=1, max_size=8))
def test_spatial_sign_has_unit_norm_or_is_zero(coords):
    v = np.array(coords)
    s = spatial_sign(v)
    if np.linalg.norm(v) == 0.0:
        assert np.array_equal(s, np.zeros_like(v))
    else:
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        # parallel to the input
        assert np.allclose(s * np.linalg.norm(v), v, rtol=1e-9, atol=1e-9)


def test_spatial_sign_rejects_matrices():
    with pytest.raises(ContractError):
        spatial_sign(np.zeros((2, 2)))


def test_univariate_location_is_the_sample_median():
    rng = np.random.default_rng(4)
    for _ in range(10):
        T = int(rng.integers(2, 21)) * 2 + 1
        x = rng.standard_normal(T) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
        loc = spatial_median_scale(x[:, None])
        med = float(np.median(x))
        assert abs(float(loc.theta[0]) - med) <= 1e-8 * (1.0 + abs(med))
        assert loc.converged


def test_estimating_equations_hold_at_convergence(small_fit):
    E = small_fit.residuals
    N = E.shape[1]
    loc = spatial_median_scale(E)
    assert loc.converged
    assert loc.iterations > 0
    # recompute both equations from the returned location and scale; rows
    # exactly at the location (none here) are excluded by convention
    X = (E - loc.theta) / np.sqrt(loc.scale_diag)
    norms = np.linalg.norm(X, axis=1)
    assert np.all(norms > 0)
    U = X / norms[:, None]
    assert float(np.linalg.norm(U.mean(axis=0))) <= 1e-8
    assert float(N * np.max(np.abs((U * U).mean(axis=0) - 1.0 / N))) <= 1e-8
    assert loc.eq_residual <= 1e-8


def _reference_spatial_median(E, tol=1e-8, max_iter=200):
    """The iteration written elementwise on the sign matrix, as the reference
    for the matrix-vector form (which sums in another order)."""
    T, N = E.shape
    theta, scale = E.mean(axis=0), E.var(axis=0, ddof=1)
    iterations = 0
    while True:
        root = np.sqrt(scale)
        X = (E - theta) / root
        norms = np.linalg.norm(X, axis=1)
        nz = norms > 0.0
        U = np.zeros_like(X)
        U[nz] = X[nz] / norms[nz, None]
        mean_u = U[nz].mean(axis=0)
        mean_u2 = (U[nz] * U[nz]).mean(axis=0)
        eq = max(float(np.linalg.norm(mean_u)), float(N * np.max(np.abs(mean_u2 - 1.0 / N))))
        if eq <= tol or iterations >= max_iter:
            return theta, scale, iterations, eq
        theta = theta + root * U.sum(axis=0) / float(np.sum(1.0 / norms[nz]))
        scale = N * scale * mean_u2
        iterations += 1


def _assert_matches_reference(loc, E, **kwargs):
    theta, scale, iterations, eq = _reference_spatial_median(E, **kwargs)
    assert loc.iterations == iterations
    assert np.allclose(loc.theta, theta, rtol=1e-12, atol=0.0)
    assert np.allclose(loc.scale_diag, scale, rtol=1e-12, atol=0.0)
    assert abs(loc.eq_residual - eq) <= 1e-12


def test_product_iteration_matches_reference(small_fit):
    # odd T with one column puts the location on an observation, so rows
    # with zero norm drop out along the way
    x = np.random.default_rng(4).standard_normal((21, 1))
    for E in (small_fit.residuals, x, small_fit.residuals[:, :3] ** 3):
        loc = spatial_median_scale(E)
        _assert_matches_reference(loc, E)
        X = (E - loc.theta) / np.sqrt(loc.scale_diag)
        assert np.allclose(loc.norms, np.linalg.norm(X, axis=1), rtol=1e-12, atol=1e-12)


def test_one_round_returns_the_reference_iterate(small_fit):
    E = small_fit.residuals
    loc = spatial_median_scale(E, max_iter=1)
    assert not loc.converged
    _assert_matches_reference(loc, E, max_iter=1)


def test_far_shift_moves_the_location_by_the_shift(small_fit):
    # the product form expands squares of e_t - theta; without centering
    # by the column means this shift would cancel away every digit
    E = small_fit.residuals
    sd = E.std(axis=0)
    shift = 1e6 * sd
    base = spatial_median_scale(E)
    shifted = spatial_median_scale(E + shift)
    assert shifted.converged
    assert np.all(np.abs(shifted.theta - shift - base.theta) <= 1e-7 * sd)
    assert np.allclose(shifted.scale_diag, base.scale_diag, rtol=1e-6)


def test_row_on_the_location_drops_out():
    # rows x_k and -c_k x_k have opposite signs about the origin for any
    # diagonal scale, so the location is the zero row; the column means
    # start the iteration away from it
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 3))
    c = rng.uniform(0.5, 3.0, (12, 1))
    E = np.vstack([X, -c * X, np.zeros((1, 3))])
    assert np.max(np.abs(E.mean(axis=0))) > 0.05
    loc = spatial_median_scale(E)
    assert loc.converged
    assert np.array_equal(loc.theta, np.zeros(3))
    assert loc.norms[-1] == 0.0 and np.all(loc.norms[:-1] > 0.0)
    U = (E[:-1] - loc.theta) / np.sqrt(loc.scale_diag)
    U /= np.linalg.norm(U, axis=1)[:, None]
    N = E.shape[1]
    assert float(np.linalg.norm(U.mean(axis=0))) <= 1e-8
    assert float(N * np.max(np.abs((U * U).mean(axis=0) - 1.0 / N))) <= 1e-8


def test_row_signs_match_reference_exactly(small_fit):
    rows = small_fit.residuals.copy()
    rows[[2, 7]] = 0.0
    norms = np.linalg.norm(rows, axis=1)
    expected = np.zeros_like(rows)
    expected[norms > 0] = rows[norms > 0] / norms[norms > 0, None]
    assert np.array_equal(_row_signs(rows), expected)
    assert np.array_equal(_row_signs(small_fit.residuals),
                          small_fit.residuals / np.linalg.norm(small_fit.residuals, axis=1)[:, None])


def test_location_scale_equivariance(small_fit):
    E = small_fit.residuals
    base = spatial_median_scale(E)
    shift = np.full(E.shape[1], 0.5)
    shifted = spatial_median_scale(E + shift)
    assert np.allclose(shifted.theta, base.theta + shift, atol=1e-7)
    scaled = spatial_median_scale(4.0 * E)
    assert np.allclose(scaled.theta, 4.0 * base.theta, atol=1e-7)
    assert np.allclose(scaled.scale_diag, 16.0 * base.scale_diag, rtol=1e-6)


def test_degenerate_inputs_raise():
    rng = np.random.default_rng(5)
    E = rng.standard_normal((40, 3))
    E[:, 1] = 2.5  # constant column -> zero variance
    with pytest.raises(DegenerateScaleError):
        spatial_median_scale(E)
    with pytest.raises(ContractError):
        spatial_median_scale(np.zeros(7))  # 1-D input
    with pytest.raises(ContractError):
        spatial_median_scale(np.zeros((1, 3)))  # single cross section
    bad = rng.standard_normal((10, 2))
    bad[3, 0] = np.inf
    with pytest.raises(ContractError):
        spatial_median_scale(bad)


def _unit_location(E):
    """Location 0 and unit scale, with the row norms that implies."""
    N = E.shape[1]
    return SpatialLocation(np.zeros(N), np.ones(N), 0, True, 0.0, np.linalg.norm(E, axis=1))


def test_norm_moments_unit_rows():
    # rows cycle through the standard basis: every norm is exactly one
    N, T = 4, 12
    E = np.eye(N)[np.arange(T) % N]
    m = moment_estimates(_unit_location(E), omega_T=float(T))
    assert m.varsigma2 == pytest.approx(1.0, abs=1e-14)
    assert m.varsigma1 == pytest.approx(1.0, abs=1e-14)
    assert m.varsigma_neg1 == pytest.approx(1.0, abs=1e-14)
    # omega_T = T makes eta vanish, so zeta_hat is N * varsigma_neg1^2
    assert m.zeta_hat == pytest.approx(float(N), rel=1e-12)


def test_norm_moments_scaled_rows():
    N, T = 5, 10
    E = 2.0 * np.eye(N)[np.arange(T) % N]
    m = moment_estimates(_unit_location(E), omega_T=float(T))
    assert (m.varsigma2, m.varsigma1, m.varsigma_neg1) == (4.0, 2.0, 0.5)
    assert m.zeta_hat == pytest.approx(N / 4.0, rel=1e-12)


def test_norm_moments_guards():
    N, T = 5, 10
    E = 2.0 * np.eye(N)[np.arange(T) % N]
    E[0] = 0.0  # coincides with the location
    with pytest.raises(DegenerateStatisticError):
        moment_estimates(_unit_location(E), omega_T=float(T))
    E2 = 2.0 * np.eye(N)[np.arange(T) % N]
    # eta = 1 with these norms zeroes the denominator exactly
    with pytest.raises(DegenerateStatisticError):
        moment_estimates(_unit_location(E2), omega_T=0.0)
