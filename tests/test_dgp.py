"""Simulation engine: factor paths, loadings, error laws, intercept injection."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import alphasign.dgp as dgp
from alphasign.dgp import (
    BURN_IN,
    ERROR_SCENARIO_KINDS,
    EXAMPLE2_LOADING_PARAMS,
    EXAMPLE3_LOADING_PARAMS,
    EXAMPLE_FACTORS,
    MARKET,
    AlphaSpec,
    ErrorScenario,
    HML,
    SMB,
    FactorSpec,
    ar_garch_path,
    assemble_panel,
    error_covariance,
    gen_alpha,
    gen_errors,
    gen_loadings,
    latent_state_path,
    logistic_g,
    simulate_panel,
)
from alphasign.errors import ContractError


def test_factor_spec_validation():
    with pytest.raises(ContractError):
        FactorSpec(0.0, 0.1, 0.0, 0.5, 0.1)  # omega must be positive
    with pytest.raises(ContractError):
        FactorSpec(0.0, 0.1, 0.3, 0.6, 0.4)  # persistence >= 1
    with pytest.raises(ContractError):
        FactorSpec(0.0, 1.0, 0.3, 0.5, 0.1)  # unit root
    with pytest.raises(ContractError):
        FactorSpec(0.0, 0.1, 0.3, -0.1, 0.1)  # negative coefficient
    assert MARKET.stationary_variance == pytest.approx(1.6, rel=1e-12)


def test_ar_garch_path_contract():
    path = ar_garch_path(MARKET, 250, np.random.default_rng(11))
    again = ar_garch_path(MARKET, 250, np.random.default_rng(11))
    assert path.shape == (250,)
    assert np.array_equal(path, again)
    no_burn = ar_garch_path(MARKET, 250, np.random.default_rng(11), burn_in=0)
    assert not np.allclose(path, no_burn)
    with pytest.raises(ContractError):
        ar_garch_path(MARKET, 0, np.random.default_rng(0))
    with pytest.raises(ContractError):
        ar_garch_path(MARKET, 10, np.random.default_rng(0), burn_in=-1)
    # long-run sample variance near omega / (1 - beta - alpha) / (1 - ar^2)
    long = ar_garch_path(MARKET, 20000, np.random.default_rng(11))
    assert abs(float(long.var(ddof=1)) - 1.604) < 0.25


def test_logistic_ramp_values():
    assert logistic_g(2.0, 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert logistic_g(10.0, 2.0, 2.0) == pytest.approx(1.0, abs=1e-6)
    out = logistic_g(np.array([0.0, 2.0, 4.0]), 2.0, 2.0)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


def test_loadings_by_example():
    T = 10
    ramp = logistic_g(10.0 * np.arange(1, T + 1) / T, 2.0, 2.0)
    l1, s1 = gen_loadings(1, T, np.random.default_rng(0))
    assert l1.shape == (1, T)
    assert s1 is None
    assert np.allclose(l1[0], ramp)
    l3, s3 = gen_loadings(3, T, np.random.default_rng(0))
    assert l3.shape == (3, T)
    assert s3 is None
    # second factor loading at t/T = 0.2: 0.1 * G(2) + 0.5
    assert l3[1, 1] == pytest.approx(0.55, abs=1e-12)
    l2, s2 = gen_loadings(2, 50, np.random.default_rng(77))
    assert s2 is not None and s2.shape == (50,)
    a1, b1 = EXAMPLE2_LOADING_PARAMS[0]
    assert np.allclose(l2[0], a1 + b1 * s2)
    with pytest.raises(ContractError):
        gen_loadings(4, T, np.random.default_rng(0))


def test_latent_state_is_deterministic():
    a = latent_state_path(20, np.random.default_rng(3))
    b = latent_state_path(20, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert a.shape == (20,)


def test_error_covariance_geometry():
    cov2 = error_covariance(2)
    assert np.allclose(cov2, [[1.0, 0.5], [0.5, 1.0]])
    cov4 = error_covariance(4)
    idx = np.arange(4)
    assert np.allclose(cov4, 0.5 ** np.abs(idx[:, None] - idx[None, :]))


def test_error_scenario_validation():
    with pytest.raises(ContractError):
        ErrorScenario("cauchy")
    with pytest.raises(ContractError):
        ErrorScenario("mixture", mixture_kappa=0.0)
    with pytest.raises(ContractError):
        ErrorScenario("t", t_dof=2)
    ErrorScenario("mixture", mixture_kappa=1.0)  # degenerate mixture is legal


def test_normal_errors_match_target_covariance():
    draws = gen_errors(ErrorScenario("normal"), 2, 200_000, np.random.default_rng(0))
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - error_covariance(2))) < 0.02


B = dgp._AR_BLOCK


@pytest.mark.parametrize("N", [1, 2, B - 1, B, B + 1, 2 * B + 1, 200, 1000])
def test_normal_errors_are_the_cholesky_product(N):
    # the blocked recursion draws the law z @ L.T of the Cholesky factor L
    # from the same normals, up to the order of the sums
    T = 40
    z = np.random.default_rng(N).standard_normal((T, N))
    dense = z @ np.linalg.cholesky(error_covariance(N)).T
    drawn = gen_errors(ErrorScenario("normal"), N, T, np.random.default_rng(N))
    assert np.array_equal(drawn[:, 0], z[:, 0])
    assert np.max(np.abs(drawn - dense)) <= 1e-14


def test_normal_errors_match_target_covariance_across_a_block_edge():
    N = B + 2  # the last block is the single column B + 1
    draws = gen_errors(ErrorScenario("normal"), N, 100_000, np.random.default_rng(0))
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - error_covariance(N))) < 0.025


@pytest.fixture
def linalg_calls(monkeypatch):
    """Sizes of the matrices each draw hands to np.linalg.cholesky and eigh."""
    calls = []
    for name in ("cholesky", "eigh"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, len(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    dgp._icm_root.cache_clear()
    yield calls
    dgp._icm_root.cache_clear()


def test_only_icm_draws_factor_the_covariance(linalg_calls):
    for kind in ("normal", "t", "mixture"):
        simulate_panel(1, ErrorScenario(kind), AlphaSpec(2, 1.0), 300, 30,
                       np.random.default_rng(1))
    assert linalg_calls == []
    for N in (5, 7, 5, 7):
        gen_errors(ErrorScenario("icm"), N, 30, np.random.default_rng(1))
    assert linalg_calls == [("eigh", 5), ("eigh", 7)]  # once per N, then cached


def test_a_large_draw_holds_no_n_by_n_matrix():
    # the panel and one T x 32 buffer: the intercept is one N-vector seen
    # as T rows, so a draw allocates and keeps one T x N array; a dense
    # intercept would double both figures, and an N x N matrix alone would
    # take 8 MB here
    N, T = 1000, 600
    panel_bytes = T * N * 8
    # a first draw imports modules lazily, which is not the draw's memory
    simulate_panel(1, ErrorScenario("t"), AlphaSpec(2, 1.0), 8, 60, np.random.default_rng(1))
    tracemalloc.start()
    try:
        sim = simulate_panel(1, ErrorScenario("t"), AlphaSpec(2, 1.0), N, T,
                             np.random.default_rng(1))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.alpha.shape == (T, N)
    assert peak <= 1.25 * panel_bytes
    assert kept <= 1.25 * panel_bytes


def test_mixture_with_kappa_one_is_exactly_normal():
    a = gen_errors(ErrorScenario("normal"), 6, 40, np.random.default_rng(2))
    b = gen_errors(ErrorScenario("mixture", mixture_kappa=1.0), 6, 40, np.random.default_rng(2))
    assert np.array_equal(a, b)


def test_t_errors_share_one_divisor_per_row():
    base = gen_errors(ErrorScenario("normal"), 6, 40, np.random.default_rng(2))
    heavy = gen_errors(ErrorScenario("t"), 6, 40, np.random.default_rng(2))
    ratio = heavy / base
    assert np.all(ratio > 0)  # the chi-square divisor cannot flip signs
    assert np.max(np.ptp(ratio, axis=1)) <= 1e-12  # constant within each row


def test_icm_errors_shape_and_determinism():
    a = gen_errors(ErrorScenario("icm"), 5, 30, np.random.default_rng(4))
    b = gen_errors(ErrorScenario("icm"), 5, 30, np.random.default_rng(4))
    assert a.shape == (30, 5)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_alpha_spec_bounds():
    spec = AlphaSpec(sparsity=2, strength=20.0)
    assert spec.upper_bound(400, 350) == pytest.approx(1.8503226818365617, rel=1e-9)
    assert AlphaSpec().upper_bound(400, 350) == 0.0
    with pytest.raises(ContractError):
        AlphaSpec(sparsity=-1)
    with pytest.raises(ContractError, match="^sparsity must be an integer >= 0, got 1.5$"):
        AlphaSpec(sparsity=1.5)
    with pytest.raises(ContractError):
        AlphaSpec(strength=-2.0)
    with pytest.raises(ContractError):
        AlphaSpec(strength=float("nan"))
    with pytest.raises(ContractError):
        AlphaSpec(mode="ramp")


def test_gen_alpha_support_and_levels():
    rng = np.random.default_rng(6)
    spec = AlphaSpec(sparsity=3, strength=10.0)
    alpha, support = gen_alpha(spec, N=20, T=50, rng=rng)
    assert alpha.shape == (50, 20)
    assert support.shape == (3,)
    assert np.array_equal(support, np.sort(support))
    off = np.setdiff1d(np.arange(20), support)
    assert np.all(alpha[:, off] == 0.0)
    levels = alpha[0, support]
    assert np.all((levels > 0.0) & (levels <= spec.upper_bound(20, 50)))
    assert np.max(np.ptp(alpha[:, support], axis=0)) == 0.0  # constant in t

    over_t, sup2 = gen_alpha(
        AlphaSpec(sparsity=3, strength=10.0, mode="over_T"), N=20, T=50,
        rng=np.random.default_rng(6),
    )
    assert np.array_equal(sup2, support)  # same draw order, same support
    assert np.allclose(over_t[:, sup2] * 50.0, alpha[:, support])

    zero, empty = gen_alpha(AlphaSpec(), N=5, T=4, rng=np.random.default_rng(0))
    assert np.all(zero == 0.0) and empty.size == 0
    with pytest.raises(ContractError):
        gen_alpha(AlphaSpec(sparsity=6, strength=1.0), N=5, T=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("spec", [AlphaSpec(), AlphaSpec(sparsity=3, strength=10.0)],
                         ids=["sparsity-0", "sparsity-3"])
def test_gen_alpha_is_a_read_only_view_of_one_row(spec):
    alpha, support = gen_alpha(spec, N=20, T=50, rng=np.random.default_rng(6))
    assert alpha.shape == (50, 20) and alpha.dtype == np.float64
    assert alpha.strides[0] == 0 and not alpha.flags.writeable
    with pytest.raises(ValueError):
        alpha[0, 0] = 1.0
    with pytest.raises(ValueError):
        alpha += 1.0
    dense = alpha.copy()
    assert dense.flags.writeable and dense.strides[0] == 20 * 8
    assert np.array_equal(dense, alpha)


def test_assemble_panel_shapes_and_guards():
    rng = np.random.default_rng(9)
    Y, F = assemble_panel(1, 4, 30, rng)
    assert Y.shape == (30, 4) and F.shape == (30, 1)
    Y2, F2 = assemble_panel(2, 4, 30, np.random.default_rng(9))
    assert F2.shape == (30, 3)
    with pytest.raises(ContractError):
        assemble_panel(5, 4, 30, rng)


def test_simulated_intercept_is_additive():
    # the intercept draw comes last, so the systematic part is unchanged
    null = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 10, 60, np.random.default_rng(5)
    )
    alt = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(2, 5.0), 10, 60, np.random.default_rng(5)
    )
    assert np.array_equal(null.factors, alt.factors)
    assert np.max(np.abs(alt.panel - null.panel - alt.alpha)) <= 1e-12
    assert null.support.size == 0 and alt.support.size == 2


def test_simulate_panel_is_deterministic():
    a = simulate_panel(
        2, ErrorScenario("t"), AlphaSpec(1, 2.0), 6, 40, np.random.default_rng(12)
    )
    b = simulate_panel(
        2, ErrorScenario("t"), AlphaSpec(1, 2.0), 6, 40, np.random.default_rng(12)
    )
    assert np.array_equal(a.panel, b.panel)
    assert np.array_equal(a.factors, b.factors)
    assert np.array_equal(a.support, b.support)


def _reference_simulation(example, scenario, alpha_spec, N, T, rng):
    """simulate_panel's draws, with the systematic part formed from a full
    (N, p, T) loadings copy contracted as einsum("ipt,tp->ti"), and the
    intercept drawn as a dense T x N array added over the whole panel."""
    F = np.column_stack([ar_garch_path(s, T, rng) for s in EXAMPLE_FACTORS[example]])
    u = np.arange(1, T + 1) / T
    if example == 1:
        base = logistic_g(10.0 * u, 2.0, 2.0)[None, :]
    elif example == 2:
        state = latent_state_path(T, rng)
        base = np.stack([a + b * state for a, b in EXAMPLE2_LOADING_PARAMS])
    else:
        ramp = logistic_g(10.0 * u, 2.0, 2.0)
        base = np.stack([a * ramp + b for a, b in EXAMPLE3_LOADING_PARAMS])
    loadings = np.broadcast_to(base[None, :, :], (N,) + base.shape).copy()
    errors = gen_errors(scenario, N, T, rng)
    panel = np.zeros((T, N)) + np.einsum("ipt,tp->ti", loadings, F) + errors
    alpha, support = np.zeros((T, N)), np.empty(0, dtype=int)
    if alpha_spec.sparsity:
        support = np.sort(rng.choice(N, size=alpha_spec.sparsity, replace=False))
        levels = rng.uniform(0.0, alpha_spec.upper_bound(N, T), size=alpha_spec.sparsity)
        if alpha_spec.mode == "over_T":
            levels = levels / T
        alpha[:, support] = levels
    return panel + alpha, F, alpha, support


@pytest.mark.parametrize("example", [1, 2, 3])
def test_simulate_panel_matches_full_loadings_reference(example):
    # every error law, with no intercept and with a sparse one at both
    # modes: the panel and factors equal the reference byte for byte
    for kind, sparsity, mode in itertools.product(ERROR_SCENARIO_KINDS, (0, 2), ("constant", "over_T")):
        case = (kind, sparsity, mode)
        spec = AlphaSpec(sparsity=sparsity, strength=3.0, mode=mode)
        sim = simulate_panel(example, ErrorScenario(kind), spec, 12, 60, np.random.default_rng(41))
        panel, F, alpha, support = _reference_simulation(
            example, ErrorScenario(kind), spec, 12, 60, np.random.default_rng(41)
        )
        assert sim.panel.tobytes() == panel.tobytes(), case
        assert sim.factors.tobytes() == F.tobytes(), case
        assert np.array_equal(sim.alpha, alpha), case
        assert np.array_equal(sim.support, support), case


def _scalar_ar_garch_path(spec, T, rng, burn_in=BURN_IN):
    """ar_garch_path drawn one scalar normal per step: the reference for
    the one-draw path."""
    total = burn_in + T
    out = np.empty(total)
    f_prev, h_prev = 0.0, 1.0
    phi_prev = float(rng.standard_normal())
    for t in range(total):
        h = (
            spec.garch_omega
            + spec.garch_beta * h_prev
            + spec.garch_alpha * h_prev * phi_prev**2
        )
        phi = float(rng.standard_normal())
        f = spec.mean + spec.ar_coef * (f_prev - spec.mean) + math.sqrt(h) * phi
        out[t] = f
        f_prev, h_prev, phi_prev = f, h, phi
    return out[burn_in:]


def _scalar_latent_state_path(T, rng, burn_in=BURN_IN):
    """latent_state_path drawn one scalar normal per step (the reference)."""
    total = burn_in + T
    z = np.empty(total)
    z_prev, s2_prev = 0.0, 1.0
    for t in range(total):
        s2 = 0.1 + 0.3 * s2_prev
        z_t = 0.5 * z_prev + math.sqrt(s2) * float(rng.standard_normal())
        z[t] = z_t
        z_prev, s2_prev = z_t, s2
    return z[burn_in:]


@pytest.mark.parametrize("burn_in", [0, BURN_IN])
def test_one_draw_paths_equal_the_scalar_draw_loops(burn_in):
    # equal paths, and the generator is left where the loop left it
    for spec in (MARKET, SMB, HML):
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        assert np.array_equal(ar_garch_path(spec, 130, a, burn_in),
                              _scalar_ar_garch_path(spec, 130, b, burn_in))
        assert a.standard_normal() == b.standard_normal()
    a, b = np.random.default_rng(22), np.random.default_rng(22)
    assert np.array_equal(latent_state_path(130, a, burn_in),
                          _scalar_latent_state_path(130, b, burn_in))
    assert a.standard_normal() == b.standard_normal()


@pytest.mark.parametrize("kind", ERROR_SCENARIO_KINDS)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_simulated_panels_equal_the_scalar_draw_loops(example, kind, monkeypatch):
    import alphasign.dgp as dgp

    spec = AlphaSpec(sparsity=3, strength=2.0)
    new = simulate_panel(example, ErrorScenario(kind), spec, 10, 70, np.random.default_rng(8))
    monkeypatch.setattr(dgp, "ar_garch_path", _scalar_ar_garch_path)
    monkeypatch.setattr(dgp, "latent_state_path", _scalar_latent_state_path)
    old = simulate_panel(example, ErrorScenario(kind), spec, 10, 70, np.random.default_rng(8))
    for name in ("panel", "factors", "alpha", "support"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
