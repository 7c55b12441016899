"""OpenBLAS runs at one thread inside a battery and a replication, and gets
its count back."""

import numpy as np
import pytest

from alphasign import basis, blas, dgp, stat_tests
from alphasign.dgp import ErrorScenario
from alphasign.harness import ExperimentConfig, _simulate, replication_rng, run_replication_results

controls = blas._openblas_controls()
needs_openblas = pytest.mark.skipif(controls is None, reason="numpy is not linked to a findable OpenBLAS")


@needs_openblas
def test_one_blas_thread_sets_and_restores_the_count():
    get, set_ = controls
    before = get()
    set_(2)
    try:
        with blas.one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with blas.one_blas_thread():
                raise RuntimeError("boom")
        assert get() == 2
    finally:
        set_(before)


@needs_openblas
def test_battery_runs_at_one_blas_thread(small_sim, monkeypatch):
    get, set_ = controls
    seen = []
    original = stat_tests.spatial_median_scale

    def recording(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(stat_tests, "spatial_median_scale", recording)
    before = get()
    set_(2)
    try:
        stat_tests.run_all_tests(small_sim.panel, small_sim.factors, knots=2)
        assert seen == [1] and get() == 2
    finally:
        set_(before)


@needs_openblas
def test_knot_search_runs_at_one_blas_thread(small_sim, monkeypatch):
    # the CLI's knot table and the harness call the search outside a battery
    get, set_ = controls
    seen = []
    original = basis.bic_score

    def recording(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(basis, "bic_score", recording)
    before = get()
    set_(2)
    try:
        basis.select_knots_bic(small_sim.panel, small_sim.factors, candidates=[1, 2])
        assert seen == [1, 1] and get() == 2
    finally:
        set_(before)


@needs_openblas
def test_a_replication_does_not_depend_on_the_callers_thread_count():
    # at N = 400 a simulated panel drawn at two OpenBLAS threads differs
    # from one drawn at one thread in the last bits, so a replication runs
    # its simulation as well as its battery at one thread
    config = ExperimentConfig(
        example=1, scenario=ErrorScenario("normal"), N=400, T=350, reps=1, seed=1, knots=2
    )
    get, set_ = controls
    before = get()
    p_values = {}
    try:
        for threads in (2, 1):
            set_(threads)
            p_values[threads] = [r.p_value for r in run_replication_results(config, 0)]
            assert get() == threads
    finally:
        set_(before)
    assert p_values[2] == p_values[1]


@needs_openblas
def test_error_covariance_factors_do_not_depend_on_the_thread_count():
    # the factors are cached per N, so the thread count of the first call
    # would otherwise reach every later draw at that N
    get, set_ = controls
    before = get()
    factors = {}
    try:
        for threads in (2, 1):
            set_(threads)
            dgp._error_cov_factors.cache_clear()
            factors[threads] = dgp._error_cov_factors(200)
    finally:
        set_(before)
        dgp._error_cov_factors.cache_clear()
    for two, one in zip(factors[2], factors[1]):
        assert np.array_equal(two, one)


@needs_openblas
@pytest.mark.parametrize("N", [400, 1000])
def test_a_direct_draw_is_the_harness_draw(N):
    # at these N a two-thread draw differs from a one-thread draw in the
    # last bits, so simulate_panel runs at one thread, as the harness does
    config = ExperimentConfig(
        example=1, scenario=ErrorScenario("t"), N=N, T=120, reps=3, seed=4, knots=2
    )
    get, set_ = controls
    before = get()
    try:
        set_(2)
        direct = dgp.simulate_panel(
            1, config.scenario, config.alpha_spec, N, 120, replication_rng(config.seed, 2)
        )
        assert get() == 2
    finally:
        set_(before)
    with blas.one_blas_thread():  # as run_replication_results draws it
        drawn = _simulate(config, 2)
    assert np.array_equal(direct.panel, drawn.panel)
    assert np.array_equal(direct.factors, drawn.factors)
