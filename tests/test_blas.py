"""OpenBLAS runs at one thread inside a battery and gets its count back."""

import pytest

from alphasign import basis, blas, stat_tests

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
