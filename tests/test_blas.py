"""OpenBLAS runs at one thread inside a battery and a replication, and gets
its count back; glibc's heap keeps a battery's pages for the next one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alphasign
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


# A panel of the paper's size, N = 200 and T = 350; the scripts below run
# in a fresh interpreter, so the heap starts as a program's heap does.
_PANEL = """
import json, resource
import numpy as np
from alphasign import AlphaSpec, ErrorScenario, blas, run_all_tests, simulate_panel
sim = simulate_panel(1, ErrorScenario("t"), AlphaSpec(), 200, 350, np.random.default_rng(1))
"""

# ctypes finds no mallopt in the C library, as on a libc without one.
_NO_MALLOPT = """
import ctypes

class _NoMallopt(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            raise AttributeError(name)
        return super().__getattr__(name)

ctypes.CDLL = _NoMallopt
"""


def _fresh_python(script: str) -> list:
    """The JSON value a script prints last, run in a new interpreter that
    imports this alphasign."""
    src = str(Path(alphasign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_the_heap_policy_goes_through_mallopt(monkeypatch):
    calls = []
    monkeypatch.setattr(blas, "_mallopt", lambda: lambda *args: calls.append(args) or 1)
    assert blas._set_heap_policy()
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
    # a refused value is reported, and the others are still tried
    calls.clear()
    monkeypatch.setattr(blas, "_mallopt", lambda: lambda *args: calls.append(args) and 0)
    assert not blas._set_heap_policy()
    assert len(calls) == 2
    monkeypatch.setattr(blas, "_mallopt", lambda: None)
    assert not blas._set_heap_policy()


@pytest.mark.skipif(not blas._heap_policy_set, reason="the C library takes no mallopt policy")
def test_a_battery_does_not_fault_its_working_set_back_in():
    # glibc's default trims the freed heap top after each battery, and the
    # next battery faults it back in: about 600 faults per battery at this size
    faults = _fresh_python(_PANEL + """
run_all_tests(sim.panel, sim.factors, knots=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    run_all_tests(sim.panel, sim.factors, knots=2)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
""")
    assert faults / 10 < 50


def test_without_mallopt_import_and_a_battery_are_unchanged():
    heap_policy_set, p_values = _fresh_python(_NO_MALLOPT + _PANEL + """
print(json.dumps([blas._heap_policy_set,
                  [r.p_value for r in run_all_tests(sim.panel, sim.factors, knots=2)]]))
""")
    sim = dgp.simulate_panel(
        1, ErrorScenario("t"), dgp.AlphaSpec(), 200, 350, np.random.default_rng(1)
    )
    assert heap_policy_set is False
    assert p_values == [r.p_value for r in stat_tests.run_all_tests(sim.panel, sim.factors, knots=2)]
