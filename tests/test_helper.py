"""The kept helper thread: a large battery's knot search and gram on two
threads give every bit the one-thread battery gives, raise its errors,
survive a fork and stay out of the jobs of the worker pool."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from alphasign import basis, pool
from alphasign.basis import SplineConfig, _halves, _score_knot_candidates, default_knot_candidates
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import AlphaSignError, ConvergenceError
from alphasign.harness import ExperimentConfig, rolling_windows, run_experiment
from alphasign.stat_tests import run_all_tests
from conftest import exit_code

SERIAL, SHARED = math.inf, 0  # the helper's gate, shut and open to any panel


@pytest.fixture(scope="module")
def large_panel():
    """An example 1 panel above the default gate: N = 400, T = 350."""
    sim = simulate_panel(1, ErrorScenario("t"), AlphaSpec(), 400, 350, np.random.default_rng(11))
    assert sim.panel.size >= pool._MIN_HELPER_CELLS
    return sim.panel, sim.factors


@pytest.fixture
def helper_calls(monkeypatch):
    """The threads that hand work to the kept helper, one entry per hand-over."""
    calls, real = [], pool._helper_for

    def recording(cells):
        helper = real(cells)
        if helper is not None:
            calls.append(threading.current_thread().name)
        return helper

    monkeypatch.setattr(pool, "_helper_for", recording)
    return calls


def _plain(value):
    """An error as (class, message), which compare equal; a score as is."""
    return (type(value), str(value)) if isinstance(value, Exception) else value


def _batteries(panel, factors):
    """Each test's statistic and p-value at "auto" and at two knots, or
    the battery's error."""
    out = []
    for knots in ("auto", 2):
        try:
            results = run_all_tests(panel, factors, knots=knots)
        except AlphaSignError as exc:
            out.append(_plain(exc))
            continue
        out.append(np.array([[math.nan if r.statistic is None else r.statistic, r.p_value]
                             for r in results]))
    return out


def _tables(panel, factors, candidates):
    """Each panel's knot table, errors as (class, message)."""
    tables = _score_knot_candidates(panel, factors, candidates, 3)
    return [{n: _plain(s) for n, s in table.items()} for table in tables]


def _assert_same(serial, shared):
    for a, b in zip(serial, shared, strict=True):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True)
        else:
            assert a == b


@pytest.mark.parametrize("example", [1, 2, 3])
@pytest.mark.parametrize("N, T", [(12, 120), (1000, 600)])
def test_two_threads_give_the_one_thread_bits(example, N, T, monkeypatch, helper_calls):
    sim = simulate_panel(example, ErrorScenario("t"), AlphaSpec(), N, T, np.random.default_rng(example))
    candidates = default_knot_candidates(T)
    monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", SERIAL)
    serial = _batteries(sim.panel, sim.factors) + _tables(sim.panel, sim.factors, candidates)
    assert helper_calls == []
    monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", SHARED)
    shared = _batteries(sim.panel, sim.factors) + _tables(sim.panel, sim.factors, candidates)
    # the search and the gram of each battery, and the table's search
    assert len(helper_calls) == 4
    _assert_same(serial, shared)


def test_unusable_candidates_on_both_threads_keep_their_errors(zero_tail_panel, monkeypatch):
    Y, F = zero_tail_panel
    candidates = default_knot_candidates(40)
    theirs, mine = _halves([SplineConfig(n, 3) for n in candidates])
    # window 13 (rows 13-52) cannot use counts 5-7; window 25 no count at all
    assert {c.interior_knots for c in theirs} & {5, 6, 7}
    assert {c.interior_knots for c in mine} & {5, 6, 7}
    stack = np.lib.stride_tricks.sliding_window_view(Y, 40, axis=0).transpose(0, 2, 1)
    F_stack = np.lib.stride_tricks.sliding_window_view(F, 40, axis=0).transpose(0, 2, 1)
    runs = {}
    for gate in (SERIAL, SHARED):
        monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", gate)
        runs[gate] = [
            *_batteries(Y[12:52], F[12:52]),
            *_batteries(Y[24:64], F[24:64]),
            *_tables(Y[12:52], F[12:52], candidates),
            *_tables(stack, F_stack, candidates),  # the stacked search of every window
        ]
    _assert_same(runs[SERIAL], runs[SHARED])
    window_13_table = runs[SHARED][4]
    assert [n for n, s in window_13_table.items() if isinstance(s, tuple)] == [5, 6, 7]
    assert isinstance(runs[SHARED][2], tuple)  # window 25 has no usable count


def test_a_candidates_other_error_is_the_first_in_candidate_order(small_sim, monkeypatch):
    candidates = range(1, 9)
    theirs, mine = _halves([SplineConfig(n, 3) for n in candidates])
    # one count on each thread; the helper's is the later one, and it fails
    # whichever thread finishes first
    first = min(c.interior_knots for c in mine)
    later = min(c.interior_knots for c in theirs if c.interior_knots > first)
    real = basis.bic_score

    def failing(panel, factors, config, **kwargs):
        if config.interior_knots in (first, later):
            raise RuntimeError(f"n={config.interior_knots}")
        return real(panel, factors, config, **kwargs)

    monkeypatch.setattr(basis, "bic_score", failing)
    for gate in (SERIAL, SHARED):
        monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", gate)
        with pytest.raises(RuntimeError, match=f"^n={first}$"):
            basis.select_knots_bic(small_sim.panel, small_sim.factors, candidates=candidates)


def test_both_raises_the_serial_orders_first_error_after_both_finish():
    done = []

    def first():
        time.sleep(0.05)
        done.append(threading.current_thread().name)
        raise KeyError("first")

    def second():
        raise ValueError("second")

    cells = pool._MIN_HELPER_CELLS
    with pytest.raises(KeyError, match="first"):
        pool._both(first, second, cells)
    assert done[0].startswith("alphasign-helper")
    with pytest.raises(ValueError, match="second"):
        pool._both(lambda: done.append("ok"), second, cells)
    assert done[1] == "ok"
    assert pool._both(lambda: 1, lambda: 2, cells) == (1, 2)


def test_batteries_on_several_threads_share_one_helper(small_sim, monkeypatch):
    # four callers at once, switching threads as often as the interpreter
    # can: one helper is started, and every battery keeps its bits
    monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", SERIAL)
    expected = [r.p_value for r in run_all_tests(small_sim.panel, small_sim.factors, knots="auto")]
    monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", SHARED)
    monkeypatch.setattr(pool, "_helper", None)  # started by the first caller below
    helpers, results = set(), []

    def caller():
        for _ in range(5):
            results.append([r.p_value for r in run_all_tests(small_sim.panel, small_sim.factors, knots="auto")])
            helpers.add(pool._helper)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(helpers) == 1 and None not in helpers
    assert results == [expected] * 20


def test_an_unconverged_spatial_median_still_raises_from_its_stage(large_panel, helper_calls):
    Y, F = large_panel
    with pytest.raises(ConvergenceError, match="^spatial-median: not converged after max_iter=1"):
        run_all_tests(Y, F, knots=2, max_iter=1)
    assert helper_calls == ["MainThread"]  # the gram was formed beside it


def test_a_forked_child_runs_a_large_battery_without_the_parents_helper(large_panel):
    Y, F = large_panel
    expected = [r.p_value for r in run_all_tests(Y, F, knots="auto")]
    kept = pool._helper
    assert kept is not None
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        code = 1
        try:

            def refuse(*args, **kwargs):
                raise AssertionError("the child used its parent's helper")

            kept.submit = refuse
            assert pool._helper is None
            assert [r.p_value for r in run_all_tests(Y, F, knots="auto")] == expected
            assert pool._helper is not None and pool._helper is not kept
            code = 0
        finally:
            os._exit(code)
    assert exit_code(pid, timeout=120) == 0
    assert pool._helper is kept


def test_no_job_of_the_pool_hands_work_to_the_helper(monkeypatch):
    pool._close_pool()  # the pool's workers must fork with the spy below
    real = pool._helper_for

    def refusing(cells):
        helper = real(cells)
        if helper is not None:
            raise AssertionError(f"process {os.getpid()} handed work to the helper")
        return helper

    monkeypatch.setattr(pool, "_helper_for", refusing)
    monkeypatch.setattr(pool, "_MIN_HELPER_CELLS", SHARED)
    sim = simulate_panel(1, ErrorScenario("normal"), AlphaSpec(), 6, 40, np.random.default_rng(17))
    # outside a job the battery does hand work over
    with pytest.raises(AssertionError, match="handed work to the helper"):
        run_all_tests(sim.panel, sim.factors, knots="auto")
    config = ExperimentConfig(
        example=1, scenario=ErrorScenario("normal"), N=10, T=70, reps=4, seed=7, knots=1
    )
    for workers in (1, 2):  # the caller's share, and a pool worker's
        assert run_experiment(config, workers=workers).failures == 0
        rolled = rolling_windows(sim.panel, sim.factors, window=25, knots="auto", workers=workers)
        assert np.all(np.isfinite(rolled.p_values))
