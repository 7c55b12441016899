"""Replication harness: seeding, the cell driver, aggregation, rolling windows."""

import os
import re
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

from alphasign.basis import select_knots_bic
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import ContractError, DegenerateScaleError, SingularDesignError
from alphasign.harness import (
    MAX_FAILURE_SHARE,
    ExperimentConfig,
    _replication_pvalues,
    replication_rng,
    resolve_knots,
    rolling_windows,
    run_experiment,
    run_replication_results,
)
from alphasign.stat_tests import TEST_NAMES, run_all_tests
from conftest import exit_code


def _tiny_config(**overrides):
    base = dict(
        example=1,
        scenario=ErrorScenario("normal"),
        N=10,
        T=70,
        reps=5,
        seed=7,
        knots=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_experiment_config_validation():
    with pytest.raises(ContractError):
        _tiny_config(reps=0)
    with pytest.raises(ContractError):
        _tiny_config(gamma=0.0)
    with pytest.raises(ContractError):
        _tiny_config(gamma=1.0)
    with pytest.raises(ContractError):
        _tiny_config(knots="automatic")
    with pytest.raises(ContractError):
        _tiny_config(knots=-1)


@pytest.mark.parametrize("bad", ["Auto", "automatic", "3", 2.7, 2.0, True, -1, None])
def test_knots_must_be_a_count_or_auto(bad):
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 40, np.random.default_rng(5)
    )
    with pytest.raises(ContractError, match="knots must be a non-negative integer or 'auto'"):
        run_all_tests(sim.panel, sim.factors, knots=bad)
    with pytest.raises(ContractError, match="knots must be a non-negative integer or 'auto'"):
        rolling_windows(sim.panel, sim.factors, window=30, knots=bad)
    with pytest.raises(ContractError, match="knots must be a non-negative integer or 'auto'"):
        _tiny_config(knots=bad)


def test_numpy_integer_knots_are_plain_counts():
    config = _tiny_config(knots=np.int64(1), reps=2)
    assert type(config.knots) is int and config.knots == 1
    report = run_experiment(config, workers=1)
    assert type(report.chosen_knots) is int and report.chosen_knots == 1
    plain = run_experiment(_tiny_config(knots=1, reps=2), workers=1)
    for name in TEST_NAMES:
        assert np.array_equal(report.p_values[name], plain.p_values[name])


def test_replication_rng_streams():
    a = replication_rng(123, 0).random(5)
    b = replication_rng(123, 0).random(5)
    c = replication_rng(123, 1).random(5)
    d = replication_rng(124, 0).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ContractError):
        replication_rng(123, -1)


def _bad_workers_message(workers) -> str:
    """The ContractError text for a worker count below 1 or not an integer."""
    if isinstance(workers, int) and not isinstance(workers, bool):
        return re.escape(f"workers must be >= 1, got {workers}")
    return re.escape(f"workers must be an integer, got {workers!r}")


@pytest.mark.parametrize("workers", [0, -4, 1.5, True])
def test_run_experiment_needs_a_worker(workers):
    with pytest.raises(ContractError, match=_bad_workers_message(workers)):
        run_experiment(_tiny_config(), workers=workers)


def test_resolve_knots_materializes_auto():
    auto = _tiny_config(knots="auto")
    chosen = resolve_knots(auto)
    assert isinstance(chosen, int)
    assert resolve_knots(auto) == chosen  # selection is seeded, hence stable
    assert resolve_knots(_tiny_config(knots=4)) == 4
    # a replication run directly resolves "auto" the way the cell does
    fixed = _tiny_config(knots=chosen)
    for a, b in zip(run_replication_results(auto, 1), run_replication_results(fixed, 1)):
        assert a == b


def test_run_experiment_tiny_cell_is_deterministic():
    config = _tiny_config()
    report = run_experiment(config, workers=1)
    assert report.failures == 0
    assert report.valid
    assert report.chosen_knots == 1
    assert set(report.rejection_rates) == set(TEST_NAMES)
    for name in TEST_NAMES:
        vals = report.p_values[name]
        assert vals.shape == (config.reps,)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        expected = float(np.mean(vals < config.gamma))
        assert report.rejection_rates[name] == pytest.approx(expected, abs=1e-15)
    again = run_experiment(config, workers=1)
    for name in TEST_NAMES:
        assert np.array_equal(report.p_values[name], again.p_values[name])


def test_run_experiment_auto_knots_reports_choice(monkeypatch):
    import alphasign.harness as harness

    real, searches = harness.select_knots_bic, []

    def counting(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "select_knots_bic", counting)
    report = run_experiment(_tiny_config(knots="auto", reps=2), workers=1)
    assert len(searches) == 1  # once for the cell, not once per replication
    assert isinstance(report.chosen_knots, int)
    assert report.chosen_knots >= 1
    assert report.failures == 0


def test_replication_results_align_with_pvalue_dict():
    # the worker's p-value row follows TEST_NAMES, which run_experiment
    # turns into its p_values dict
    config = _tiny_config()
    results = run_replication_results(config, 0)
    assert [r.name for r in results] == list(TEST_NAMES)
    pvals = _replication_pvalues((config, 0))
    assert pvals == tuple(r.p_value for r in results)
    report = run_experiment(_tiny_config(reps=1), workers=1)
    assert {name: p[0] for name, p in report.p_values.items()} == dict(
        zip(TEST_NAMES, pvals)
    )


def test_failed_replications_are_flagged(monkeypatch):
    import alphasign.harness as harness

    real = harness.run_replication_results

    def flaky(config, rep_index):
        if rep_index == 1:
            raise DegenerateScaleError("synthetic failure")
        return real(config, rep_index)

    monkeypatch.setattr(harness, "run_replication_results", flaky)
    config = _tiny_config(reps=4)
    assert _replication_pvalues((config, 1)) is None
    report = run_experiment(config, workers=1)
    assert report.failures == 1
    assert not report.valid  # 1/4 > MAX_FAILURE_SHARE
    assert MAX_FAILURE_SHARE == pytest.approx(0.05)
    for name in TEST_NAMES:
        assert np.isnan(report.p_values[name][1])
        ok = report.p_values[name][[0, 2, 3]]
        assert report.rejection_rates[name] == pytest.approx(
            float(np.mean(ok < config.gamma))
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cell_no_replication_can_run_raises(workers):
    # N = 2 is below the max-type tests' N >= 3: a caller's error, raised
    # with its stage, not four failed replications; 4 reps at 2 workers
    # take the pool
    with pytest.raises(ContractError, match="^MNT: .*needs N >= 3"):
        run_experiment(_tiny_config(N=2, reps=4), workers=workers)


def test_a_pool_starts_only_for_two_or_more_workers_and_reps(monkeypatch):
    import alphasign.pool as pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    assert run_experiment(_tiny_config(reps=1), workers=4).failures == 0
    assert run_experiment(_tiny_config(reps=3), workers=1).failures == 0
    with pytest.raises(AssertionError, match="a pool was started"):
        run_experiment(_tiny_config(reps=2), workers=2)


def test_the_caller_runs_the_first_share_of_the_jobs(monkeypatch):
    import alphasign.pool as pool

    pooled = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def map(self, fn, jobs, chunksize):
            pooled.append((self.max_workers, list(jobs)))
            return map(fn, jobs)

        def shutdown(self):
            pass

    monkeypatch.setattr(pool, "ProcessPoolExecutor", InlinePool)
    assert pool._map_in_order(abs, list(range(-7, 0)), 3) == list(range(7, 0, -1))
    # 7 jobs at 3 workers: this process takes 7 // 3 = 2, a pool of 2 the rest
    assert pooled == [(2, list(range(-5, 0)))]


@pytest.fixture
def pools(monkeypatch):
    """The kept pool's executors: `made` lists each one it constructs and
    `shut` each one it shuts down, in order."""
    import alphasign.pool as pool

    made, shut = [], []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.size = max_workers
            made.append(self)

        def shutdown(self, *args, **kwargs):
            shut.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Recorded)
    return SimpleNamespace(made=made, shut=shut)


def _small_rolling_panel():
    """A 40-row panel whose 25-row windows (16 of them) all run."""
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 40, np.random.default_rng(17)
    )
    return sim.panel, sim.factors


def test_later_pooled_calls_of_one_size_reuse_the_pool(pools):
    Y, F = _small_rolling_panel()
    serial = rolling_windows(Y, F, window=25, knots=1, workers=1)
    first = rolling_windows(Y, F, window=25, knots=1, workers=2)
    second = rolling_windows(Y, F, window=25, knots=1, workers=2)
    assert len(pools.made) == 1 and pools.shut == []
    assert np.array_equal(first.p_values, serial.p_values)
    assert np.array_equal(second.p_values, serial.p_values)
    # a cell at the same worker count runs on the same pool
    run_experiment(_tiny_config(reps=4), workers=2)
    assert len(pools.made) == 1


def test_a_pool_of_another_size_replaces_the_kept_one(pools):
    Y, F = _small_rolling_panel()
    serial = rolling_windows(Y, F, window=25, knots=1, workers=1)
    rolling_windows(Y, F, window=25, knots=1, workers=2)
    three = rolling_windows(Y, F, window=25, knots=1, workers=3)
    assert [p.size for p in pools.made] == [1, 2]
    assert pools.shut == [pools.made[0]]
    assert np.array_equal(three.p_values, serial.p_values)


def test_a_forked_child_never_submits_to_the_parents_pool(pools):
    import alphasign.pool as pool

    assert pool._map_in_order(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
    (kept,) = pools.made
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        code = 1
        try:

            def refuse(*args, **kwargs):
                raise AssertionError("the child used its parent's pool")

            kept.map = kept.submit = kept.shutdown = refuse
            assert pool._pool is None and pool._inherited_pools[-1][1] is kept
            assert pool._map_in_order(abs, [-5, -6, -7, -8], 2) == [5, 6, 7, 8]
            assert pool._pool[1] is not kept
            pool._close_pool()
            code = 0
        finally:
            os._exit(code)
    assert exit_code(pid) == 0
    # the parent's pool is still kept and still serves
    assert pool._map_in_order(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
    assert pools.made == [kept] and pools.shut == []


def test_a_killed_worker_is_replaced_by_a_fresh_pool(pools):
    import alphasign.pool as pool

    Y, F = _small_rolling_panel()
    serial = rolling_windows(Y, F, window=25, knots=1, workers=1)
    rolling_windows(Y, F, window=25, knots=1, workers=2)
    (broken,) = pools.made
    os.kill(broken.submit(os.getpid).result(timeout=60), signal.SIGKILL)
    # the call that meets the broken pool raises and drops it
    with pytest.raises(BrokenProcessPool):
        rolling_windows(Y, F, window=25, knots=1, workers=2)
    assert pool._pool is None and pools.shut == [broken]
    fresh = rolling_windows(Y, F, window=25, knots=1, workers=2)
    assert len(pools.made) == 2 and pools.made[1] is not broken
    assert np.array_equal(fresh.p_values, serial.p_values)


def test_threads_that_share_and_replace_the_kept_pool_get_their_own_results():
    # more threads than cores, asking for pools of two sizes in turn, so
    # that the kept pool is replaced while other threads' jobs are on it
    import alphasign.pool as pool

    results, errors = {}, []

    def worker(k):
        try:
            for r in range(6):
                jobs = list(range(-8 * (k + 1), -8 * k))
                results[k, r] = pool._map_in_order(abs, jobs, 2 + (k + r) % 2)
        except Exception as exc:  # reported below, with the thread's number
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for (k, _), got in results.items():
        assert got == [abs(j) for j in range(-8 * (k + 1), -8 * k)]
    assert len(results) == 24


def test_pool_matches_serial_bit_for_bit():
    config = _tiny_config(reps=4)
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)  # 4 reps at 2 workers take the pool
    assert pooled.failures == serial.failures == 0
    assert pooled.chosen_knots == serial.chosen_knots
    assert list(pooled.p_values) == list(serial.p_values) == list(TEST_NAMES)
    for name in TEST_NAMES:
        assert np.array_equal(pooled.p_values[name], serial.p_values[name])
    assert pooled.rejection_rates == serial.rejection_rates


def test_rolling_windows_mechanics():
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 30, np.random.default_rng(31)
    )
    rolling = rolling_windows(sim.panel, sim.factors, window=25, knots=1)
    assert np.array_equal(rolling.window_starts, np.arange(1, 7))
    assert rolling.p_values.shape == (6, len(TEST_NAMES))
    assert np.all((rolling.p_values >= 0.0) & (rolling.p_values <= 1.0))
    assert set(rolling.rejection_ratios) == {0.01, 0.05}
    for level, ratios in rolling.rejection_ratios.items():
        for j, name in enumerate(rolling.tests):
            expected = float(np.mean(rolling.p_values[:, j] < level))
            assert ratios[name] == pytest.approx(expected)
    single = rolling_windows(sim.panel, sim.factors, window=30, knots=1)
    assert len(single.window_starts) == 1


def test_rolling_window_guards():
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 30, np.random.default_rng(31)
    )
    with pytest.raises(ContractError):
        rolling_windows(sim.panel, sim.factors, window=31, knots=1)
    with pytest.raises(ContractError):
        rolling_windows(sim.panel, sim.factors, window=1, knots=1)
    with pytest.raises(ContractError):
        rolling_windows(sim.panel, sim.factors, window=20, tests=("CSS", "NOPE"), knots=1)
    with pytest.raises(ContractError):
        rolling_windows(sim.panel[:20], sim.factors, window=10, knots=1)
    # a non-finite panel is refused on entry, not inside the first window's fit
    broken = sim.panel.copy()
    broken[-1, 0] = np.nan
    with pytest.raises(ContractError, match="^panel contains non-finite values$"):
        rolling_windows(broken, sim.factors, window=10, knots=1)


@pytest.mark.parametrize("window", [20.0, True, "20", np.float64(20.0)])
def test_rolling_window_must_be_an_integer(window, monkeypatch):
    import alphasign.harness as harness

    def no_window(*args, **kwargs):
        raise AssertionError("a window ran")

    monkeypatch.setattr(harness, "run_all_tests", no_window)
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 30, np.random.default_rng(31)
    )
    with pytest.raises(ContractError, match="^window must be an integer, got"):
        rolling_windows(sim.panel, sim.factors, window=window, knots=1, workers=1)


def test_rolling_windows_with_periodic_panel_repeat():
    # a panel that repeats with period k gives identical windows w and w + k
    rng = np.random.default_rng(13)
    block_y = rng.standard_normal((10, 5))
    block_f = rng.standard_normal((10, 1))
    Y = np.tile(block_y, (3, 1))
    F = np.tile(block_f, (3, 1))
    rolling = rolling_windows(Y, F, window=20, knots=1, tests=("CSS", "CSM"))
    assert rolling.p_values.shape == (11, 2)
    assert np.allclose(rolling.p_values[0], rolling.p_values[10], atol=1e-12)


def _degenerate_window_panel():
    """A 40-row panel whose asset 2 is zero on rows 9-33 (1-based) only, so
    that of its 25-row windows exactly window 9 has a constant column."""
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 6, 40, np.random.default_rng(31)
    )
    Y = sim.panel.copy()
    Y[8:33, 2] = 0.0
    return Y, sim.factors


@pytest.mark.parametrize("workers", [0, -4, 1.5, True])
def test_rolling_windows_need_a_worker(workers):
    Y, F = _degenerate_window_panel()
    with pytest.raises(ContractError, match=_bad_workers_message(workers)):
        rolling_windows(Y, F, window=25, knots=1, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_window_is_named(workers):
    # 16 windows at 2 workers take the pool, which pickles the error back
    Y, F = _degenerate_window_panel()
    for w in range(16):
        if w != 8:
            run_all_tests(Y[w : w + 25], F[w : w + 25], knots=1)
    with pytest.raises(DegenerateScaleError) as info:
        run_all_tests(Y[8:33], F[8:33], knots=1)
    with pytest.raises(DegenerateScaleError) as named:
        rolling_windows(Y, F, window=25, knots=1, workers=workers)
    assert str(named.value) == f"window 9 (rows 9-33): {info.value}"


def test_a_rolling_pool_starts_only_for_two_or_more_workers_and_windows(monkeypatch):
    import alphasign.pool as pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    Y, F = _degenerate_window_panel()
    assert rolling_windows(Y[:30], F[:30], window=30, knots=1, workers=4).p_values.shape[0] == 1
    assert rolling_windows(Y[:30], F[:30], window=25, knots=1, workers=1).p_values.shape[0] == 6
    with pytest.raises(AssertionError, match="a pool was started"):
        rolling_windows(Y[:30], F[:30], window=29, knots=1, workers=2)


def test_rolling_pool_matches_serial_and_direct_batteries_bit_for_bit():
    sim = simulate_panel(
        1, ErrorScenario("t"), AlphaSpec(), 12, 90, np.random.default_rng(8)
    )
    serial = rolling_windows(sim.panel, sim.factors, window=70, workers=1)
    pooled = rolling_windows(sim.panel, sim.factors, window=70, workers=2)
    assert np.array_equal(pooled.p_values, serial.p_values)
    assert pooled.rejection_ratios == serial.rejection_ratios
    for w in range(21):
        direct = run_all_tests(sim.panel[w : w + 70], sim.factors[w : w + 70])
        assert list(pooled.p_values[w]) == [r.p_value for r in direct]


@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_knot_search_serves_windows_with_different_usable_candidates(
    zero_tail_panel, workers
):
    # windows 1-24 keep 7 down to 1 usable candidates (see the fixture), so
    # most chunks of the stacked search are rescored window by window
    Y, F = zero_tail_panel
    rolled = rolling_windows(Y[:63], F[:63], window=40, workers=workers)
    for w in range(24):
        direct = run_all_tests(Y[w : w + 40], F[w : w + 40], knots="auto")
        assert list(rolled.p_values[w]) == [r.p_value for r in direct]


def test_rolling_windows_equal_batteries_at_their_chosen_knots(refused_count_panel):
    # windows 9-11 share a chunk of the stacked search with window 12, and
    # their best-scored counts have designs the sum-type sign test refuses
    Y, F = refused_count_panel
    rolled = rolling_windows(Y[:52], F[:52], window=40, workers=1)
    for w in range(13):
        Yw, Fw = Y[w : w + 40], F[w : w + 40]
        fixed = run_all_tests(Yw, Fw, knots=select_knots_bic(Yw, Fw))
        assert list(rolled.p_values[w]) == [r.p_value for r in fixed]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_window_with_no_usable_knot_candidate_is_named(zero_tail_panel, workers):
    # from window 26 on no candidate is usable: run alone, the window raises
    # the direct battery's error, under its stage and named
    Y, F = zero_tail_panel
    with pytest.raises(SingularDesignError) as info:
        run_all_tests(Y[25:65], F[25:65], knots="auto")
    assert str(info.value).startswith("knot-selection: no knot candidate produced a usable design")
    with pytest.raises(SingularDesignError) as named:
        rolling_windows(Y[25:], F[25:], window=40, workers=workers)
    assert str(named.value) == f"window 1 (rows 1-40): {info.value}"
