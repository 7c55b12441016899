"""The knot criterion against a reference that scores each candidate by a
full fit: build the design pair, fit the panel, and average the squared
uncentered residuals."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from alphasign import basis
from alphasign.basis import (
    RCOND_MIN,
    SplineConfig,
    _bic_penalty,
    _knot_search,
    _uncentered_twins,
    bic_score,
    build_design,
    default_knot_candidates,
    fit_panel,
    select_knots_bic,
)
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import ContractError, DegenerateStatisticError, SingularDesignError
from alphasign.stat_tests import run_all_tests

from conftest import design_pair


def _reference_bic_score(panel, factors, config):
    Y = np.asarray(panel, dtype=float)
    fit = fit_panel(Y, build_design(factors, config))
    rss_mean = float(np.mean(fit.residuals_tilde ** 2))
    if rss_mean <= 0.0:
        return -math.inf
    F = np.asarray(factors, dtype=float).reshape(Y.shape[0], -1)
    return math.log(rss_mean) + _bic_penalty(Y.shape[1], Y.shape[0], F.shape[1], config)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_bic_score_matches_full_fit_reference(example):
    sim = simulate_panel(
        example, ErrorScenario("t"), AlphaSpec(sparsity=3, strength=2.0), 60, 200,
        np.random.default_rng(500 + example),
    )
    candidates = default_knot_candidates(sim.panel.shape[0])
    got, ref = {}, {}
    for n in candidates:
        config = SplineConfig(n, 3)
        got[n] = bic_score(sim.panel, sim.factors, config)
        ref[n] = _reference_bic_score(sim.panel, sim.factors, config)
        assert got[n] == pytest.approx(ref[n], abs=1e-12), n
    winner = min(sorted(ref), key=ref.__getitem__)
    assert select_knots_bic(sim.panel, sim.factors) == winner


def test_bic_score_near_exact_fit_matches_reference():
    # Y lies in the uncentered design span up to 1e-9 noise, so the
    # residual sum of squares is about 1e-18 of the panel's; the score
    # must still agree with the full fit to 1e-12.
    rng = np.random.default_rng(77)
    factors = rng.standard_normal((120, 2))
    config = SplineConfig(3, 3)
    Z_tilde = design_pair(build_design(factors, config))[1]
    Y = Z_tilde @ rng.standard_normal((Z_tilde.shape[1], 15))
    Y += 1e-9 * rng.standard_normal(Y.shape)
    ref = _reference_bic_score(Y, factors, config)
    assert ref < -30.0
    assert bic_score(Y, factors, config) == pytest.approx(ref, abs=1e-12)


def test_unusable_candidates_keep_the_design_messages():
    rng = np.random.default_rng(1)
    T = 60
    f = rng.standard_normal((T, 1))
    Y = rng.standard_normal((T, 4))
    u = np.arange(1, T + 1) / T
    cases = {
        # collinear factors fail the centered twin at the second factor block
        "factor 2 block": np.hstack([f, f]),
        # 1 / (1 + u^2) times the spline 1 + u^2 is the constant, so only
        # the uncentered twin, whose intercept block holds the constant too,
        # is rank deficient
        "uncentered design matrix": (1.0 / (1.0 + u**2))[:, None],
    }
    config = SplineConfig(2, 3)
    for fragment, factors in cases.items():
        with pytest.raises(SingularDesignError, match=fragment) as info:
            build_design(factors, config)
        message = str(info.value)
        with pytest.raises(SingularDesignError) as info:
            bic_score(Y, factors, config)
        assert str(info.value) == message
        with pytest.raises(SingularDesignError, match="no knot candidate") as info:
            select_knots_bic(Y, factors, candidates=[2])
        assert message in str(info.value)


def _tables(panel, factors, candidates):
    """Each panel's knot table from one search (`basis._knot_search`)."""
    return [search.table for search in _knot_search(panel, factors, candidates, 3)]


def _windows(Y, F, window):
    """The (W, window, N) and (W, window, p) stacks of every window, as views."""
    return tuple(
        sliding_window_view(a, window, axis=0).transpose(0, 2, 1) for a in (Y, F)
    )


def test_bic_score_on_a_stack_equals_each_window_bit_for_bit():
    sim = simulate_panel(
        2, ErrorScenario("t"), AlphaSpec(), 30, 130, np.random.default_rng(9)
    )
    Ys, Fs = _windows(sim.panel, sim.factors, 120)
    for n in (1, 4, 7):
        config = SplineConfig(n, 3)
        stacked = bic_score(Ys, Fs, config)
        alone = [bic_score(sim.panel[w : w + 120], sim.factors[w : w + 120], config)
                 for w in range(11)]
        assert stacked.shape == (11,)
        assert np.array_equal(stacked, alone), n
        assert np.array_equal(bic_score(Ys[3:7], Fs[3:7], config), stacked[3:7])
    assert isinstance(bic_score(sim.panel, sim.factors, SplineConfig(2, 3)), float)


def test_bic_score_on_a_stack_raises_the_first_unusable_windows_error(zero_tail_panel):
    Y, F = zero_tail_panel
    Ys, Fs = _windows(Y, F, 40)
    config = SplineConfig(3, 3)  # usable up to window 15 of 31
    assert np.all(np.isfinite(bic_score(Ys[:15], Fs[:15], config)))
    with pytest.raises(SingularDesignError) as alone:
        bic_score(Y[15:55], F[15:55], config)
    with pytest.raises(SingularDesignError) as stacked:
        bic_score(Ys[10:18], Fs[10:18], config)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ContractError, match="needs factors of shape"):
        bic_score(Ys, F, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_value_in_one_window_of_a_stack_is_refused(bad):
    # the value sits in the last row, so only the last window holds it; the
    # stack is refused before any design, whether usable (n = 1) or one
    # with more columns than rows (n = 20)
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 8, 60, np.random.default_rng(4)
    )
    Y = sim.panel.copy()
    Y[-1, 1] = bad
    Ys, Fs = _windows(Y, sim.factors, 50)
    for n in (1, 20):
        with pytest.raises(ContractError, match="^panel contains non-finite values$"):
            bic_score(Ys, Fs, SplineConfig(n, 3))
    with pytest.raises(ContractError, match="^panel contains non-finite values$"):
        _knot_search(Ys, Fs, default_knot_candidates(50), 3)
    assert np.all(np.isfinite(bic_score(Ys[:-1], Fs[:-1], SplineConfig(1, 3))))


def test_a_finite_stack_whose_squared_norm_overflows_is_scored():
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 8, 60, np.random.default_rng(4)
    )
    Y = sim.panel.copy()
    Y[-1] = 1e200  # finite, but its square overflows
    Ys, Fs = _windows(Y, sim.factors, 50)
    config = SplineConfig(2, 3)
    stacked = bic_score(Ys, Fs, config)
    alone = [bic_score(Y[w : w + 50], sim.factors[w : w + 50], config) for w in range(11)]
    assert np.array_equal(stacked, alone, equal_nan=True)
    assert np.all(np.isfinite(stacked[:-1]))


@pytest.mark.parametrize("windows", [1, 5])
def test_a_search_takes_each_panels_squared_norm_once(windows, monkeypatch):
    sim = simulate_panel(
        1, ErrorScenario("t"), AlphaSpec(), 12, 64, np.random.default_rng(6)
    )
    Ys, Fs = _windows(sim.panel, sim.factors, 64 - windows + 1)
    if windows == 1:
        Ys, Fs = Ys[0], Fs[0]  # a single panel is a stack of one
    T, N = Ys.shape[-2:]
    candidates = range(1, 9)
    expected = _tables(Ys, Fs, candidates)
    vdot, shapes = np.vdot, []

    def spy(a, b):
        shapes.append(np.shape(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    scores = _tables(Ys, Fs, candidates)
    assert shapes.count((T, N)) == windows  # not once per candidate
    assert scores == expected


def test_stacked_search_picks_each_windows_own_knots(zero_tail_panel):
    # the factor's zero tail makes the usable candidates differ from window
    # to window, down to none, so the stack is rescored window by window
    Y, F = zero_tail_panel
    Ys, Fs = _windows(Y, F, 40)
    candidates = default_knot_candidates(40)
    searches = _knot_search(Ys, Fs, candidates, 3)
    assert len(searches) == Ys.shape[0]
    usable_sets = set()
    for w, search in enumerate(searches):
        scores = search.table
        alone = _tables(Y[w : w + 40], F[w : w + 40], candidates)
        assert len(alone) == 1 and list(scores) == list(alone[0]) == list(candidates)
        for n, own in alone[0].items():
            if isinstance(own, Exception):
                assert type(scores[n]) is type(own) and str(scores[n]) == str(own)
            else:
                assert scores[n] == own
        usable_sets.add(tuple(n for n, s in scores.items() if not isinstance(s, Exception)))
        try:
            expected = select_knots_bic(Y[w : w + 40], F[w : w + 40])
        except SingularDesignError as exc:
            with pytest.raises(SingularDesignError) as info:
                search.design()
            assert str(info.value) == str(exc)
        else:
            assert search.design().config.interior_knots == expected
    assert {(1, 2, 3, 4, 5, 6, 7), (1,), ()} <= usable_sets and len(usable_sets) >= 5


def test_a_stack_takes_its_default_range_from_the_window_length():
    # four 300-row windows: the default range follows T = 300 (counts 1-8),
    # not the stack's length W = 4; select_knots_bic returns one count, so
    # it takes one panel and refuses a stack
    sim = simulate_panel(1, ErrorScenario("t"), AlphaSpec(), 20, 303, np.random.default_rng(8))
    Ys, Fs = _windows(sim.panel, sim.factors, 300)
    searches = _knot_search(Ys, Fs)
    for w, search in enumerate(searches):
        assert list(search.table) == list(default_knot_candidates(300)) == list(range(1, 9))
        assert search.design().config.interior_knots == select_knots_bic(Ys[w], Fs[w])
    with pytest.raises(ContractError, match="^panel must be a T x N matrix, got ndim=3$"):
        select_knots_bic(Ys, Fs)


@pytest.mark.parametrize(
    "window, refused, chosen, runs",
    [(9, 7, 5, range(1, 7)), (10, 7, 6, range(1, 7)), (11, 6, 5, range(1, 6))],
)
def test_a_count_the_sign_test_refuses_is_not_chosen(
    refused_count_panel, window, refused, chosen, runs
):
    Y, F = refused_count_panel
    Yw, Fw = Y[window - 1 : window + 39], F[window - 1 : window + 39]
    with pytest.raises(DegenerateStatisticError, match="^CSS: "):
        run_all_tests(Yw, Fw, knots=refused)
    for n in runs:
        run_all_tests(Yw, Fw, knots=n)
    search = _knot_search(Yw, Fw, default_knot_candidates(40), 3)[0]
    # the refused count scored best among the counts whose designs exist;
    # the search marks it unusable with the sign test's own error
    assert isinstance(search.table[refused], DegenerateStatisticError)
    assert search.design().config.interior_knots == select_knots_bic(Yw, Fw) == chosen
    knotted = {r.name: r.p_value for r in run_all_tests(Yw, Fw, knots=chosen)}
    assert {r.name: r.p_value for r in run_all_tests(Yw, Fw)} == knotted


def test_a_window_whose_only_usable_count_is_refused_fails_in_knot_selection(zero_tail_panel):
    # window 25's n = 1 design has leverage 1 at its last non-zero factor row
    Y, F = zero_tail_panel
    with pytest.raises(SingularDesignError) as info:
        run_all_tests(Y[24:64], F[24:64])
    assert str(info.value).startswith(
        "knot-selection: no knot candidate produced a usable design: n=1: design leverage is 1"
    )


def _zero_tail_tables():
    """Each knot table (counts 0-8) of the zero-tail probe: examples 1-3,
    N = 8, T = 70, the factors zeroed from row 31 or 46 on, the whole panel
    and its 40-row windows starting every third row. The designs run from
    well conditioned to exactly singular."""
    tables = []
    for example in (1, 2, 3):
        sim = simulate_panel(
            example, ErrorScenario("normal"), AlphaSpec(), 8, 70, np.random.default_rng(0)
        )
        for zero in (30, 45):
            F = sim.factors.copy()
            F[zero:] = 0.0
            tables += _tables(sim.panel, F, range(9))
            Ys, Fs = _windows(sim.panel, F, 40)
            tables += _tables(Ys[::3], Fs[::3], range(9))
    return tables


@pytest.fixture
def exact_checks(monkeypatch):
    """The outcome of each exact rank check from here on: True when it
    accepts the design, False when it raises."""
    outcomes = []
    check = basis._exact_rank_check

    def recording_check(*args):
        try:
            check(*args)
        except SingularDesignError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(basis, "_exact_rank_check", recording_check)
    return outcomes


def test_the_rank_screen_agrees_with_the_exact_check(exact_checks, monkeypatch):
    # a design the screen certifies skips the singular values; the
    # reference runs the exact check on every candidate, and the tables
    # (scores, error classes and messages) must be the same
    screened = _zero_tail_tables()
    # the screen certified every usable design: each exact check refused
    assert exact_checks and not any(exact_checks)
    exact_checks.clear()
    monkeypatch.setattr(basis, "_SCREEN_MARGIN", math.inf)
    reference = _zero_tail_tables()
    assert len(screened) == len(reference) == 72
    usable = errors = 0
    for got, want in zip(screened, reference):
        assert list(got) == list(want)
        for n, score in got.items():
            if isinstance(want[n], Exception):
                errors += 1
                assert type(score) is type(want[n]) and str(score) == str(want[n])
            else:
                usable += 1
                assert score == want[n]
    assert usable > 100 and errors > 100
    assert exact_checks.count(True) >= usable


def test_a_design_near_the_rank_threshold_takes_the_exact_check(exact_checks):
    # the factor is 1 + 3e-11 g, so its block nearly repeats the intercept
    # block: rcond(Z_tilde) is about 5e-12, above RCOND_MIN, but the
    # certified bound is below twice RCOND_MIN
    rng = np.random.default_rng(3)
    f = (1.0 + 3e-11 * rng.standard_normal(80))[:, None]
    config = SplineConfig(1, 3)
    s = np.linalg.svd(_uncentered_twins(f[None], config)[0], compute_uv=False)
    assert RCOND_MIN < s[-1] / s[0] < 1e-10
    build_design(f, config)
    assert math.isfinite(bic_score(rng.standard_normal((80, 5)), f, config))
    assert exact_checks == [True, True]


def test_the_common_path_takes_no_singular_value_call(monkeypatch):
    # a 4-window chunk of a rolling run: its search, each window's chosen
    # design and battery, and a battery at a fixed count
    sim = simulate_panel(1, ErrorScenario("t"), AlphaSpec(), 20, 303, np.random.default_rng(8))
    Ys, Fs = _windows(sim.panel, sim.factors, 300)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    searches = _knot_search(Ys, Fs, default_knot_candidates(300), 3)
    for w, search in enumerate(searches):
        run_all_tests(Ys[w], Fs[w], _chosen=search)
    n = select_knots_bic(Ys[0], Fs[0])
    run_all_tests(Ys[0], Fs[0], knots=n)
    assert calls == []
