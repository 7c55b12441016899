"""The knot criterion against a reference that scores each candidate by a
full fit: build the design pair, fit the panel, and average the squared
uncentered residuals."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from alphasign.basis import (
    SplineConfig,
    _best_knots,
    _score_knot_candidates,
    bic_penalty,
    bic_score,
    build_design,
    default_knot_candidates,
    fit_panel,
    select_knots_bic,
)
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import ContractError, SingularDesignError


def _reference_bic_score(panel, factors, config):
    Y = np.asarray(panel, dtype=float)
    fit = fit_panel(Y, build_design(factors, config))
    rss_mean = float(np.mean(fit.residuals_tilde ** 2))
    if rss_mean <= 0.0:
        return -math.inf
    F = np.asarray(factors, dtype=float).reshape(Y.shape[0], -1)
    return math.log(rss_mean) + bic_penalty(Y.shape[1], Y.shape[0], F.shape[1], config)


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
    Z_tilde = build_design(factors, config).Z_tilde
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


def test_stacked_search_picks_each_windows_own_knots(zero_tail_panel):
    # the factor's zero tail makes the usable candidates differ from window
    # to window, down to none, so the stack is rescored window by window
    Y, F = zero_tail_panel
    Ys, Fs = _windows(Y, F, 40)
    candidates = default_knot_candidates(40)
    stacked = _score_knot_candidates(Ys, Fs, candidates, 3)
    assert len(stacked) == Ys.shape[0]
    usable_sets = set()
    for w, scores in enumerate(stacked):
        alone = _score_knot_candidates(Y[w : w + 40], F[w : w + 40], candidates, 3)
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
                _best_knots(scores)
            assert str(info.value) == str(exc)
        else:
            assert _best_knots(scores) == expected
    assert {(1, 2, 3, 4, 5, 6, 7), (1,), ()} <= usable_sets and len(usable_sets) >= 5
