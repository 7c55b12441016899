"""Shared fixtures: one small simulated panel and its sieve fit."""

import numpy as np
import pytest
from hypothesis import settings

from alphasign import harness
from alphasign.basis import SplineConfig, build_design, fit_panel
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.stat_tests import TestResult

# Result container, not a test case; stop pytest from trying to collect it.
TestResult.__test__ = False

# Property tests run on a single-core box; the default per-example deadline
# is too twitchy there, and a fixed derandomized profile keeps reruns
# byte-for-byte comparable.
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_kept_pool():
    """Shut down the harness's kept process pool after each test. Its
    workers are forked once, so without this a stand-in pool or a
    monkeypatched function from one test would reach later tests."""
    yield
    harness._close_pool()


@pytest.fixture(scope="session")
def small_sim():
    """Null panel, single-factor design, N=25, T=140."""
    rng = np.random.default_rng(907)
    return simulate_panel(1, ErrorScenario("normal"), AlphaSpec(), 25, 140, rng)


@pytest.fixture(scope="session")
def small_design(small_sim):
    return build_design(small_sim.factors, SplineConfig(2, 3))


@pytest.fixture(scope="session")
def small_fit(small_sim, small_design):
    return fit_panel(small_sim.panel, small_design)


@pytest.fixture(scope="session")
def zero_tail_panel():
    """A 70-row panel (N=3, one factor) whose factor is zero on rows 46-70
    (1-based). Its 40-row windows hold fewer and fewer non-zero factor
    rows, so fewer knot candidates are usable: all 7 in windows 1-10, only
    n = 1 in windows 20-25 and none from window 26 on. The batteries of
    windows 1-24 run; in window 25 the n = 1 design is usable but has
    leverage 1 at its last non-zero factor row, which CSS refuses."""
    sim = simulate_panel(1, ErrorScenario("normal"), AlphaSpec(), 3, 70, np.random.default_rng(5))
    F = sim.factors.copy()
    F[45:] = 0.0
    return sim.panel, F
