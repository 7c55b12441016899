"""Shared fixtures: one small simulated panel and its sieve fit."""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import settings

from alphasign import pool
from alphasign.basis import SplineConfig, _uncentered_twins, build_design, fit_panel
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
    """Shut down the kept process pool after each test. Its
    workers are forked once, so without this a stand-in pool or a
    monkeypatched function from one test would reach later tests."""
    yield
    pool._close_pool()


@pytest.fixture(scope="session")
def row_signs():
    """The spatial signs of a matrix's rows, zero rows staying zero: the
    direct form that the statistics' product forms are checked against."""

    def signs(rows):
        norms = np.linalg.norm(rows, axis=1)
        out = np.zeros_like(rows)
        nz = norms > 0.0
        out[nz] = rows[nz] / norms[nz, None]
        return out

    return signs


def exit_code(pid: int, timeout: float = 60.0) -> int:
    """The exit code of child pid, killing it if it runs past timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} did not exit within {timeout} s")


def design_pair(design):
    """The design pair (Z, Z_tilde) of a design, assembled from its factors
    (`basis._uncentered_twins`); the centered twin Z has the intercept
    block's column means taken out. No statistic reads either matrix, so a
    design does not hold them; tests import this to check a design."""
    Z_tilde = _uncentered_twins(design.factors[None], design.config)[0]
    Z = Z_tilde.copy()
    L = design.config.basis_dim
    Z[:, :L] -= Z[:, :L].mean(axis=0)
    return Z, Z_tilde


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
    n = 1 in windows 20-24 and none from window 25 on. The batteries of
    windows 1-24 run. Window 25 fails in knot selection: its n = 1 design
    is factorizable but has leverage 1 at its last non-zero factor row,
    which the sum-type sign test refuses, so the search cannot use it."""
    sim = simulate_panel(1, ErrorScenario("normal"), AlphaSpec(), 3, 70, np.random.default_rng(5))
    F = sim.factors.copy()
    F[45:] = 0.0
    return sim.panel, F


@pytest.fixture(scope="session")
def refused_count_panel():
    """The zero-tail construction at N = 8: a 70-row panel whose factor is
    zero on rows 46-70. In its 40-row windows 9, 10 and 11 the best-scored
    knot count (7, 7 and 6) has a design the sum-type sign test refuses,
    while counts 1-6, 1-6 and 1-5 run."""
    sim = simulate_panel(1, ErrorScenario("normal"), AlphaSpec(), 8, 70, np.random.default_rng(5))
    F = sim.factors.copy()
    F[45:] = 0.0
    return sim.panel, F
