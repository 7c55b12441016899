"""Monte Carlo harness: seeded replications, experiment aggregation, and
rolling-window analysis.

Every replication derives its generator from (seed, rep_index) through a
splittable seed sequence, so a replication's draw stream never depends on
how many replications run, in which order, or on how work is distributed
across processes. Two runs that share a seed and overlap in rep_index
produce identical results on the overlap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import _check_knots, _panel_and_factors, select_knots_bic
from .blas import one_blas_thread
from .dgp import AlphaSpec, ErrorScenario, simulate_panel
from .errors import NUMERICAL_ERRORS, ContractError
from .stat_tests import TEST_NAMES, TestResult, run_all_tests

# A run with more than this share of failed replications is flagged invalid.
MAX_FAILURE_SHARE = 0.05

# Levels at which rolling_windows reports rejection ratios.
ROLLING_LEVELS = (0.01, 0.05)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation cell.

    knots: a fixed non-negative interior-knot count, or "auto"
    (information-criterion selection on replication 0, reused for the
    whole cell).
    """

    example: int
    scenario: ErrorScenario
    N: int
    T: int
    reps: int
    seed: int
    alpha_spec: AlphaSpec = AlphaSpec()
    gamma: float = 0.05
    knots: int | str = "auto"
    order: int = 3

    def __post_init__(self):
        if self.reps < 1:
            raise ContractError("reps must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ContractError("gamma must lie in (0, 1)")
        object.__setattr__(self, "knots", _check_knots(self.knots))


@dataclass
class ExperimentReport:
    """Aggregated cell output.

    rejection_rates are computed over successful replications at the
    configured level. p_values maps each name in TEST_NAMES to a
    reps-long array with NaN rows for failed replications. valid is False
    when more than 5% of the replications failed. chosen_knots is the
    interior-knot count every replication ran at.
    """

    config: ExperimentConfig
    rejection_rates: dict[str, float]
    failures: int
    valid: bool
    chosen_knots: int
    p_values: dict[str, np.ndarray] = field(repr=False)


def replication_rng(seed: int, rep_index: int) -> np.random.Generator:
    """Independent generator for one replication of a seeded experiment."""
    if rep_index < 0:
        raise ContractError("rep_index must be >= 0")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,))
    )


def _simulate(config: ExperimentConfig, rep_index: int):
    """Replication rep_index's simulated panel."""
    rng = replication_rng(config.seed, rep_index)
    return simulate_panel(
        config.example, config.scenario, config.alpha_spec, config.N, config.T, rng
    )


@one_blas_thread()
def resolve_knots(config: ExperimentConfig) -> int:
    """Materialize the cell's knot choice.

    "auto" selects on replication 0's simulated panel and returns the
    fixed count used for every replication of the cell. Integers pass
    through.
    """
    if config.knots != "auto":
        return config.knots
    sim = _simulate(config, 0)
    return select_knots_bic(sim.panel, sim.factors, order=config.order)


@one_blas_thread()
def run_replication_results(
    config: ExperimentConfig, rep_index: int
) -> list[TestResult]:
    """Simulate replication rep_index and run the full battery on it, with
    OpenBLAS at one thread for both, so the result does not depend on the
    caller's thread count."""
    knots = resolve_knots(config)
    sim = _simulate(config, rep_index)
    return run_all_tests(sim.panel, sim.factors, knots=knots, order=config.order)


def _replication_pvalues(args: tuple[ExperimentConfig, int]):
    """The six p-values of one replication in TEST_NAMES order, or None on
    a numerical failure. Any other error, such as a ContractError from a
    cell no replication can run, propagates to the caller."""
    try:
        return tuple(r.p_value for r in run_replication_results(*args))
    except NUMERICAL_ERRORS:
        return None


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> ExperimentReport:
    """Run all replications of a cell and aggregate rejection rates.

    The knots are resolved once for the cell. The replications run in this
    process when min(workers, reps) is 1, else on a pool of that many
    processes; workers defaults to the core count. Either way each
    replication runs at one BLAS thread, so the p-values do not depend on
    the worker count.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    eff = replace(config, knots=resolve_knots(config))
    jobs = [(eff, i) for i in range(config.reps)]
    n_workers = min(workers, config.reps)
    if n_workers == 1:
        rows = list(map(_replication_pvalues, jobs))
    else:
        chunk = max(1, config.reps // (n_workers * 8))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_replication_pvalues, jobs, chunksize=chunk))
    failures = sum(1 for r in rows if r is None)
    p_values: dict[str, np.ndarray] = {}
    rates: dict[str, float] = {}
    for j, name in enumerate(TEST_NAMES):
        vals = np.array(
            [r[j] if r is not None else np.nan for r in rows], dtype=float
        )
        p_values[name] = vals
        ok = vals[~np.isnan(vals)]
        rates[name] = float(np.mean(ok < config.gamma)) if ok.size else float("nan")
    return ExperimentReport(
        config=config,
        rejection_rates=rates,
        failures=failures,
        valid=failures <= MAX_FAILURE_SHARE * config.reps,
        chosen_knots=eff.knots,
        p_values=p_values,
    )


@dataclass
class RollingResult:
    """Rolling-window p-values and rejection ratios.

    p_values has one row per window in the order of window_starts
    (1-based start index) and one column per requested test.
    """

    window_starts: np.ndarray
    tests: tuple[str, ...]
    p_values: np.ndarray
    rejection_ratios: dict[float, dict[str, float]]


def rolling_windows(
    panel,
    factors,
    window: int,
    tests: tuple[str, ...] = TEST_NAMES,
    knots: int | str = "auto",
    order: int = 3,
) -> RollingResult:
    """Run the battery on every length-`window` contiguous sub-panel.

    A panel with T rows yields T - window + 1 windows, each treated as a
    standalone sample (the sieve grid and any knot selection are local to
    the window). Rejection ratios report, per test and each level in
    ROLLING_LEVELS, the share of windows whose p-value falls below it.
    """
    Y, F = _panel_and_factors(panel, factors)
    T = Y.shape[0]
    if not 2 <= window <= T:
        raise ContractError(f"window must lie in [2, T={T}], got {window}")
    unknown = set(tests) - set(TEST_NAMES)
    if unknown:
        raise ContractError(f"unknown test names: {sorted(unknown)}")
    n_windows = T - window + 1
    starts = np.arange(1, n_windows + 1)
    pvals = np.empty((n_windows, len(tests)))
    for w in range(n_windows):
        results = run_all_tests(
            Y[w : w + window], F[w : w + window], knots=knots, order=order
        )
        by_name = {r.name: r.p_value for r in results}
        pvals[w] = [by_name[t] for t in tests]
    ratios = {
        level: {
            t: float(np.mean(pvals[:, j] < level)) for j, t in enumerate(tests)
        }
        for level in ROLLING_LEVELS
    }
    return RollingResult(starts, tuple(tests), pvals, ratios)
