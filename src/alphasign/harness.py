"""Monte Carlo harness: seeded replications, experiment aggregation, and
rolling-window analysis.

Every replication derives its generator from (seed, rep_index) through a
splittable seed sequence, so a replication's draw stream never depends on
how many replications run, in which order, or on how work is distributed
across processes. Two runs that share a seed and overlap in rep_index
produce identical results on the overlap.

Replications and rolling windows run on this process and on the kept
worker pool of `pool._map_in_order`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import _check_knots, _knot_search, _panel_and_factors, select_knots_bic
from .blas import one_blas_thread
from .dgp import AlphaSpec, ErrorScenario, simulate_panel
from .errors import NUMERICAL_ERRORS, AlphaSignError, ContractError, _check_count, _is_count
from .pool import _map_in_order, _worker_count
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
    whole cell). reps must be an integer >= 1 and seed one >= 0, else
    ContractError.
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
        _check_count("reps", self.reps, 1)
        _check_count("seed", self.seed, 0)
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
    """Independent generator for one replication of a seeded experiment;
    seed and rep_index are integers >= 0, else ContractError."""
    _check_count("seed", seed, 0)
    _check_count("rep_index", rep_index, 0)
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

    The knots are resolved once for the cell. The replications run on
    min(workers, reps) processes, this one included (see _map_in_order);
    workers defaults to the core count. Either way each
    replication runs at one BLAS thread, so the p-values do not depend on
    the worker count.
    """
    workers = _worker_count(workers)
    eff = replace(config, knots=resolve_knots(config))
    jobs = [(eff, i) for i in range(config.reps)]
    rows = _map_in_order(_replication_pvalues, jobs, workers)
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
    (1-based start index) and one column per test; tests is always
    TEST_NAMES, the columns' order.
    """

    window_starts: np.ndarray
    tests: tuple[str, ...]
    p_values: np.ndarray
    rejection_ratios: dict[float, dict[str, float]]


# Each pool worker takes about this many contiguous blocks of windows, so
# that a slow block does not leave the other workers idle at the end.
_BLOCKS_PER_WORKER = 4

# Consecutive windows whose knot searches run as one stack, each candidate
# factorized once per chunk. Longer chunks save a little more per window
# but hold more stacked twins at once, which shows in the peak memory.
_KNOT_CHUNK = 4


def _chunk_choices(Ys, Fs, order: int) -> list:
    """Each window's `basis._KnotSearch` from one stacked search over the
    windows Ys, Fs, or None for every window if the search itself fails:
    run alone, each window then raises its own error under its own stage.
    A window with no usable count raises from its record, with the error
    its own search raises."""
    try:
        return _knot_search(Ys, Fs, order=order)
    except (AlphaSignError, np.linalg.LinAlgError):
        return [None] * Ys.shape[0]


def _window_block_pvalues(args) -> np.ndarray:
    """P-values of the consecutive windows whose rows Y, F hold, one row per
    window and one column per test. first is the 1-based number of the
    block's first window; an error names the window and its panel rows.
    With knots "auto", the designs of each chunk of _KNOT_CHUNK windows
    are chosen by one stacked search, and the chunk's batteries start from
    them before the next chunk is searched."""
    Y, F, first, window, knots, order = args
    Ys = sliding_window_view(Y, window, axis=0).transpose(0, 2, 1)
    Fs = sliding_window_view(F, window, axis=0).transpose(0, 2, 1)
    n_windows = Ys.shape[0]
    out = np.empty((n_windows, len(TEST_NAMES)))
    for c in range(0, n_windows, _KNOT_CHUNK):
        stop = min(c + _KNOT_CHUNK, n_windows)
        if knots == "auto":
            chosen = _chunk_choices(Ys[c:stop], Fs[c:stop], order)
        else:
            chosen = [None] * (stop - c)
        for k, choice in zip(range(c, stop), chosen):
            try:
                results = run_all_tests(Ys[k], Fs[k], knots=knots, order=order, _chosen=choice)
            except (AlphaSignError, np.linalg.LinAlgError) as exc:
                w = first + k
                raise type(exc)(f"window {w} (rows {w}-{w + window - 1}): {exc}") from exc
            out[k] = [r.p_value for r in results]
    return out


def rolling_windows(
    panel,
    factors,
    window: int,
    knots: int | str = "auto",
    order: int = 3,
    workers: int | None = None,
) -> RollingResult:
    """Run the battery on every length-`window` contiguous sub-panel.

    A panel with T rows yields T - window + 1 windows, each treated as a
    standalone sample (the sieve grid and any knot selection are local to
    the window). Every window gets all six tests, in TEST_NAMES order.
    Rejection ratios report, per test and each level in
    ROLLING_LEVELS, the share of windows whose p-value falls below it.

    The windows run in about 4 * workers contiguous blocks of rows, on
    the processes of _map_in_order: this one takes the first share, and
    a pool worker receives each of its blocks as one slice of rows.
    workers defaults to the core count. Every battery runs at one BLAS
    thread, so the p-values do not depend on the worker count. With
    knots "auto", each block selects its windows' knots in stacked chunks
    of consecutive windows (`basis._knot_search`), which pick what
    `select_knots_bic` picks on each window alone, and each window's
    battery starts from the design its search chose. window must
    be an integer in [2, T]. A window's error is re-raised with its
    window number and rows prefixed.
    """
    Y, F = _panel_and_factors(panel, factors)
    T = Y.shape[0]
    if not _is_count(window):
        raise ContractError(f"window must be an integer, got {window!r}")
    if not 2 <= window <= T:
        raise ContractError(f"window must lie in [2, T={T}], got {window}")
    workers = _worker_count(workers)
    knots = _check_knots(knots)
    n_windows = T - window + 1
    starts = np.arange(1, n_windows + 1)
    n_blocks = min(n_windows, _BLOCKS_PER_WORKER * workers)
    jobs = []
    for block in np.array_split(np.arange(n_windows), n_blocks):
        rows = slice(int(block[0]), int(block[-1]) + window)
        jobs.append((Y[rows], F[rows], rows.start + 1, window, knots, order))
    pvals = np.concatenate(_map_in_order(_window_block_pvalues, jobs, workers))
    ratios = {
        level: {
            t: float(np.mean(pvals[:, j] < level)) for j, t in enumerate(TEST_NAMES)
        }
        for level in ROLLING_LEVELS
    }
    return RollingResult(starts, TEST_NAMES, pvals, ratios)
