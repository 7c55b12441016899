"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup` (outside the
timed region), then runs operations in a closed loop with one client.
An operation returns its timing samples and checks its own outputs
against the program's other entry points; no stored answer is used, so a
change that moves knots or p-values still passes as long as the paths
agree with each other.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metrics import median, tail

# mc_cell and rolling time direct battery calls on this many panels per
# operation (replications 0.., or windows spread over the panel), so that
# battery_per_s does not hang on one panel's iteration counts.
BATTERY_PANELS = 5

SRC = Path(__file__).resolve().parent.parent / "src"


def import_alphasign():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "alphasign" / "__init__.py").is_file():
        raise ImportError(f"no alphasign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphasign

    if Path(alphasign.__file__).resolve().parent != (SRC / "alphasign").resolve():
        raise ImportError(f"alphasign imported from {alphasign.__file__}, not {SRC}")


def nproc() -> int:
    """Cores this process may run on, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


@dataclass
class OpResult:
    samples: dict[str, list[float]]
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    measured: dict[str, float] = field(default_factory=dict)  # harness figures


def _traced(rec):
    return rec if rec is not None else contextlib.nullcontext()


def _span(rec, name):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _check_pvalues(label: str, values, errors: list[str]) -> None:
    p = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        errors.append(f"{label}: p-value outside [0, 1] or not finite: {p}")


def _rusage() -> tuple[float, float]:
    """CPU seconds and context switches of this process and its reaped children."""
    cpu = ctx = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        cpu += r.ru_utime + r.ru_stime
        ctx += r.ru_nvcsw + r.ru_nivcsw
    return cpu, ctx


class BatteryLarge:
    """One empirical-scale panel through `alphasign test` and run_all_tests."""

    name = "battery_large"
    why = ("N=1000 T=600 panel via CSV: knot search, N-scaled spatial and CSS "
           "trace kernels and CSV parsing dominate; dgp and the pool are absent")
    scope = "bench.op"

    def __init__(self, seed: int, workdir: Path, N: int = 1000, T: int = 600):
        self.seed, self.N, self.T = seed, N, T
        self.panel_csv = workdir / "battery_panel.csv"
        self.factors_csv = workdir / "battery_factors.csv"
        self.result_csv = workdir / "battery_result.csv"
        self.reference = None

    def setup(self) -> None:
        import alphasign as a
        from alphasign import panels

        sim = a.simulate_panel(2, a.ErrorScenario("t"), a.AlphaSpec(), self.N, self.T,
                               np.random.default_rng(self.seed))
        panels.write_panel(str(self.panel_csv), sim.panel,
                           [f"asset{i + 1}" for i in range(self.N)])
        panels.write_panel(str(self.factors_csv), sim.factors, ["mkt", "smb", "hml"])
        self.panel, self.factors = sim.panel, sim.factors
        self.battery()

    def battery(self):
        import alphasign as a

        return a.run_all_tests(self.panel, self.factors, knots="auto")

    def op(self, rec) -> OpResult:
        from alphasign import cli

        out = OpResult({}, attempted=2)
        argv = ["test", str(self.panel_csv), str(self.factors_csv),
                "--knots", "auto", "--out", str(self.result_csv)]
        with _traced(rec), _span(rec, self.scope):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
            results = self.battery()
            t2 = time.perf_counter()
        out.samples = {"cli_test_ms": [1000.0 * (t1 - t0)], "battery_ms": [1000.0 * (t2 - t1)]}
        if code != 0:
            out.failed += 1
            out.errors.append(f"alphasign test exited with {code}")
        else:
            with open(self.result_csv, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
            from_cli = [(r[0], r[1], r[2]) for r in rows]
            in_memory = [(r.name, "" if r.statistic is None else f"{r.statistic:.17g}",
                          f"{r.p_value:.17g}") for r in results]
            if from_cli != in_memory:
                out.errors.append(f"CLI results {from_cli} != run_all_tests {in_memory}")
            _check_pvalues("alphasign test", [float(r[2]) for r in rows], out.errors)
        _check_pvalues("run_all_tests", [r.p_value for r in results], out.errors)
        pvals = [r.p_value for r in results]
        if self.reference is None:
            self.reference = pvals
        elif pvals != self.reference:
            out.errors.append(f"run_all_tests p-values changed between runs: {pvals}")
        return out

    def report(self) -> dict:
        import alphasign as a

        return {"knots": a.select_knots_bic(self.panel, self.factors),
                "p_values": dict(zip(a.TEST_NAMES, self.reference or []))}

    @staticmethod
    def end_to_end(samples: dict[str, list[float]]) -> tuple[dict, dict]:
        named = {}
        for key in ("cli_test_ms", "battery_ms"):
            named[f"{key}.p50"] = (median(samples[key]), "ms")
            named[f"{key}.tail"] = tail_of(samples[key])
        return named, {"units_per_s": 1000.0 / named["cli_test_ms.p50"][0],
                       "battery_per_s": 1000.0 / named["battery_ms.p50"][0]}


class MCCell:
    """One size cell at workers = nproc, then the same cell at workers = 1."""

    name = "mc_cell"
    why = ("example 1 size cell, N=200 T=350, 40 reps at workers=nproc and at 1: "
           "dgp and the process pool dominate; knots are selected once per cell")
    scope = "bench.serial_cell"

    def __init__(self, seed: int, workdir: Path, N: int = 200, T: int = 350,
                 reps: int = 40):
        import alphasign as a

        self.config = a.ExperimentConfig(example=1, scenario=a.ErrorScenario("t"), N=N,
                                         T=T, reps=reps, seed=seed, knots="auto")
        self.workers = nproc()
        self.reference = None

    def setup(self) -> None:
        import alphasign as a

        c = self.config
        self.sims = [a.simulate_panel(c.example, c.scenario, c.alpha_spec, c.N, c.T,
                                      a.replication_rng(c.seed, i))
                     for i in range(BATTERY_PANELS)]
        self.knots = a.resolve_knots(c)
        self.battery()

    def battery(self, i: int = 0):
        """Replication i's battery at the cell's knots, without dgp or harness."""
        import alphasign as a

        sim = self.sims[i]
        return a.run_all_tests(sim.panel, sim.factors, knots=self.knots)

    def op(self, rec) -> OpResult:
        import alphasign as a

        reps = self.config.reps
        out = OpResult({}, attempted=2 * reps + BATTERY_PANELS)
        cpu0, ctx0 = _rusage()
        t0 = time.perf_counter()
        pooled = a.run_experiment(self.config, workers=self.workers)
        t1 = time.perf_counter()
        cpu1, ctx1 = _rusage()
        with _traced(rec), _span(rec, self.scope):
            serial = a.run_experiment(self.config, workers=1)
        t2 = time.perf_counter()
        pool_wall, serial_wall = t1 - t0, t2 - t1
        out.samples = {"mc_reps_per_s": [reps / pool_wall],
                       "mc_serial_reps_per_s": [reps / serial_wall],
                       "battery_ms": _time_batteries(self.battery, out.errors)[0]}
        out.failed = pooled.failures + serial.failures
        out.measured = {
            "harness.rep_ms": 1000.0 * pool_wall * self.workers / reps,
            "harness.cpu_s_per_rep": (cpu1 - cpu0) / reps,
            "harness.cpu_util": (cpu1 - cpu0) / (pool_wall * self.workers),
            "harness.ctx_switches_per_rep": (ctx1 - ctx0) / reps,
            "harness.parallel_efficiency": serial_wall / (pool_wall * self.workers),
            "harness.failures": float(out.failed),
        }
        if pooled.rejection_rates != serial.rejection_rates:
            out.errors.append(f"rejection rates differ: workers={self.workers} "
                              f"{pooled.rejection_rates} vs workers=1 {serial.rejection_rates}")
        for name, p in serial.p_values.items():
            if not np.array_equal(p, pooled.p_values[name], equal_nan=True):
                out.errors.append(f"{name} p-values differ between worker counts")
            _check_pvalues(f"mc_cell {name}", p[~np.isnan(p)], out.errors)
        cell = {"knots": serial.chosen_knots, "rejection_rates": serial.rejection_rates,
                "rep0_p_values": {n: float(p[0]) for n, p in serial.p_values.items()}}
        if self.reference is None:
            self.reference = cell
        elif repr(cell) != repr(self.reference):  # repr: a failed rep's NaN equals itself
            out.errors.append(f"cell results changed between runs: {cell}")
        return out

    def report(self) -> dict:
        return self.reference or {}

    @staticmethod
    def end_to_end(samples: dict[str, list[float]]) -> tuple[dict, dict]:
        named = {"mc_reps_per_s": (median(samples["mc_reps_per_s"]), "1/s"),
                 "mc_serial_reps_per_s": (median(samples["mc_serial_reps_per_s"]), "1/s"),
                 "battery_ms.p50": (median(samples["battery_ms"]), "ms")}
        return named, {"units_per_s": named["mc_serial_reps_per_s"][0],
                       "battery_per_s": 1000.0 / named["battery_ms.p50"][0]}


class Rolling:
    """rolling_windows over one simulated panel: 100 windows of 300 rows."""

    name = "rolling"
    why = ("100 windows of T=300 on an N=200 panel: per-design costs (8-candidate "
           "knot search, basis, SVDs, T x T projection bias) repeat per window")
    scope = "bench.op"

    def __init__(self, seed: int, workdir: Path, N: int = 200, T: int = 399,
                 window: int = 300):
        self.seed, self.N, self.T, self.window = seed, N, T, window
        n_windows = T - window + 1
        step = max(1, n_windows // BATTERY_PANELS)
        self.check_windows = [(seed + k * step) % n_windows for k in range(BATTERY_PANELS)]
        self.reference = None

    def setup(self) -> None:
        import alphasign as a

        sim = a.simulate_panel(1, a.ErrorScenario("t"), a.AlphaSpec(), self.N, self.T,
                               np.random.default_rng(self.seed))
        self.panel, self.factors = sim.panel, sim.factors
        self.battery()

    def battery(self, i: int = 0):
        """The battery on the i-th checked window alone."""
        import alphasign as a

        w, n = self.check_windows[i], self.window
        return a.run_all_tests(self.panel[w:w + n], self.factors[w:w + n], knots="auto")

    def op(self, rec) -> OpResult:
        import alphasign as a

        n_windows = self.T - self.window + 1
        out = OpResult({}, attempted=n_windows + BATTERY_PANELS)
        with _traced(rec), _span(rec, self.scope):
            t0 = time.perf_counter()
            rolled = a.rolling_windows(self.panel, self.factors, self.window, knots="auto")
            t1 = time.perf_counter()
        times, results = _time_batteries(self.battery, out.errors)
        out.samples = {"rolling_windows_per_s": [n_windows / (t1 - t0)], "battery_ms": times}
        _check_pvalues("rolling", rolled.p_values, out.errors)
        for w, battery in zip(self.check_windows, results):
            by_name = {r.name: r.p_value for r in battery}
            expected = [by_name[t] for t in rolled.tests]
            if list(rolled.p_values[w]) != expected:
                out.errors.append(f"window {w + 1}: rolling {list(rolled.p_values[w])} "
                                  f"!= run_all_tests {expected}")
        if self.reference is None:
            self.reference = rolled.p_values
        elif not np.array_equal(rolled.p_values, self.reference):
            out.errors.append("rolling p-values changed between runs")
        return out

    def report(self) -> dict:
        import alphasign as a

        w, n = self.check_windows[0], self.window
        knots = a.select_knots_bic(self.panel[w:w + n], self.factors[w:w + n])
        p = [] if self.reference is None else list(self.reference[w])
        return {"window": w + 1, "knots": knots, "p_values": p}

    @staticmethod
    def end_to_end(samples: dict[str, list[float]]) -> tuple[dict, dict]:
        named = {"rolling_windows_per_s": (median(samples["rolling_windows_per_s"]), "1/s"),
                 "battery_ms.p50": (median(samples["battery_ms"]), "ms")}
        return named, {"units_per_s": named["rolling_windows_per_s"][0],
                       "battery_per_s": 1000.0 / named["battery_ms.p50"][0]}


def _time_batteries(battery, errors: list[str]) -> tuple[list[float], list]:
    """Wall ms and results of one direct battery call per panel, p-values checked."""
    times, results = [], []
    for i in range(BATTERY_PANELS):
        t0 = time.perf_counter()
        res = battery(i)
        times.append(1000.0 * (time.perf_counter() - t0))
        _check_pvalues("run_all_tests", [r.p_value for r in res], errors)
        results.append(res)
    return times, results


def tail_of(values):
    t = tail(values)
    if t is None:
        return (math.nan, "ms", f"needs 11 samples, have {len(values)}")
    value, pct, n = t
    return (value, "ms", f"p{pct:.1f} of {n}")


WORKLOADS = {w.name: w for w in (BatteryLarge, MCCell, Rolling)}
