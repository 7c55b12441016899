"""Summary arithmetic and the per-layer metrics computed from spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Span, descendants, self_times

# name, unit, better. Layers a workload does not run read 0 on it; the
# prediction table in predictions.json says which layer each workload uses.
PER_LAYER = [
    ("panels.read_ms", "ms", "lower"),
    ("panels.read_bytes", "bytes", "lower"),
    ("panels.write_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("basis.knot_select_ms", "ms", "lower"),
    ("basis.knot_candidates", "count", "lower"),
    ("basis.designs_built", "count", "lower"),
    ("basis.fits", "count", "lower"),
    ("basis.factorizations", "count", "lower"),
    ("basis.design_ms", "ms", "lower"),
    ("basis.fit_ms", "ms", "lower"),
    ("basis.knots_chosen", "count", "lower"),
    ("basis.knot_at_boundary", "share", "lower"),
    ("spatial.median_ms", "ms", "lower"),
    ("spatial.iterations", "count", "lower"),
    ("spatial.unconverged", "count", "lower"),
    ("spatial.moments_ms", "ms", "lower"),
    ("stat_tests.hda_ms", "ms", "lower"),
    ("stat_tests.mnt_ms", "ms", "lower"),
    ("stat_tests.csm_ms", "ms", "lower"),
    ("stat_tests.combine_ms", "ms", "lower"),
    ("stat_tests.css_ms", "ms", "lower"),
    ("stat_tests.css_trace_ms", "ms", "lower"),
    ("stat_tests.css_bias_ms", "ms", "lower"),
    ("dgp.simulate_ms", "ms", "lower"),
    ("dgp.factor_path_ms", "ms", "lower"),
    ("dgp.loadings_ms", "ms", "lower"),
    ("dgp.errors_ms", "ms", "lower"),
    ("harness.rep_ms", "ms", "lower"),
    ("harness.resolve_knots_ms", "ms", "lower"),
    ("harness.cpu_s_per_rep", "s", "lower"),
    ("harness.cpu_util", "share", "higher"),
    ("harness.ctx_switches_per_rep", "count", "lower"),
    ("harness.parallel_efficiency", "share", "higher"),
    ("harness.failures", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

# Per-layer metrics the workloads measure themselves, outside any span.
HARNESS_MEASURED = (
    "harness.rep_ms",
    "harness.cpu_s_per_rep",
    "harness.cpu_util",
    "harness.ctx_switches_per_rep",
    "harness.parallel_efficiency",
    "harness.failures",
)

# Counters that must repeat exactly between two traced runs of one seed.
EXACT_COUNTERS = (
    "basis.factorizations",
    "basis.designs_built",
    "basis.fits",
    "basis.knot_candidates",
)


def tail(values) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile that still has at
    least ten samples above it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # sorted position with exactly ten samples beyond it
    return sorted(values)[k], 100.0 * (k + 1) / n, n


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def _op_layer_values(spans: list[Span], selfs: list[float], scope: list[int]) -> dict:
    """Per-layer values for one operation's spans, per unit of work.

    A unit is one battery (one run_all_tests call): a battery, a rolling
    window or a Monte Carlo replication. CLI and CSV figures are per
    `alphasign test` run.
    """
    by: dict[str, list[int]] = defaultdict(list)
    for i in scope:
        by[spans[i].name].append(i)
    units = len(by["stat_tests.run_all_tests"])
    clis = len(by["cli.main"])

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    def ms(*names: str, n: int = units) -> float:
        return per(1000.0 * sum(spans[i].duration for m in names for i in by[m]), n)

    def count(*names: str) -> float:
        return per(sum(len(by[m]) for m in names), units)

    selections = by["basis.select_knots_bic"]
    at_edge, chosen = 0, []
    for i in selections:
        knots = spans[i].attrs["knots"]
        chosen.append(knots)
        tried = [spans[j].attrs["knots"] for j in descendants(spans, i)
                 if spans[j].name == "basis.bic_score"]
        at_edge += knots in (min(tried), max(tried))
    medians = [spans[i].attrs for i in by["spatial.spatial_median_scale"]]
    linalg = [m for m in by if m.startswith("numpy.linalg.")]
    return {
        "panels.read_ms": ms("panels.read_panel", "panels.read_factors", n=clis),
        "panels.read_bytes": per(
            sum(spans[i].attrs["bytes"] for m in ("panels.read_panel", "panels.read_factors")
                for i in by[m]), clis),
        "panels.write_ms": ms(*[m for m in by if m.startswith("panels.write_")], n=clis),
        "cli.self_ms": per(1000.0 * sum(selfs[i] for i in by["cli.main"]), clis),
        "basis.knot_select_ms": ms("basis.select_knots_bic"),
        "basis.knot_candidates": count("basis.bic_score"),
        "basis.designs_built": count("basis.build_design"),
        "basis.fits": count("basis.fit_panel"),
        "basis.factorizations": count(*linalg),
        "basis.design_ms": ms("basis.build_design"),
        "basis.fit_ms": ms("basis.fit_panel"),
        "basis.knots_chosen": median(chosen) if chosen else 0.0,
        "basis.knot_at_boundary": per(at_edge, len(selections)),
        "spatial.median_ms": ms("spatial.spatial_median_scale"),
        "spatial.iterations": per(sum(a["iterations"] for a in medians), units),
        "spatial.unconverged": per(sum(not a["converged"] for a in medians), units),
        "spatial.moments_ms": ms("spatial.moment_estimates"),
        "stat_tests.hda_ms": ms("stat_tests.hda_test"),
        "stat_tests.mnt_ms": ms("stat_tests.mnt_test"),
        "stat_tests.csm_ms": ms("stat_tests.csm_test"),
        "stat_tests.combine_ms": ms("stat_tests.cauchy_combine"),
        "stat_tests.css_ms": ms("stat_tests.css_test"),
        "stat_tests.css_trace_ms": ms("stat_tests.trace_sigma_u_sq"),
        "stat_tests.css_bias_ms": ms("stat_tests.projection_sign_bias"),
        "dgp.simulate_ms": ms("dgp.simulate_panel"),
        "dgp.factor_path_ms": ms("dgp.ar_garch_path"),
        "dgp.loadings_ms": ms("dgp.gen_loadings"),
        "dgp.errors_ms": ms("dgp.gen_errors"),
        "harness.resolve_knots_ms": ms("harness.resolve_knots",
                                       n=len(by["harness.run_experiment"])),
    }


def layer_metrics(spans: list[Span], scope_name: str, measured: list[dict],
                  overhead_ms: float) -> dict[str, float]:
    """Median over operations of every per-layer metric.

    scope_name names the benchmark span whose descendants make up one
    operation's traced work; measured holds each operation's harness
    figures taken outside the spans.
    """
    selfs = self_times(spans)
    per_op = [
        _op_layer_values(spans, selfs, descendants(spans, i))
        for i, s in enumerate(spans) if s.name == scope_name
    ]
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ms":
            out[name] = overhead_ms
        elif name in HARNESS_MEASURED:
            out[name] = median([m.get(name, 0.0) for m in measured]) if measured else 0.0
        else:
            out[name] = median([v[name] for v in per_op]) if per_op else 0.0
    return out
