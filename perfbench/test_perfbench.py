"""Tests of the benchmark's own arithmetic, tracing and counters.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, import_alphasign

import_alphasign()

import alphasign  # noqa: E402
from alphasign import basis, stat_tests  # noqa: E402

import run  # noqa: E402
from metrics import EXACT_COUNTERS, PER_LAYER, tail  # noqa: E402
from spans import Recorder, Span, descendants, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent

SMALL = {
    "battery_large": {"N": 30, "T": 150},
    "mc_cell": {"N": 20, "T": 150, "reps": 8},
    "rolling": {"N": 20, "T": 130, "window": 120},
}


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("a.child", 1.5, 2.5, 1, 0),
        Span("b", 2.0, 4.0, 0, 0),  # overlaps a: the union 1..4 counts once
        Span("c", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0])
    assert descendants(spans, 0) == [1, 2, 3, 4]
    assert descendants(spans, 1) == [2]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail([5.0] * 11) == (5.0, 100.0 / 11, 11)
    value, pct, n = tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = tail([float(x) for x in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert sum(x > value for x in range(1, 21)) == 10


def test_recorder_nests_spans_and_restores_functions():
    sim = alphasign.simulate_panel(1, alphasign.ErrorScenario("t"), alphasign.AlphaSpec(),
                                   20, 120, alphasign.replication_rng(3, 0))
    original = stat_tests.build_design
    rec = Recorder()
    with rec:
        assert stat_tests.build_design is not original
        alphasign.simulate_panel(1, alphasign.ErrorScenario("t"), alphasign.AlphaSpec(),
                                 20, 120, alphasign.replication_rng(3, 0))
        alphasign.run_all_tests(sim.panel, sim.factors, knots="auto")
    assert stat_tests.build_design is original
    assert basis.fit_panel.__module__ == "alphasign.basis"

    names = [s.name for s in rec.spans]

    def children(parent_name):
        out = set()
        for i, s in enumerate(rec.spans):
            if s.parent >= 0 and rec.spans[s.parent].name == parent_name:
                out.add(s.name)
        return out

    assert {"basis.bic_score"} <= children("basis.select_knots_bic")
    assert {"basis.build_design", "basis.fit_panel"} <= children("basis.bic_score")
    assert {"stat_tests.trace_sigma_u_sq", "stat_tests.projection_sign_bias"} <= children(
        "stat_tests.css_test")
    assert {"dgp.ar_garch_path", "dgp.gen_loadings", "dgp.gen_errors"} <= {
        n for n in names if n.startswith("dgp.")}
    assert "dgp.assemble_panel" in children("dgp.simulate_panel")
    assert {"dgp.ar_garch_path", "dgp.gen_loadings", "dgp.gen_errors"} <= children(
        "dgp.assemble_panel")
    assert "numpy.linalg.svd" in names
    assert all(s.end >= s.start for s in rec.spans)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_repeat_exactly(workload, tmp_path):
    first = run.run(workload, 5, 0.0, True, tmp_path, **SMALL[workload])
    second = run.run(workload, 5, 0.0, True, tmp_path, **SMALL[workload])
    assert not first["errors"] and not second["errors"]
    counts = [{k: r["per_layer"][k] for k in EXACT_COUNTERS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["basis.designs_built"] > 0
    assert counts[0]["basis.factorizations"] > 0
    assert set(first["per_layer"]) == {name for name, _, _ in PER_LAYER}
    assert all(math.isfinite(v) for v in first["per_layer"].values())


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = run.run("rolling", 2, 0.0, False, tmp_path, **SMALL["rolling"])
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["end_to_end"].values())
    assert record["failed"] == 0 and not record["errors"]


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rolling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
