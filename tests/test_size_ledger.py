"""The committed size ledger, SIZE_27.csv (README, "Size ledger"), against
a fresh run of its four 100-replication cells. A replication's draws and
battery do not depend on the worker count, so its rejection counts at the
ledger's seed are compared exactly: a change that moves a p-value across
the 5% level in these cells must regenerate the ledger."""

import csv
from pathlib import Path

import numpy as np
import pytest

from alphasign.dgp import ErrorScenario
from alphasign.harness import ExperimentConfig, run_experiment
from alphasign.stat_tests import TEST_NAMES

LEDGER = Path(__file__).resolve().parent.parent / "SIZE_27.csv"


def _pinned_rows():
    with open(LEDGER, newline="") as fh:
        return [row for row in csv.DictReader(fh) if row["reps"] == "100"]


def test_the_ledger_pins_four_cells():
    cells = [(r["example"], r["errors"], r["knots"]) for r in _pinned_rows()]
    assert cells == [("1", "normal", "auto"), ("1", "normal", "1"), ("3", "t", "auto"), ("3", "t", "1")]


@pytest.mark.parametrize(
    "row", _pinned_rows(), ids=lambda r: f"ex{r['example']}-{r['errors']}-{r['knots']}"
)
def test_a_pinned_ledger_cell_recomputes_exactly(row):
    knots = row["knots"] if row["knots"] == "auto" else int(row["knots"])
    config = ExperimentConfig(
        int(row["example"]), ErrorScenario(row["errors"]), N=200, T=350, reps=100, seed=1,
        knots=knots,
    )
    report = run_experiment(config, workers=1)
    got = {
        "chosen_knots": report.chosen_knots,
        "failures": report.failures,
        **{t: int(np.sum(report.p_values[t] < config.gamma)) for t in TEST_NAMES},
    }
    assert {k: str(v) for k, v in got.items()} == {k: row[k] for k in got}
