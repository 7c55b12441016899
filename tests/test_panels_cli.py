"""CSV formats and the command-line surface."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphasign import __version__
from alphasign.cli import main
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import PanelFormatError
from alphasign.panels import (
    Panel,
    format_float,
    provenance_line,
    read_factors,
    read_panel,
    write_panel,
    write_table,
)
from alphasign.stat_tests import TEST_NAMES, run_all_tests


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trips(x):
    assert float(format_float(x)) == x


def test_panel_round_trip(tmp_path):
    path = str(tmp_path / "panel.csv")
    rng = np.random.default_rng(1)
    values = rng.standard_normal((5, 3)) * math.pi
    write_panel(
        path,
        values,
        columns=["A", "B", "C"],
        index=["d1", "d2", "d3", "d4", "d5"],
        comments=["# provenance", "plain comment line"],
    )
    panel = read_panel(path)
    assert isinstance(panel, Panel)
    assert panel.columns == ("A", "B", "C")
    assert panel.index == ("d1", "d2", "d3", "d4", "d5")
    assert np.array_equal(panel.values, values)  # 17 digits round-trip exactly
    assert panel.n_obs == 5 and panel.n_series == 3


def test_risk_free_column_is_subtracted(tmp_path):
    path = str(tmp_path / "rf.csv")
    path2 = str(tmp_path / "rf_only.csv")
    with open(path, "w") as fh:
        fh.write("t,X,rf,Y\n1,1.0,0.25,2.0\n2,3.0,0.5,4.0\n")
    panel = read_panel(path)
    assert panel.columns == ("X", "Y")
    assert np.allclose(panel.values, [[0.75, 1.75], [2.5, 3.5]])
    with open(path2, "w") as fh:
        fh.write("t,rf\n1,0.25\n")
    with pytest.raises(PanelFormatError):
        read_panel(path2)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "no header"),
        ("t\n", "at least one series"),
        ("t,A,A\n1,1,2\n", "duplicate"),
        ("t,A\n", "no data rows"),
        ("t,A\n1,1,2\n", "cells"),
        ("t,A\n1,\n", "empty"),
        ("t,A\n1,zebra\n", "not numeric"),
    ],
)
def test_malformed_panels_raise_with_coordinates(tmp_path, body, fragment):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(body)
    with pytest.raises(PanelFormatError, match=fragment):
        read_panel(path)


@pytest.mark.parametrize(
    "body,message",
    [
        ("# only a comment\n", "file has no header row"),
        ("t, ,B\n1,1,2\n", "header column 2 is empty"),
        ("t,A\n1,1,2\n", "row 2 has 3 cells, expected 2"),
        ("t,A,B\n1,1,2\n2,3\n3,4,5\n", "row 3 has 2 cells, expected 3"),
        ("t,A,B\n1,1,2\n2,3,4,5\n3,4,5\n", "row 3 has 4 cells, expected 3"),
        ("t,A\n1,\n", "row 2, column 'A' is empty"),
        ("t,A,B\n1,1,2\n2,3, \n", "row 3, column 'B' is empty"),
        ("t,A\n1,zebra\n", "row 2, column 'A' is not numeric: 'zebra'"),
        ("t,A,B\n1,1,2\n2,3,4\n3,5,x\n", "row 4, column 'B' is not numeric: 'x'"),
        ("t,A\n1,\"1,5\"\n", "row 2, column 'A' is not numeric: '1,5'"),
        # Python's float() takes these; the panel grammar does not
        ("t,A\n1,1_000\n", "row 2, column 'A' is not numeric: '1_000'"),
        ("t,A\n1,\uff11\n", "row 2, column 'A' is not numeric: '\uff11'"),
        ("t,A,B\n1,1,nan\n", "row 2, column 'B' is not finite: 'nan'"),
        ("t,A\n1,2\n2,-inf\n", "row 3, column 'A' is not finite: '-inf'"),
        ("t,A,B\n1,1e400,2\n", "row 2, column 'A' is not finite: '1e400'"),
        # the first fault in file order is named, whatever its kind
        ("t,A,B\n1,1,NaN\n2,3\n", "row 2, column 'B' is not finite: 'NaN'"),
        ("t,rf\n1,0.25\n", "only an 'rf' column was provided"),
        # finite cells whose excess return overflows; comment lines are not rows
        ("t,A,B,rf\n1,1,2,0\n# note\n2,3,1e308,-1e308\n", "row 3, column 'B' minus 'rf' is not finite"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_panel_messages_name_row_and_column(tmp_path, body, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(body)
    with pytest.raises(PanelFormatError) as info:
        read_panel(path)
    assert str(info.value) == f"{path}: {message}"


def _reference_read(path):
    """Per-cell reader: csv splits the rows, float() parses each stripped cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    columns = [c.strip() for c in rows[0][1:]]
    index = [row[0].strip() for row in rows[1:]]
    values = np.empty((len(rows) - 1, len(columns)))
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            values[i, j] = float(cell.strip())
    if "rf" in columns:
        k = columns.index("rf")
        values = np.delete(values, k, axis=1) - values[:, k][:, None]
        columns.remove("rf")
    return values, tuple(columns), tuple(index)


_name_text = st.text(alphabet='ab,"# \u00e9', min_size=1, max_size=6)
_cell_formats = ("{!r}", "{:.17g}", "{:.6e}", "{:.3f}")
_padding = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _panel_files(draw):
    """A valid panel file: (text, newline) with quoted names, comments, rf."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 6))
    columns = draw(
        st.lists(
            _name_text.filter(lambda c: c.strip() and c.strip() != "rf"),
            min_size=n, max_size=n, unique_by=str.strip,
        )
    )
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, n)), "rf")
    labels = draw(
        st.lists(_name_text.filter(lambda c: not c.startswith("#")), min_size=t, max_size=t)
    )
    rows = []
    for label in labels:
        cells = []
        for _ in columns:
            x = draw(st.floats(allow_nan=False, allow_infinity=False))
            fmt = draw(st.sampled_from(_cell_formats))
            cells.append(draw(_padding) + fmt.format(x) + draw(_padding))
        rows.append([label] + cells)
    buf = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(buf, quoting=quoting, lineterminator="\n").writerows([["t"] + columns] + rows)
    lines = buf.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["# note, \"quoted\"\n", "#\n", "\n"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(lines), newline


@given(_panel_files())
def test_reader_matches_per_cell_reference(tmp_path_factory, panel_file):
    text, newline = panel_file
    path = str(tmp_path_factory.getbasetemp() / "generated.csv")
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    values, columns, index = _reference_read(path)
    panel = read_panel(path)
    assert panel.columns == columns
    assert panel.index == index
    assert panel.values.shape == values.shape
    assert panel.values.tobytes() == values.tobytes()
    assert panel.values.flags.c_contiguous
    assert read_factors(path).values.tobytes() == values.tobytes()


def _reference_write(path, values, columns, index):
    """The per-cell writer: csv writes every cell, each float via format_float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(columns))
        for label, row in zip(index, values):
            writer.writerow([label] + [format_float(x) for x in row])


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=5),
            st.lists(st.text(max_size=5), min_size=n, max_size=n),
        )
    ),
    st.lists(st.text(max_size=5), min_size=5, max_size=5),
)
def test_writer_bytes_match_per_cell_reference(tmp_path_factory, table, labels):
    rows, columns = table
    values = np.array(rows)
    index = labels[: len(rows)]
    ours = tmp_path_factory.getbasetemp() / "written.csv"
    reference = tmp_path_factory.getbasetemp() / "reference.csv"
    write_panel(str(ours), values, columns, index=index)
    _reference_write(str(reference), values, columns, index)
    assert ours.read_bytes() == reference.read_bytes()


def test_provenance_line_is_order_insensitive():
    a = provenance_line({"alpha": 1, "beta": "x"}, seed=9)
    b = provenance_line({"beta": "x", "alpha": 1}, seed=9)
    assert a == b
    assert a.startswith("# alphasign ")
    assert "seed=9" in a
    assert "seed=-" in provenance_line({"alpha": 1})
    assert provenance_line({"alpha": 2}) != provenance_line({"alpha": 1})


def test_write_test_results_table(tmp_path, capsys):
    header = ["test", "statistic", "reject"]
    rows = [["CSS", format_float(1.5), 1], ["CC", None, 0], ["a,b", "", 0]]
    expected = '# run\ntest,statistic,reject\r\nCSS,1.5,1\r\nCC,,0\r\n"a,b",,0\r\n'
    buf = io.StringIO()
    write_table(buf, header, rows, comments=["# run"])
    assert buf.getvalue() == expected
    path = tmp_path / "table.csv"
    write_table(str(path), header, rows, comments=["# run"])
    assert path.read_bytes() == expected.encode()
    capsys.readouterr()
    write_table("-", header, rows, comments=["# run"])
    assert capsys.readouterr().out == expected


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A small panel/factor CSV pair on disk."""
    root = tmp_path_factory.mktemp("cli")
    sim = simulate_panel(
        1, ErrorScenario("normal"), AlphaSpec(), 8, 80, np.random.default_rng(3)
    )
    panel_path = str(root / "panel.csv")
    factors_path = str(root / "factors.csv")
    write_panel(panel_path, sim.panel, [f"A{i}" for i in range(8)])
    write_panel(factors_path, sim.factors, ["MKT"])
    short_path = str(root / "short.csv")
    write_panel(short_path, sim.factors[:79], ["MKT"])
    zeros_path = str(root / "zeros.csv")
    write_panel(zeros_path, np.zeros((80, 4)), ["Z0", "Z1", "Z2", "Z3"])
    return {
        "root": root,
        "panel": panel_path,
        "factors": factors_path,
        "short": short_path,
        "zeros": zeros_path,
    }


def _read_result_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


def test_cli_test_subcommand(cli_files):
    out = str(cli_files["root"] / "results.csv")
    code = main(["test", cli_files["panel"], cli_files["factors"], "--knots", "2", "--out", out])
    assert code == 0
    with open(out) as fh:
        first = fh.readline()
    assert first.startswith("# alphasign ")
    rows = _read_result_rows(out)
    assert rows[0] == ["test", "statistic", "p_value", "reference", "reject"]
    names = [r[0] for r in rows[1:]]
    assert names == list(TEST_NAMES)
    panel, factors = read_panel(cli_files["panel"]), read_factors(cli_files["factors"])
    results = run_all_tests(panel.values, factors.values, knots=2)
    for r, result in zip(rows[1:], results):
        # combination tests have no statistic; every float round-trips exactly
        assert (r[1] == "") == (r[0] in ("Ada", "CC"))
        if r[1]:
            assert float(r[1]) == result.statistic
        assert float(r[2]) == result.p_value
        assert 0.0 <= float(r[2]) <= 1.0
        assert r[4] in ("0", "1")


def test_cli_test_subset_and_level(cli_files):
    out = str(cli_files["root"] / "subset.csv")
    code = main(
        [
            "test", cli_files["panel"], cli_files["factors"],
            "--knots", "2", "--tests", "CC,CSS", "--level", "0.5", "--out", out,
        ]
    )
    assert code == 0
    rows = _read_result_rows(out)
    assert [r[0] for r in rows[1:]] == ["CSS", "CC"]  # battery order, not flag order
    for r in rows[1:]:
        assert r[4] == str(int(float(r[2]) < 0.5))


def test_cli_exit_codes(cli_files, capsys):
    assert main([]) == 1
    assert main(["test"]) == 1  # missing positional arguments
    assert main(["test", cli_files["panel"], cli_files["factors"], "--bogus"]) == 1
    assert main(["simulate-size", "--example", "7"]) == 1
    missing = str(cli_files["root"] / "missing.csv")
    assert main(["test", missing, cli_files["factors"]]) == 2
    assert main(["test", cli_files["panel"], cli_files["short"], "--knots", "1"]) == 2
    # an 80-row panel against a 79-row factor file is a data error for the
    # knot search too, not a numerical failure of every candidate
    capsys.readouterr()
    assert main(["knots", cli_files["panel"], cli_files["short"]]) == 2
    assert "data error: panel has 80 rows but factors have 79" in capsys.readouterr().err
    assert main(["test", cli_files["zeros"], cli_files["factors"], "--knots", "1"]) == 3
    nan_panel = str(cli_files["root"] / "nan_panel.csv")
    values = np.ones((80, 2))
    values[40, 1] = np.nan
    write_panel(nan_panel, values, ["A", "B"])
    capsys.readouterr()
    assert main(["test", nan_panel, cli_files["factors"], "--knots", "1"]) == 2
    assert "row 42, column 'B' is not finite: 'nan'" in capsys.readouterr().err
    assert main(["--version"]) == 0
    capsys.readouterr()  # swallow usage noise
    # strength-grid values must be finite and non-negative
    for bad in ("nan", "inf", "1e400", "-1", "2,-0.5"):
        code = main(["simulate-power", "--N", "10", "--T", "70", "--reps", "1", "--strength-grid", bad])
        assert code == 1, bad
        assert "invalid --strength-grid value" in capsys.readouterr().err
    # knot candidates must be a comma list of non-negative integers
    for bad in ("a,b", ",", "1,,2", "-1", "1,-2"):
        code = main(["knots", cli_files["panel"], cli_files["factors"], "--candidates", bad])
        assert code == 1, bad
        assert "invalid --candidates value" in capsys.readouterr().err


def test_cli_caller_errors_are_not_numerical_failures(cli_files, capsys):
    # a spline order below 1 fails the auto knot search's input check, and
    # a simulation cell that no replication can run fails as a whole; both
    # are data errors that name their stage, not numerical failures (3) or
    # a table of nan rates (0)
    panel, factors = cli_files["panel"], cli_files["factors"]
    capsys.readouterr()
    assert main(["test", panel, factors, "--order", "0"]) == 2
    assert "data error: knot-selection: spline order must be >= 1" in capsys.readouterr().err
    assert main(["knots", panel, factors, "--order", "0"]) == 2
    assert "data error: spline order must be >= 1" in capsys.readouterr().err
    # the stacked knot search of a rolling run leaves the error to the window
    assert main(["rolling", panel, factors, "--window", "75", "--order", "0", "--workers", "1"]) == 2
    assert (
        "data error: window 1 (rows 1-75): knot-selection: spline order must be >= 1"
        in capsys.readouterr().err
    )
    for argv, message in (
        (["--N", "2"], "MNT: max-type calibration needs N >= 3"),
        (["--order", "0"], "design: spline order must be >= 1"),
        (["--T", "5"], "design: need T >= (1+p)L + 1"),
    ):
        base = ["simulate-size", "--N", "10", "--T", "70", "--reps", "2", "--knots", "1", "--workers", "1"]
        assert main(base + argv) == 2, argv
        assert f"data error: {message}" in capsys.readouterr().err
    argv = ["simulate-power", "--N", "10", "--T", "70", "--reps", "2", "--knots", "1",
            "--workers", "1", "--sparsity", "20", "--strength-grid", "2"]
    assert main(argv) == 2
    assert "data error: sparsity 20 exceeds the number of assets 10" in capsys.readouterr().err


def test_cli_knots_table(cli_files):
    out = str(cli_files["root"] / "knots.csv")
    code = main(["knots", cli_files["panel"], cli_files["factors"], "--candidates", "1,2", "--out", out])
    assert code == 0
    rows = _read_result_rows(out)
    assert rows[0] == ["n", "basis_dim", "bic", "selected"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert [r[1] for r in rows[1:]] == ["4", "5"]
    assert sum(int(r[3]) for r in rows[1:]) == 1
    for r in rows[1:]:
        float(r[2])  # scores are numeric for usable candidates

    # repeated and unordered candidates give one row per distinct count, ascending
    dup = str(cli_files["root"] / "knots_dup.csv")
    assert main(["knots", cli_files["panel"], cli_files["factors"], "--candidates", "2,2,1", "--out", dup]) == 0
    assert _read_result_rows(dup) == rows


def test_cli_simulate_size(cli_files):
    out = str(cli_files["root"] / "size.csv")
    code = main(
        [
            "simulate-size", "--example", "1", "--errors", "normal",
            "--N", "10", "--T", "70", "--reps", "3", "--seed", "5",
            "--knots", "1", "--out", out,
        ]
    )
    assert code == 0
    rows = _read_result_rows(out)
    assert rows[0] == ["test", "rejection_rate", "reps", "failures", "valid"]
    assert [r[0] for r in rows[1:]] == list(TEST_NAMES)
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 1.0
        assert r[2] == "3" and r[3] == "0" and r[4] == "1"


def test_cli_simulate_power(cli_files):
    out = str(cli_files["root"] / "power.csv")
    code = main(
        [
            "simulate-power", "--example", "1", "--errors", "normal",
            "--N", "10", "--T", "70", "--reps", "2", "--seed", "5",
            "--sparsity", "1", "--strength-grid", "3,6",
            "--knots", "1", "--out", out,
        ]
    )
    assert code == 0
    rows = _read_result_rows(out)
    assert rows[0][:2] == ["example", "scenario"]
    assert len(rows) == 1 + 2 * len(TEST_NAMES)
    strengths = {r[5] for r in rows[1:]}
    assert strengths == {"3", "6"}


def test_cli_simulate_power_runs_its_grid_on_one_pool(cli_files, monkeypatch):
    from alphasign import harness

    made, real = [], harness.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting)
    out = str(cli_files["root"] / "power-pool.csv")
    argv = ["simulate-power", "--N", "10", "--T", "70", "--reps", "4", "--knots", "1",
            "--strength-grid", "0,2,4", "--workers", "2", "--out", out]
    assert main(argv) == 0
    assert made == [1]  # three grid points, one pool of one worker beside this process
    assert len(_read_result_rows(out)) == 1 + 3 * len(TEST_NAMES)


def test_cli_rolling(cli_files, capsys):
    out = str(cli_files["root"] / "rolling.csv")
    code = main(
        [
            "rolling", cli_files["panel"], cli_files["factors"],
            "--window", "75", "--knots", "1", "--out", out,
        ]
    )
    assert code == 0
    rows = _read_result_rows(out)
    assert rows[0] == ["window"] + list(TEST_NAMES)
    assert [r[0] for r in rows[1:]] == [str(w) for w in range(1, 7)]
    summary = capsys.readouterr().out
    assert summary.splitlines()[0] == "level," + ",".join(TEST_NAMES)


_TABLES = {
    "test": (["--knots", "2"], "test,statistic,p_value,reference,reject"),
    "knots": (["--candidates", "1,2"], "n,basis_dim,bic,selected"),
    "simulate-size": (
        ["--N", "10", "--T", "70", "--reps", "3", "--knots", "1", "--workers", "1"],
        "test,rejection_rate,reps,failures,valid",
    ),
    "simulate-power": (
        ["--N", "10", "--T", "70", "--reps", "2", "--sparsity", "1", "--strength-grid", "3",
         "--knots", "1", "--workers", "1"],
        "example,scenario,N,T,sparsity,strength,test,rejection_rate",
    ),
    "rolling": (["--window", "75", "--knots", "1"], "window," + ",".join(TEST_NAMES)),
}


@pytest.mark.parametrize("command", list(_TABLES))
def test_cli_tables_share_one_layout(cli_files, capsys, command):
    flags, header = _TABLES[command]
    files = [] if command.startswith("simulate") else [cli_files["panel"], cli_files["factors"]]
    argv = [command, *files, *flags]
    out = cli_files["root"] / f"layout-{command}.csv"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 0
    to_file = capsys.readouterr()
    text = out.read_bytes().decode()
    comment, table = text.split("\n", 1)
    assert comment.startswith("# alphasign ") and not comment.endswith("\r")
    lines = table.split("\r\n")
    assert lines[0] == header
    assert len(lines) > 2 and lines[-1] == ""
    assert not any("\n" in line for line in lines)

    # the default --out - writes the same bytes to stdout; the rolling
    # summary then moves from stdout to stderr
    assert main(argv) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out == text
    if command == "rolling":
        assert to_file.out.startswith("level,") and to_stdout.err == to_file.out
    else:
        assert to_file.out == "" and to_stdout.err == ""


def test_cli_config_file_defaults_and_flag_priority(cli_files, capsys):
    root = cli_files["root"]
    cfg = str(root / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("# comment\nknots=2\nlevel=0.5\n")
    from_cfg = str(root / "from_cfg.csv")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--config", cfg, "--out", from_cfg]) == 0
    explicit = str(root / "explicit.csv")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--knots", "2", "--level", "0.5", "--out", explicit]) == 0
    assert _read_result_rows(from_cfg) == _read_result_rows(explicit)

    # explicit flags win over config values
    override = str(root / "override.csv")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--config", cfg, "--knots", "1", "--out", override]) == 0
    knots1 = str(root / "knots1.csv")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--knots", "1", "--level", "0.5", "--out", knots1]) == 0
    assert _read_result_rows(override) == _read_result_rows(knots1)
    assert _read_result_rows(override) != _read_result_rows(explicit)

    bad = str(root / "bad.cfg")
    with open(bad, "w") as fh:
        fh.write("nonsense_key=3\n")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--config", bad]) == 1

    # values that do not parse, or fall outside an option's choices, are usage errors
    for line, key in (("N=abc", "'N'"), ("example=7", "'example'")):
        mistyped = str(root / "mistyped.cfg")
        with open(mistyped, "w") as fh:
            fh.write(line + "\n")
        assert main(["simulate-size", "--config", mistyped]) == 1, line
        err = capsys.readouterr().err
        assert mistyped in err and key in err


def test_cli_level_must_lie_strictly_inside_zero_one(cli_files, capsys):
    for argv in (
        ["test", cli_files["panel"], cli_files["factors"], "--knots", "1"],
        ["simulate-size", "--N", "10", "--T", "70", "--reps", "1"],
        ["simulate-power", "--N", "10", "--T", "70", "--reps", "1", "--strength-grid", "3"],
    ):
        for bad in ("nan", "0", "1", "inf", "-0.5", "x"):
            assert main(argv + ["--level", bad]) == 1, (argv[0], bad)
            assert f"invalid --level value: {bad!r}" in capsys.readouterr().err
    cfg = str(cli_files["root"] / "level.cfg")
    with open(cfg, "w") as fh:
        fh.write("level=nan\n")
    assert main(["simulate-size", "--config", cfg]) == 1
    assert "invalid --level value: 'nan'" in capsys.readouterr().err


def test_cli_workers_must_be_a_positive_count(cli_files, capsys):
    for argv in (
        ["simulate-size", "--N", "10", "--T", "70", "--reps", "1"],
        ["simulate-power", "--N", "10", "--T", "70", "--reps", "1", "--strength-grid", "3"],
        ["rolling", cli_files["panel"], cli_files["factors"], "--window", "75"],
    ):
        for bad in ("0", "-4", "1.5", "x"):
            assert main(argv + ["--workers", bad]) == 1, (argv[0], bad)
            assert f"invalid --workers value: {bad!r}" in capsys.readouterr().err
    cfg = str(cli_files["root"] / "workers.cfg")
    with open(cfg, "w") as fh:
        fh.write("workers=0\n")
    assert main(["simulate-size", "--config", cfg]) == 1
    assert "invalid --workers value: '0'" in capsys.readouterr().err
    assert main(["rolling", cli_files["panel"], cli_files["factors"], "--window", "75", "--config", cfg]) == 1
    assert "invalid --workers value: '0'" in capsys.readouterr().err


# Each simulate command with a fixed argv, and the config digest of its
# provenance line, which must not move: it identifies outputs already written.
_CELLS = {
    "simulate-size": (
        ["--N", "10", "--T", "70", "--reps", "4", "--seed", "5", "--knots", "1"],
        "68bcb9a9cd63",
    ),
    "simulate-power": (
        ["--N", "10", "--T", "70", "--reps", "4", "--seed", "5", "--sparsity", "1",
         "--strength-grid", "3,6", "--knots", "1"],
        "956ce2b6083d",
    ),
}


@pytest.mark.parametrize("command", list(_CELLS))
def test_cli_simulate_output_is_fixed_by_its_flags(capsys, command):
    # one worker and a pool of two give the same bytes, under a provenance
    # line that the worker count does not enter
    flags, digest = _CELLS[command]
    tables = []
    for workers in ("1", "2"):
        capsys.readouterr()
        assert main([command, *flags, "--workers", workers]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert tables[0].split("\n", 1)[0] == f"# alphasign {__version__} config={digest} seed=5"


def test_cli_rolling_output_does_not_depend_on_the_workers(cli_files, capsys):
    # 6 windows at 2 workers take the pool; the worker count stays out of
    # the provenance line, since the table does not depend on it
    argv = ["rolling", cli_files["panel"], cli_files["factors"], "--window", "75", "--knots", "1"]
    outputs = []
    for workers in ("1", "2"):
        capsys.readouterr()
        assert main(argv + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == outputs[0]


def test_cli_rolling_names_the_failing_window(cli_files, capsys):
    # asset A2 is zero on rows 4-78 only, so of the six 75-row windows just
    # window 4 has a constant residual column: a numerical failure
    values = read_panel(cli_files["panel"]).values.copy()
    values[3:78, 2] = 0.0
    path = str(cli_files["root"] / "one_bad_window.csv")
    write_panel(path, values, [f"A{i}" for i in range(8)])
    for workers in ("1", "2"):
        capsys.readouterr()
        argv = ["rolling", path, cli_files["factors"], "--window", "75", "--knots", "1"]
        assert main(argv + ["--workers", workers]) == 3
        err = capsys.readouterr().err
        assert err.startswith("alphasign: numerical failure: window 4 (rows 4-78): spatial-median: ")


def test_cli_knots_flag_takes_a_count_or_auto(cli_files, capsys):
    panel, factors = cli_files["panel"], cli_files["factors"]
    for argv in (
        ["test", panel, factors],
        ["rolling", panel, factors, "--window", "75"],
        ["simulate-size", "--N", "10", "--T", "70", "--reps", "2"],
    ):
        for bad in ("automatic", "Auto", "2.5", "-1"):
            assert main(argv + ["--knots", bad]) == 1, (argv[0], bad)
            assert f"invalid --knots value: {bad!r}" in capsys.readouterr().err

    # the knot table searches its own candidates, so it takes no --knots,
    # neither as a flag nor as a config-file key
    out = str(cli_files["root"] / "knots_flag.csv")
    assert main(["knots", panel, factors, "--knots", "99", "--out", out]) == 1
    cfg = str(cli_files["root"] / "knots.cfg")
    with open(cfg, "w") as fh:
        fh.write("knots=99\n")
    capsys.readouterr()
    assert main(["knots", panel, factors, "--config", cfg, "--out", out]) == 1
    assert "config file key 'knots' is not a knots option" in capsys.readouterr().err
