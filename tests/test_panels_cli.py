"""CSV formats and the command-line surface."""

import csv
import io
import itertools
import math
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphasign import __version__, panels, pool
from alphasign.cli import main
from alphasign.dgp import AlphaSpec, ErrorScenario, simulate_panel
from alphasign.errors import ContractError, PanelFormatError
from alphasign.harness import ExperimentConfig, resolve_knots
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


def test_the_top_level_exports_the_api_and_no_module():
    import alphasign

    exported = {}
    exec("from alphasign import *", exported)
    assert not any(isinstance(v, types.ModuleType) for v in exported.values())
    assert set(alphasign.__all__) == set(exported) - {"__builtins__"}
    # what the benchmark, CI and the README quick start read from the top level
    assert {
        "select_knots_bic", "resolve_knots", "run_all_tests", "rolling_windows",
        "run_experiment", "simulate_panel", "ErrorScenario", "AlphaSpec",
        "ExperimentConfig", "replication_rng", "TEST_NAMES", "write_panel",
        "SplineConfig", "run_replication_results",
    } <= set(alphasign.__all__)
    assert not {"bic_score", "hda_j_stat", "gen_errors", "pool", "basis"} & set(alphasign.__all__)


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
    # the same message when the rows are parsed in blocks of one byte and up
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panels, "_MIN_BLOCK_BYTES", 1)
        for workers in (2, 3):
            with pytest.raises(PanelFormatError) as info:
                read_panel(path, workers=workers)
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
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(lines), newline


@given(_panel_files())
def test_reader_matches_per_cell_reference(tmp_path_factory, panel_file):
    text, newline = panel_file
    path = str(tmp_path_factory.getbasetemp() / "generated.csv")
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    values, columns, index = _reference_read(path)
    # one process, then row blocks of one byte and up on pools of 1 and 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panels, "_MIN_BLOCK_BYTES", 1)
        for workers in (1, 2, 3):
            panel = read_panel(path, workers=workers)
            assert panel.columns == columns
            assert panel.index == index
            assert panel.values.shape == values.shape
            assert panel.values.tobytes() == values.tobytes()
            assert panel.values.flags.c_contiguous
            assert read_factors(path, workers=workers).values.tobytes() == values.tobytes()


def _universal_line_starts(raw: bytes) -> list[int]:
    """Where each line of raw starts under universal newlines, and its end."""
    lengths = [len(line.encode()) for line in io.TextIOWrapper(io.BytesIO(raw), newline="")]
    return [0] + list(itertools.accumulate(lengths))


@pytest.mark.parametrize(
    "raw",
    [b"", b"a", b"\n", b"\r", b"\r\n", b"\n\r", b"a\r\nb\rc\n\r\n\rd", b"ab\r\r\n\n\rcd\r"],
)
def test_line_starts_follow_universal_newlines(tmp_path, raw):
    path = tmp_path / "lines.csv"
    path.write_bytes(raw)
    starts = _universal_line_starts(raw)
    with open(path, "rb") as fh:
        for pos in range(len(raw) + 1):
            assert panels._line_start(fh, pos) == min(s for s in starts if s >= pos), pos


def test_a_line_end_split_across_reads_is_one_line_end(tmp_path):
    # the first read from byte 0 ends on a "\r", of a "\r\n" or alone
    long = b"x" * ((1 << 16) - 1)
    path = tmp_path / "long.csv"
    path.write_bytes(long + b"\r\nz\r")
    with open(path, "rb") as fh:
        assert [panels._line_start(fh, pos) for pos in (1, len(long) + 1, len(long) + 2)] == [
            len(long) + 2, len(long) + 2, len(long) + 2,
        ]
        assert panels._line_start(fh, len(long) + 4) == len(long) + 4
    path.write_bytes(long + b"\rz\n")
    with open(path, "rb") as fh:
        assert panels._line_start(fh, 1) == len(long) + 1


# Blank and comment lines around the cuts of 2-4 blocks: one block starts
# on a comment line, one on a blank line, and one holds comments alone.
_CUT_LINES = ['# provenance', 't,A,"B,1"', '"x,1",1.5,2', '# cut, "here"', '', '"y",3,4', '',
              'z,5,6', '#', '# only', '# comments', '"w,2",7,8', 'v,9,10']


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_blocks_cut_at_any_line_give_the_one_block_read(tmp_path, monkeypatch, newline):
    path = str(tmp_path / "cuts.csv")
    with open(path, "w", newline=newline) as fh:
        fh.write("\n".join(_CUT_LINES) + "\n")
    with open(path, "rb") as fh:
        raw = fh.read()
    whole = read_panel(path, workers=1)
    assert whole.columns == ("A", "B,1") and whole.index == ("x,1", "y", "z", "w,2", "v")
    assert whole.values.tobytes() == _reference_read(path)[0].tobytes()

    jobs, real = [], panels._map_in_order

    def recording(fn, block_jobs, workers):
        jobs.append(block_jobs)
        return real(fn, block_jobs, workers)

    monkeypatch.setattr(panels, "_map_in_order", recording)
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1)
    for workers in (2, 3, 4):
        panel = read_panel(path, workers=workers)
        assert (panel.columns, panel.index) == (whole.columns, whole.index)
        assert panel.values.tobytes() == whole.values.tobytes()
    pooled = [raw[start:stop] for block_jobs in jobs for _, start, stop, _ in block_jobs[1:]]
    assert [len(block_jobs) for block_jobs in jobs] == [2, 3, 4]
    assert any(block.startswith(b"#") for block in pooled)
    assert any(block.startswith(newline.encode()) for block in pooled)
    assert any(
        all(line.startswith("#") for line in block.decode().splitlines() if line)
        for block in pooled
    )


@pytest.mark.parametrize(
    "last_row,message",
    [
        ("200,1,x", "row 201, column 'B' is not numeric: 'x'"),
        ("200,1,inf", "row 201, column 'B' is not finite: 'inf'"),
        ("200,1", "row 201 has 2 cells, expected 3"),
    ],
)
def test_a_fault_in_the_pools_block_names_its_row_and_column(
    tmp_path, monkeypatch, last_row, message
):
    path = str(tmp_path / "late_fault.csv")
    with open(path, "w") as fh:
        fh.write("t,A,B\n" + "".join(f"{i},{i}.5,2\n" for i in range(1, 200)) + last_row + "\n")
    made, real = [], pool.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1)
    with pytest.raises(PanelFormatError) as info:
        read_panel(path, workers=2)
    assert str(info.value) == f"{path}: {message}"
    assert made == [1]  # the last row's block was parsed on the pool


def test_a_file_below_two_blocks_is_read_in_this_process(cli_files, monkeypatch):
    made, real = [], pool.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
    assert read_panel(cli_files["panel"], workers=4).values.shape == (80, 8)
    out = str(cli_files["root"] / "below-floor.csv")
    assert main(["test", cli_files["panel"], cli_files["factors"], "--knots", "2", "--out", out]) == 0
    assert made == []


def test_cli_rolling_reads_its_files_on_its_workers(cli_files, monkeypatch):
    # with blocks of 1 KB the panel (25 KB) is read in blocks
    made, real = [], pool.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1024)
    argv = ["rolling", cli_files["panel"], cli_files["factors"], "--window", "79", "--knots", "1",
            "--out", str(cli_files["root"] / "rolling-read.csv")]
    assert main(argv + ["--workers", "1"]) == 0
    assert made == []
    assert main(argv + ["--workers", "2"]) == 0
    assert made == [1]  # the panel's blocks and the windows share one pool


@pytest.mark.parametrize("workers", [0, -4, 1.5, True])
def test_readers_need_a_worker(cli_files, workers):
    for read in (read_panel, read_factors):
        with pytest.raises(ContractError, match="^workers must be"):
            read(cli_files["factors"], workers=workers)


def _reference_write(path, values, columns, index, comments=()):
    """The per-cell writer: csv writes every cell, each float via format_float."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write((line if line.startswith("#") else f"# {line}") + "\n")
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


# NaN and infinite cells, which the writer writes though a reader refuses
# them, and labels that csv has to quote
_any_cells = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))
_any_labels = st.one_of(st.text(max_size=5), st.sampled_from(['a,b', 'say "hi"', " pad ", "#1"]))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_any_cells, min_size=n, max_size=n), min_size=1, max_size=5),
            st.lists(_any_labels, min_size=n, max_size=n),
        )
    ),
    st.lists(_any_labels, min_size=5, max_size=5),
    st.lists(st.sampled_from(["# provenance", 'plain, "quoted" note', "#"]), max_size=2),
)
def test_pooled_writer_bytes_match_per_cell_reference(tmp_path_factory, table, labels, comments):
    rows, columns = table
    values = np.array(rows)
    index = labels[: len(rows)]
    root = tmp_path_factory.getbasetemp()
    reference = root / "reference.csv"
    _reference_write(str(reference), values, columns, index, comments)
    # with blocks of one byte every row count is cut, into empty blocks too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panels, "_MIN_BLOCK_BYTES", 1)
        for workers in (1, 2, 3, 4):
            ours = root / f"written{workers}.csv"
            write_panel(str(ours), values, columns, index=index, comments=comments, workers=workers)
            assert ours.read_bytes() == reference.read_bytes(), workers


@pytest.mark.parametrize(
    "values,columns,index,message",
    [
        (np.ones((4, 3)), ["A", "B", "C"], ["d1", "d2"], "^2 row labels for 4 rows$"),
        (np.ones((4, 3)), ["A", "B", "C", "D"], None, "^4 column names for 3 columns$"),
        (np.ones(3), ["A", "B", "C"], None, r"^values must be a T x N array, got shape \(3,\)$"),
    ],
    ids=["short-index", "column-count", "one-dimensional"],
)
def test_the_writer_refuses_a_shape_before_opening_a_file(tmp_path, values, columns, index, message):
    path = tmp_path / "refused.csv"
    with pytest.raises(ContractError, match=message):
        write_panel(str(path), values, columns, index=index)
    assert not path.exists()


@pytest.mark.parametrize("workers", [0, -4, 1.5, True])
def test_the_writer_needs_a_worker(tmp_path, workers):
    with pytest.raises(ContractError, match="^workers must be"):
        write_panel(str(tmp_path / "w.csv"), np.ones((2, 2)), ["A", "B"], workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_panel_of_two_blocks_round_trips_bit_for_bit(tmp_path, monkeypatch, workers):
    # 300 x 900 doubles are 2.16 MB, two blocks of values and of file
    rng = np.random.default_rng(5)
    values = rng.standard_normal((300, 900)) * 10.0 ** rng.integers(-300, 300, size=(300, 900))
    columns = [f"A{j}" for j in range(900)]
    made, real = [], pool.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
    path = str(tmp_path / "large.csv")
    write_panel(path, values, columns, workers=workers)
    panel = read_panel(path, workers=workers)
    assert panel.values.tobytes() == values.tobytes()
    assert panel.columns == tuple(columns) and panel.index == tuple(map(str, range(1, 301)))
    assert made == ([] if workers == 1 else [1])  # one pool writes and reads


@pytest.fixture
def scratch_root(tmp_path, monkeypatch):
    """An empty directory that tempfile makes its scratch directories in."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def test_a_pooled_write_and_read_leave_no_scratch(tmp_path, scratch_root, monkeypatch):
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1)
    path = str(tmp_path / "panel.csv")
    values = np.arange(60.0).reshape(20, 3) / 7.0
    write_panel(path, values, ["A", "B", "C"], workers=2)
    assert list(scratch_root.iterdir()) == []
    assert read_panel(path, workers=2).values.tobytes() == values.tobytes()
    assert list(scratch_root.iterdir()) == []


@pytest.mark.parametrize(
    "last_row,message",
    [
        ("200,1,x", "row 201, column 'B' is not numeric: 'x'"),
        ("200,1,inf", "row 201, column 'B' is not finite: 'inf'"),
        ("200,1", "row 201 has 2 cells, expected 3"),
    ],
)
def test_a_failed_pooled_read_leaves_no_scratch(
    tmp_path, scratch_root, monkeypatch, last_row, message
):
    path = str(tmp_path / "late_fault.csv")
    with open(path, "w") as fh:
        fh.write("t,A,B\n" + "".join(f"{i},{i}.5,2\n" for i in range(1, 200)) + last_row + "\n")
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1)
    with pytest.raises(PanelFormatError) as info:
        read_panel(path, workers=2)
    assert str(info.value) == f"{path}: {message}"
    assert list(scratch_root.iterdir()) == []


@pytest.mark.parametrize("row", [0, -1], ids=["callers-block", "pools-block"])
def test_a_failed_pooled_write_leaves_no_scratch_and_no_file(tmp_path, scratch_root, monkeypatch, row):
    monkeypatch.setattr(panels, "_MIN_BLOCK_BYTES", 1)
    index = [str(i) for i in range(20)]
    index[row] = "\ud800"  # a lone surrogate, which no text encoding writes
    path = tmp_path / "unwritten.csv"
    with pytest.raises(UnicodeEncodeError):
        write_panel(str(path), np.ones((20, 3)), ["A", "B", "C"], index=index, workers=2)
    assert not path.exists()
    assert list(scratch_root.iterdir()) == []


def test_a_parse_job_returns_labels_and_a_shape_and_writes_its_values(tmp_path):
    path = tmp_path / "block.csv"
    path.write_bytes(b't,A,B\n# note\n"x,1",1.5,2\ny,3,4e-300\n')
    part = tmp_path / "part"
    job = (str(path), len(b"t,A,B\n"), path.stat().st_size, str(part))
    result = panels._parse_block(job)
    assert result == (["x,1", "y"], (2, 2))
    assert not any(isinstance(item, np.ndarray) for item in result)
    assert part.read_bytes() == np.array([[1.5, 2.0], [3.0, 4e-300]]).tobytes()


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


def _window_files(root, Y, F, first):
    """The 40-row window starting at 1-based row `first` as a CSV pair."""
    paths = str(root / f"w{first}.csv"), str(root / f"w{first}_factors.csv")
    write_panel(paths[0], Y[first - 1 : first + 39], [f"A{i}" for i in range(Y.shape[1])])
    write_panel(paths[1], F[first - 1 : first + 39], ["MKT"])
    return paths


def test_cli_knots_marks_a_refused_count_and_selects_the_auto_count(
    refused_count_panel, tmp_path
):
    # window 9's best-scored count, 7, has a design the sum-type sign test
    # refuses: its row keeps an empty score, and the selected count is the
    # one `test --knots auto` runs at
    panel, factors = _window_files(tmp_path, *refused_count_panel, 9)
    out = str(tmp_path / "knots.csv")
    assert main(["knots", panel, factors, "--out", out]) == 0
    rows = _read_result_rows(out)[1:]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 8)]
    assert rows[6][2] == ""
    assert all(float(r[2]) for r in rows[:6])
    selected = [r[0] for r in rows if r[3] == "1"]
    assert selected == ["5"]
    auto, fixed = str(tmp_path / "auto.csv"), str(tmp_path / "fixed.csv")
    assert main(["test", panel, factors, "--knots", "auto", "--out", auto]) == 0
    assert main(["test", panel, factors, "--knots", selected[0], "--out", fixed]) == 0
    assert _read_result_rows(auto) == _read_result_rows(fixed)


def test_cli_knots_with_no_usable_count_is_a_numerical_failure(
    zero_tail_panel, tmp_path, capsys
):
    # from window 25 on no count is usable: the factor is zero on too many
    # of the window's rows, and the one count whose design exists (n = 1)
    # is refused by the sum-type sign test
    panel, factors = _window_files(tmp_path, *zero_tail_panel, 25)
    capsys.readouterr()
    assert main(["knots", panel, factors]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "alphasign: numerical failure: no knot candidate produced a usable design: "
    assert captured.err.startswith(prefix)
    assert [part.split(":")[0] for part in captured.err[len(prefix):].split("; ")] == [
        f"n={n}" for n in range(1, 8)
    ]


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
    from alphasign import pool

    made, real = [], pool.ProcessPoolExecutor

    def counting(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
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
    if command.startswith("simulate"):
        chosen, table = table.split("\n", 1)
        assert chosen == "# chosen_knots=1"
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


# Each simulate command with a fixed argv, the config digest of its
# provenance line, which must not move: it identifies outputs already
# written, and the chosen-knots line below it.
_CELLS = {
    "simulate-size": (
        ["--N", "10", "--T", "70", "--reps", "4", "--seed", "5", "--knots", "1"],
        "68bcb9a9cd63",
        "# chosen_knots=1",
    ),
    "simulate-power": (
        ["--N", "10", "--T", "70", "--reps", "4", "--seed", "5", "--sparsity", "1",
         "--strength-grid", "3,6", "--knots", "1"],
        "956ce2b6083d",
        "# chosen_knots=1,1",
    ),
}


@pytest.mark.parametrize("command", list(_CELLS))
def test_cli_simulate_output_is_fixed_by_its_flags(capsys, command):
    # one worker and a pool of two give the same bytes, under a provenance
    # line that the worker count does not enter
    flags, digest, chosen = _CELLS[command]
    tables = []
    for workers in ("1", "2"):
        capsys.readouterr()
        assert main([command, *flags, "--workers", workers]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    lines = tables[0].split("\n", 2)
    assert lines[0] == f"# alphasign {__version__} config={digest} seed=5"
    assert lines[1] == chosen


def test_cli_simulate_writes_the_knots_each_cell_ran_at(capsys):
    # under --knots auto each cell selects on its own replication 0
    flags = ["--N", "10", "--T", "70", "--reps", "2", "--seed", "5", "--workers", "1"]

    def chosen(alpha):
        return resolve_knots(ExperimentConfig(
            example=1, scenario=ErrorScenario("normal"), N=10, T=70, reps=2, seed=5,
            alpha_spec=alpha,
        ))

    capsys.readouterr()
    assert main(["simulate-size", *flags]) == 0
    assert capsys.readouterr().out.split("\n")[1] == f"# chosen_knots={chosen(AlphaSpec())}"
    assert main(["simulate-power", *flags, "--strength-grid", "0,20"]) == 0
    expected = [chosen(AlphaSpec(sparsity=2, strength=c)) for c in (0.0, 20.0)]
    assert capsys.readouterr().out.split("\n")[1] == "# chosen_knots=" + ",".join(map(str, expected))


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
