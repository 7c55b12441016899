"""CSV formats for panels, factor matrices, and result tables.

A panel file is a header row (observation-label column name followed by
asset or factor names) and one row per observation whose first cell is
the label; each row is one line. All data cells must be present and
finite numbers in numpy's float grammar (no digit separators, ASCII
digits only); an optional column named "rf" is subtracted from every
other column on read (excess returns) and then dropped. Lines starting
with '#' are provenance comments and are skipped. Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import PanelFormatError

RF_COLUMN = "rf"


@dataclass(frozen=True)
class Panel:
    """Numeric panel with column names and row labels."""

    values: np.ndarray
    columns: tuple[str, ...]
    index: tuple[str, ...]

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def provenance_line(config_items: dict, seed=None) -> str:
    """Comment line carrying the artifact version, a config hash and the seed.

    The hash covers the canonical "key=value" sequence in sorted key
    order, so logically identical configurations hash identically.
    """
    canon = ",".join(f"{k}={config_items[k]}" for k in sorted(config_items))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
    seed_txt = "-" if seed is None else str(seed)
    return f"# alphasign {__version__} config={digest} seed={seed_txt}"


# numpy's C tokenizer and float parser read every cell. The header, and the
# search for a faulty cell after a failed parse, split lines the same way.
_CSV = dict(delimiter=",", comments=None, quotechar='"', encoding=None)


def _records(fh):
    """The header and data lines: blank and '#' comment lines are dropped."""
    return (line for line in fh if line.strip("\n") and not line.startswith("#"))


def _cells(line: str) -> list[str]:
    """One line's cells, unquoted but not stripped."""
    return np.loadtxt([line], dtype=object, ndmin=1, **_CSV).tolist()


def _header_columns(header: list[str], path: str) -> list[str]:
    if len(header) < 2:
        raise PanelFormatError(f"{path}: header must name at least one series")
    columns = [c.strip() for c in header[1:]]
    seen = set()
    for j, name in enumerate(columns):
        if not name:
            raise PanelFormatError(f"{path}: header column {j + 2} is empty")
        if name in seen:
            raise PanelFormatError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    return columns


def _cell_fault(path: str, columns: list[str], reason: str) -> PanelFormatError:
    """The error for the first data row, in file order, that does not parse
    to finite numbers, naming its row and column.

    Runs only after the table parse has raised, or returned a wrong width
    or a non-finite cell; it rereads the file and parses one row, then
    one cell, at a time with the same settings.
    """
    width = len(columns) + 1
    with open(path) as fh:
        records = _records(fh)
        next(records)  # the header
        for row, line in enumerate(records, start=2):
            cells = _cells(line)
            if len(cells) != width:
                return PanelFormatError(
                    f"{path}: row {row} has {len(cells)} cells, expected {width}"
                )
            try:
                if np.isfinite(np.loadtxt([line], usecols=range(1, width), **_CSV)).all():
                    continue
            except ValueError:
                pass
            for j, cell in enumerate(cells[1:], start=1):
                where = f"{path}: row {row}, column {columns[j - 1]!r}"
                text = cell.strip()
                if not text:
                    return PanelFormatError(f"{where} is empty")
                try:
                    (value,) = np.loadtxt([line], usecols=j, ndmin=1, **_CSV)
                except ValueError:
                    return PanelFormatError(f"{where} is not numeric: {text!r}")
                if not np.isfinite(value):
                    return PanelFormatError(f"{where} is not finite: {text!r}")
    return PanelFormatError(f"{path}: {reason}")


def _read_table(path: str) -> Panel:
    index: list[str] = []

    def label(cell: str) -> float:
        index.append(cell.strip())
        return 0.0

    with open(path) as fh:
        records = _records(fh)
        header = next(records, None)
        if header is None:
            raise PanelFormatError(f"{path}: file has no header row")
        columns = _header_columns(_cells(header), path)
        first = next(records, None)
        if first is None:
            raise PanelFormatError(f"{path}: no data rows")
        try:
            # column 0 holds the labels; `label` collects them and leaves 0.0
            table = np.loadtxt(
                itertools.chain([first], records), ndmin=2, converters={0: label}, **_CSV
            )
        except ValueError as exc:
            raise _cell_fault(path, columns, str(exc)) from None
    if table.shape[1] != len(columns) + 1 or not np.isfinite(table).all():
        raise _cell_fault(path, columns, "table does not parse")
    values = np.ascontiguousarray(table[:, 1:])
    if RF_COLUMN in columns:
        k = columns.index(RF_COLUMN)
        rf = values[:, k]
        values = np.delete(values, k, axis=1) - rf[:, None]
        columns = [c for c in columns if c != RF_COLUMN]
        if not columns:
            raise PanelFormatError(f"{path}: only an 'rf' column was provided")
    return Panel(values, tuple(columns), tuple(index))


def read_panel(path: str) -> Panel:
    """Read a return panel; subtracts an 'rf' column when present."""
    return _read_table(path)


def read_factors(path: str) -> Panel:
    """Read a factor matrix; the file format matches return panels."""
    return _read_table(path)


def _label_cell(label) -> str:
    """A row's first cell and delimiter, quoted as csv quotes a full row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([label, ""])
    return buf.getvalue()[: -len(csv.excel.lineterminator)]


def write_panel(path: str, values, columns, index=None, comments: list[str] | None = None):
    """Write a panel file; floats carry 17 significant digits."""
    values = np.asarray(values, dtype=float)
    T, N = values.shape
    if index is None:
        index = [str(i) for i in range(1, T + 1)]
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(line if line.startswith("#") else f"# {line}")
            fh.write("\n")
        csv.writer(fh).writerow(["t"] + list(columns))
        # one format string writes a row's numbers as format_float would
        numbers = ",".join(["%.17g"] * N) + csv.excel.lineterminator
        for label, row in zip(index, values):
            fh.write(_label_cell(label) + numbers % tuple(row.tolist()))


def _open_out(path_or_buffer):
    if hasattr(path_or_buffer, "write"):
        return path_or_buffer, False
    return open(path_or_buffer, "w", newline=""), True


def write_test_results(path_or_buffer, results, level: float, comments: list[str]):
    """Result table for one battery run: name, statistic, p_value, reference, reject."""
    fh, close = _open_out(path_or_buffer)
    try:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["test", "statistic", "p_value", "reference", "reject"])
        for r in results:
            writer.writerow(r.to_csv_row() + [str(int(r.p_value < level))])
    finally:
        if close:
            fh.close()


def write_report(path_or_buffer, report, comments: list[str]):
    """Experiment report: one row per test with its rejection rate.

    Wall time deliberately stays out of the file so identical
    configurations produce byte-identical output.
    """
    fh, close = _open_out(path_or_buffer)
    try:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["test", "rejection_rate", "reps", "failures", "valid"])
        for name in report.rejection_rates:
            writer.writerow(
                [
                    name,
                    format_float(report.rejection_rates[name]),
                    str(report.config.reps),
                    str(report.failures),
                    str(int(report.valid)),
                ]
            )
    finally:
        if close:
            fh.close()


def write_power_rows(path_or_buffer, rows, comments: list[str]):
    """Long-format power table: one row per (cell, test) combination."""
    fh, close = _open_out(path_or_buffer)
    try:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["example", "scenario", "N", "T", "sparsity", "strength", "test", "rejection_rate"]
        )
        for row in rows:
            writer.writerow(
                [
                    str(row["example"]),
                    row["scenario"],
                    str(row["N"]),
                    str(row["T"]),
                    str(row["sparsity"]),
                    format_float(row["strength"]),
                    row["test"],
                    format_float(row["rejection_rate"]),
                ]
            )
    finally:
        if close:
            fh.close()


def write_rolling(path_or_buffer, rolling, comments: list[str]):
    """Per-window p-values, one row per window start."""
    fh, close = _open_out(path_or_buffer)
    try:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["window"] + list(rolling.tests))
        for start, row in zip(rolling.window_starts, rolling.p_values):
            writer.writerow([str(int(start))] + [format_float(p) for p in row])
    finally:
        if close:
            fh.close()


def render_rolling_summary(rolling) -> str:
    """Rejection-ratio summary block as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level"] + list(rolling.tests))
    for level in sorted(rolling.rejection_ratios):
        ratios = rolling.rejection_ratios[level]
        writer.writerow([format_float(level)] + [format_float(ratios[t]) for t in rolling.tests])
    return buf.getvalue()
