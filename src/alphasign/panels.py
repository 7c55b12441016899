"""CSV formats for panels, factor matrices, and result tables.

A panel file is a header row (observation-label column name followed by
asset or factor names) and one row per observation whose first cell is
the label. All data cells must be numeric and present; an optional column
named "rf" is subtracted from every other column on read (excess
returns) and then dropped. Lines starting with '#' are provenance
comments and are skipped. Floats are written with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
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


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _parse_panel_rows(rows: list[list[str]], path: str) -> Panel:
    if not rows:
        raise PanelFormatError(f"{path}: file has no header row")
    header = rows[0]
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
    body = rows[1:]
    if not body:
        raise PanelFormatError(f"{path}: no data rows")
    width = len(header)
    index = []
    values = np.empty((len(body), len(columns)))
    for i, row in enumerate(body):
        line_no = i + 2
        if len(row) != width:
            raise PanelFormatError(
                f"{path}: row {line_no} has {len(row)} cells, expected {width}"
            )
        index.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                raise PanelFormatError(
                    f"{path}: row {line_no}, column {columns[j]!r} is empty"
                )
            try:
                values[i, j] = float(text)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: row {line_no}, column {columns[j]!r} is not numeric: {text!r}"
                ) from None
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
    return _parse_panel_rows(_read_rows(path), path)


def read_factors(path: str) -> Panel:
    """Read a factor matrix; the file format matches return panels."""
    return _parse_panel_rows(_read_rows(path), path)


def write_panel(path: str, values, columns, index=None, comments: list[str] | None = None):
    """Write a panel file; floats carry 17 significant digits."""
    values = np.asarray(values, dtype=float)
    T = values.shape[0]
    if index is None:
        index = [str(i) for i in range(1, T + 1)]
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(line if line.startswith("#") else f"# {line}")
            fh.write("\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(columns))
        for label, row in zip(index, values):
            writer.writerow([label] + [format_float(x) for x in row])


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
