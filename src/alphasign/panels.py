"""CSV formats for panels, factor matrices, and result tables.

A panel file is a header row (observation-label column name followed by
asset or factor names) and one row per observation whose first cell is
the label; each row is one line. All data cells must be present and
finite numbers in numpy's float grammar (no digit separators, ASCII
digits only); an optional column named "rf" is subtracted from every
other column on read (excess returns) and then dropped. Lines starting
with '#' are provenance comments and are skipped. Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly.

A reader decodes the file as open(path) does (locale encoding, universal
newlines) and parses its data lines in contiguous row blocks of at least
_MIN_BLOCK_BYTES, one block per worker at most, on the kept worker pool
of `pool._map_in_order`: the calling process parses the first block and
the pool the rest. A file below two blocks is parsed in this process
alone. Line ends are found in the raw bytes, so the locale encoding must
keep CR and LF as single ASCII bytes, as UTF-8 and the Latin codecs do.

The writer formats a panel whose values span two such blocks or more in
row blocks on the same pool, the calling process's block included, and a
smaller panel as one block in this process. It opens the target only
once the header and every block are formatted and encoded. The output
does not depend on the block count.

Row blocks cross between processes as raw files in one scratch
directory, made by `tempfile.TemporaryDirectory` in the system's temp
directory (TMPDIR when set), never through the pool's pipe: a read job
writes its block's values as raw doubles and returns only its labels and
shape, and the caller reads every block straight into one array; a write
saves the values there once, and each job formats its rows from that
file into a part of its own. The directory is gone when the call
returns, whether it succeeded or failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import locale
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ContractError, PanelFormatError
from .pool import _map_in_order, _worker_count

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


# The smallest row block a read or a write gives a worker: a file read in
# blocks has at least this many bytes per block, and a panel written in
# blocks at least this many bytes of values per block. Reads: two blocks
# break even near this size on a warm pool of 2 vCPUs (N = 1000 panels,
# medians of 15 reads: 1.7 MB took 24 ms in one block and 23 ms in two,
# 3.4 MB 53 and 42 ms). Writes: on a warm pool two blocks already win
# below it (N = 1000, medians of 21 alternating writes, one block -> two:
# 0.24 MB of values 27 -> 18 ms, 0.48 MB 56 -> 34, 0.96 MB 91 -> 66, 1.92
# MB 183 -> 124, 4.8 MB 531 -> 314), but the first pooled call also forks
# the pool (0.48 MB in a fresh process: 35-56 ms in one block, 45-49 in
# two), so writes keep the reads' gate. Factor files and small panels stay
# in one process.
_MIN_BLOCK_BYTES = 1 << 20

# The line ends of universal newlines, matched left to right: "\r\n" is one.
_LINE_END = re.compile(rb"\r\n?|\n")


def _decoded(raw: bytes):
    """raw's lines, decoded as open(path) decodes a file."""
    return io.TextIOWrapper(io.BytesIO(raw))


def _line_start(fh, pos: int) -> int:
    """The first line start at or after byte pos of the binary file fh, or
    the file's size when no line starts there."""
    if pos == 0:
        return 0
    offset, buf = pos - 1, b""
    fh.seek(offset)
    while True:
        more = fh.read(1 << 16)
        buf += more
        end = _LINE_END.search(buf)
        # a "\r" that ends what was read may be the first half of "\r\n"
        if end is not None and (end.end() < len(buf) or not more):
            return offset + end.end()
        if not more:
            return offset + len(buf)
        # keep only the last byte, which may be that "\r", so that a long
        # line costs linear time
        offset += len(buf) - 1
        buf = buf[-1:]


def _header_line(fh, size: int) -> tuple[str | None, int]:
    """The header line, decoded, and the byte offset of the line after it,
    or None and the file's size when there is no header."""
    start = 0
    while start < size:
        end = _line_start(fh, start + 1)
        fh.seek(start)
        header = next(_records(_decoded(fh.read(end - start))), None)
        if header is not None:
            return header, end
        start = end
    return None, size


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

    Runs only after a row block's parse has raised, or returned a wrong
    width or a non-finite cell; it rereads the whole file in this process
    and parses one row, then one cell, at a time with the same settings.
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


def _parse_rows(path: str, start: int, stop: int) -> tuple[list[str], np.ndarray]:
    """The labels and the value rows of the data lines in bytes [start,
    stop) of path, a range that starts at a line start. A ValueError means
    a cell or row does not parse. The values are a view."""
    with open(path, "rb") as fh:
        fh.seek(start)
        records = _records(_decoded(fh.read(stop - start)))
    index: list[str] = []

    def label(cell: str) -> float:
        index.append(cell.strip())
        return 0.0

    first = next(records, None)
    if first is None:
        return index, np.empty((0, 0))
    # column 0 holds the labels; `label` collects them and leaves 0.0
    table = np.loadtxt(
        itertools.chain([first], records), ndmin=2, converters={0: label}, **_CSV
    )
    return index, table[:, 1:]


def _parse_block(job) -> tuple[list[str], tuple[int, int]]:
    """Parses one row block as _parse_rows does and writes its values to
    the file part as raw C-order doubles: (path, start, stop, part) is the
    job. Returns the labels and the values' shape, never the values."""
    path, start, stop, part = job
    index, values = _parse_rows(path, start, stop)
    np.ascontiguousarray(values).tofile(part)
    return index, values.shape


def _parsed(path: str, cuts: list[int], width: int, workers: int):
    """The labels and the C-contiguous values of path's data lines, parsed
    in the row blocks between consecutive cuts; the values are None when
    a block's width is not `width`. A ValueError means a cell or row does
    not parse."""
    if len(cuts) == 2:
        index, values = _parse_rows(path, cuts[0], cuts[1])
        if index and values.shape[1] != width:
            return index, None
        return index, np.ascontiguousarray(values)
    with tempfile.TemporaryDirectory() as scratch:
        parts = [os.path.join(scratch, str(k)) for k in range(len(cuts) - 1)]
        jobs = [(path, start, stop, part) for start, stop, part in zip(cuts, cuts[1:], parts)]
        blocks = _map_in_order(_parse_block, jobs, workers)
        index = [label for labels, _ in blocks for label in labels]
        if any(labels and shape[1] != width for labels, shape in blocks):
            return index, None
        values = np.empty((len(index), width))
        row = 0
        for part, (labels, _) in zip(parts, blocks):
            rows = values[row : row + len(labels)]
            with open(part, "rb", buffering=0) as fh:
                if fh.readinto(rows) != rows.nbytes:
                    raise OSError(f"{part}: short row block")
            row += len(labels)
    return index, values


def _read_table(path: str, workers: int | None) -> Panel:
    workers = _worker_count(workers)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header, body = _header_line(fh, size)
        if header is None:
            raise PanelFormatError(f"{path}: file has no header row")
        columns = _header_columns(_cells(header), path)
        n_blocks = max(1, min(workers, (size - body) // _MIN_BLOCK_BYTES))
        inner = [body + k * (size - body) // n_blocks for k in range(1, n_blocks)]
        cuts = [body] + [_line_start(fh, pos) for pos in inner] + [size]
    try:
        index, values = _parsed(path, cuts, len(columns), workers)
    except ValueError as exc:
        raise _cell_fault(path, columns, str(exc)) from None
    if not index:
        raise PanelFormatError(f"{path}: no data rows")
    if values is None or not np.isfinite(values).all():
        raise _cell_fault(path, columns, "table does not parse")
    if RF_COLUMN in columns:
        k = columns.index(RF_COLUMN)
        rf = values[:, k]
        with np.errstate(over="ignore"):
            values = np.delete(values, k, axis=1) - rf[:, None]
        columns = [c for c in columns if c != RF_COLUMN]
        if not columns:
            raise PanelFormatError(f"{path}: only an 'rf' column was provided")
        if not np.isfinite(values).all():
            # finite cells can still overflow; rows count as in _cell_fault
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise PanelFormatError(
                f"{path}: row {i + 2}, column {columns[j]!r} minus 'rf' is not finite"
            )
    return Panel(values, tuple(columns), tuple(index))


def read_panel(path: str, workers: int | None = None) -> Panel:
    """Read a return panel; subtracts an 'rf' column when present.

    The rows are parsed on up to `workers` processes, this one included
    (default: the core count); the result does not depend on it."""
    return _read_table(path, workers)


def read_factors(path: str, workers: int | None = None) -> Panel:
    """Read a factor matrix; the file format and `workers` match read_panel."""
    return _read_table(path, workers)


def _label_cell(label) -> str:
    """A row's first cell and delimiter, quoted as csv quotes a full row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([label, ""])
    return buf.getvalue()[: -len(csv.excel.lineterminator)]


def _write_rows(fh, values: np.ndarray, index) -> None:
    """One line per row of values, labelled by index, to the text file fh."""
    # one format string writes a row's numbers as format_float would
    numbers = ",".join(["%.17g"] * values.shape[1]) + csv.excel.lineterminator
    for label, row in zip(index, values):
        fh.write(_label_cell(label) + numbers % tuple(row.tolist()))


def _format_block(job) -> None:
    """Formats one row block into the file part, in the given text
    encoding: the rows from row start on of the raw C-order doubles in the
    file raw, N to a row, one row per label. (raw, N, start, labels, part,
    encoding) is the job."""
    raw, n, start, labels, part, encoding = job
    offset = start * n * np.dtype(float).itemsize
    rows = np.fromfile(raw, count=len(labels) * n, offset=offset).reshape(len(labels), n)
    with open(part, "w", newline="", encoding=encoding) as fh:
        _write_rows(fh, rows, labels)


def _append(fh, part: str) -> None:
    """Copies the file part to the end of the binary file fh, which must
    hold no unwritten data."""
    with open(part, "rb") as src:
        if not hasattr(os, "sendfile"):
            shutil.copyfileobj(src, fh)
            return
        size, sent = os.fstat(src.fileno()).st_size, 0
        while sent < size:
            sent += os.sendfile(fh.fileno(), src.fileno(), sent, size - sent)


def write_panel(
    path: str, values, columns, index=None, comments: list[str] | None = None,
    workers: int | None = None,
):
    """Write a panel file in the format read_panel reads; floats carry 17
    significant digits, so reading the file gives the values back bit for
    bit.

    values is a T x N array, columns its N names and index its T row
    labels (default: 1 to T); anything else raises ContractError before a
    file is opened. Each comment line is written first, with "# " put in
    front of a line that does not start with "#". The values are cut into
    row blocks of at least _MIN_BLOCK_BYTES, one block per worker at most,
    and formatted on up to `workers` processes, this one included
    (default: the core count); a panel below two blocks is one block,
    formatted in this process. The header and every block are formatted
    and encoded before the file is opened, so a name or label that the
    locale encoding cannot write leaves no file. The output does not
    depend on `workers`, byte for byte.
    """
    workers = _worker_count(workers)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ContractError(f"values must be a T x N array, got shape {values.shape}")
    T, N = values.shape
    columns = list(columns)
    if len(columns) != N:
        raise ContractError(f"{len(columns)} column names for {N} columns")
    index = [str(i) for i in range(1, T + 1)] if index is None else list(index)
    if len(index) != T:
        raise ContractError(f"{len(index)} row labels for {T} rows")
    encoding = locale.getpreferredencoding(False)  # the one open() takes
    text = io.StringIO()
    for line in comments or []:
        text.write(line if line.startswith("#") else f"# {line}")
        text.write("\n")
    csv.writer(text).writerow(["t"] + columns)
    head = text.getvalue().encode(encoding)

    n_blocks = max(1, min(workers, values.nbytes // _MIN_BLOCK_BYTES))
    cuts = [k * T // n_blocks for k in range(n_blocks + 1)]
    with tempfile.TemporaryDirectory() as scratch:
        raw = os.path.join(scratch, "values")
        values.tofile(raw)
        parts = [os.path.join(scratch, str(k)) for k in range(n_blocks)]
        jobs = [(raw, N, a, index[a:b], part, encoding) for a, b, part in zip(cuts, cuts[1:], parts)]
        _map_in_order(_format_block, jobs, workers)
        with open(path, "wb") as fh:
            fh.write(head)
            fh.flush()
            for part in parts:
                _append(fh, part)


def write_table(out, header, rows, comments=()):
    """Write a result table: each comment line, then header and rows as CSV.

    `out` is a path, "-" for standard output, or an open text stream. Cells
    are written as given, so callers format floats with `format_float`.
    """
    if out == "-":
        out = sys.stdout
    opened = open(out, "w", newline="") if isinstance(out, str) else contextlib.nullcontext(out)
    with opened as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
