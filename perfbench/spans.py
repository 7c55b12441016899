"""In-memory span recorder that traces alphasign from the outside.

Tracing wraps module attributes: every name in an ``alphasign.*`` module
that refers to a traced function is rebound to a wrapper for the lifetime
of the recorder, so calls made through ``from .basis import fit_panel``
style imports are seen too. No program file changes. The numpy.linalg
factorizations are wrapped the same way so they can be counted.

A span holds its name, start, end, parent and the operation it belongs to;
spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

# numpy.linalg calls counted as factorizations.
LINALG_FACTORIZATIONS = ("svd", "qr", "lstsq", "eigh", "cholesky")

# Public functions called once per CSV cell; a span around each would cost
# more than the work it measures.
UNTRACED = {"alphasign.panels.format_float", "alphasign.panels.provenance_line"}

TRACED_MODULES = (
    "panels", "cli", "basis", "spatial", "stat_tests", "dgp", "harness",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    op: int  # operation the span belongs to, -1 outside any operation
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs_for(name: str, result, args, kwargs) -> dict:
    """Values a few spans carry besides their timing."""
    if name == "basis.select_knots_bic":
        return {"knots": int(result)}
    if name == "basis.bic_score":
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        return {"knots": config.interior_knots}
    if name == "spatial.spatial_median_scale":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name in ("panels.read_panel", "panels.read_factors"):
        path = kwargs.get("path", args[0] if args else None)
        return {"bytes": os.path.getsize(path)}
    return {}


class Recorder:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of code."""
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else -1, self._op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            span.attrs = _attrs_for(name, result, args, kwargs)
            return result

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Rebind every alphasign reference to a traced function."""
        import numpy.linalg

        import alphasign

        modules = [importlib.import_module(f"alphasign.{m}") for m in TRACED_MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == mod.__name__
                    and f"{mod.__name__}.{attr}" not in UNTRACED
                ):
                    originals[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for fname in LINALG_FACTORIZATIONS:
            fn = getattr(numpy.linalg, fname)
            originals[id(fn)] = (fn, self._wrap(f"numpy.linalg.{fname}", fn))
        for mod in [alphasign, numpy.linalg] + modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """One JSON object per line, in start order; parents are line numbers."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below root (spans are stored in start order)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].start > spans[root].end:
            break
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out
