"""alphasign benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload battery_large --seed 1 --seconds 25 --trace 0

The workload's inputs come from --seed and are built before timing starts.
Operations then run back to back, one at a time, for --seconds (at least
MIN_OPS of them). With --trace 0 the last line holds the end-to-end
metrics; with --trace 1 the calls into each alphasign module are wrapped
in spans and the last line holds the per-layer metrics instead. Machine
facts, the chosen knots and the p-values are printed above it, and the
whole record plus the spans go to .bench_out/ in the checkout.

The benchmark never sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
ALPHASIGN_THREADS and always runs the pool at workers = nproc: the
oversubscription the mc_cell workload exists to show must stay visible.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from metrics import PER_LAYER, layer_metrics, median
from spans import Recorder
from workloads import WORKLOADS, OpResult, import_alphasign, nproc

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so the cheap set-ups still give a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
MIN_OPS = 3
PROBE_CALLS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ALPHASIGN_THREADS")

# name -> unit; each is measured on every workload (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "units_per_s": "1/s",
    "battery_per_s": "1/s",
}


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        # Reading the start method must not fix it for the program.
        "pool_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _time_calls(fn, n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(1000.0 * (time.perf_counter() - t0))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path = OUT,
        **shape) -> dict:
    """Set up, run the closed loop and summarize; returns the full record."""
    wl = WORKLOADS[workload](seed, workdir, **shape)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    rec, overhead_ms = None, math.nan
    if trace:
        untraced = _time_calls(wl.battery, PROBE_CALLS)
        rec = Recorder()
        with rec:
            traced = _time_calls(wl.battery, PROBE_CALLS)
        rec.clear()
        overhead_ms = median(traced) - median(untraced)

    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_OPS or time.perf_counter() < deadline:
        if rec is not None:
            rec.begin_op(len(results))
        try:
            results.append(wl.op(rec))
        except Exception:  # a failed operation is counted and reported, not fatal
            results.append(OpResult({}, attempted=1, failed=1,
                                    errors=[traceback.format_exc(limit=-3)]))

    samples: dict[str, list[float]] = {}
    for r in results:
        for name, values in r.samples.items():
            samples.setdefault(name, []).extend(values)
    if not samples:
        raise RuntimeError("every operation failed:\n" + results[0].errors[0])
    named, core = wl.end_to_end(samples)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        **core,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": len(results), "setup_runs_s": setup_times,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed,
        "errors": [e for r in results for e in r.errors],
        "samples": samples, "named": named, "end_to_end": e2e, "outputs": wl.report(),
    }
    if rec is not None:
        record["per_layer"] = layer_metrics(rec.spans, wl.scope,
                                            [r.measured for r in results], overhead_ms)
        record["spans"] = rec
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    try:
        import_alphasign()
    except ImportError as exc:
        print(f"perfbench: cannot import alphasign from this checkout: {exc}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["machine"] = facts
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = record.pop("spans", None)
    if rec is not None:
        rec.write(OUT / f"spans-{stem}.jsonl")
    with open(OUT / f"record-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("machine " + json.dumps(facts))
    print(f"workload {args.workload} seed={args.seed} ops={record['ops']} "
          f"setup_runs_s={['%.4f' % t for t in record['setup_runs_s']]}")
    for name, (value, unit, *note) in record["named"].items():
        print(f"  {name} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    for name, value in record["end_to_end"].items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    print(f"  children_peak_rss_mb = {record['children_peak_rss_mb']:.6g} MB")
    print("outputs " + json.dumps(record["outputs"], default=str))
    if record["errors"]:
        print(f"CHECK FAILED ({len(record['errors'])}): " + "; ".join(record["errors"][:5]))
    else:
        print("checks passed")

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in record["per_layer"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in record["per_layer"].items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]}
                   for n, v in record["end_to_end"].items()}
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
