"""Command-line interface.

Subcommands: `test` (run the battery on a panel/factor file pair),
`simulate-size` (null rejection rates for one simulation cell),
`simulate-power` (rejection rates along a signal-strength grid),
`rolling` (rolling-window p-values), and `knots` (information-criterion
table for the knot count). Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.

`--knots` (on `test`, `rolling`, `simulate-size` and `simulate-power`)
takes an interior-knot count or `auto`. The simulate commands run their
replications, and `rolling` its windows and the row blocks of its two
files, on `--workers` processes (default: one per core); `test` and
`knots` read their files on one process per core. The output does not
depend on the process count. The simulate commands write the knot count
each cell ran at as a `# chosen_knots=` comment line below the
provenance line (one count per strength, in grid order, for
`simulate-power`). A flat key=value config file can stand in for flags
(--config FILE); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .dgp import ERROR_SCENARIO_KINDS, AlphaSpec, ErrorScenario
from .errors import NUMERICAL_ERRORS, ContractError, PanelFormatError
from .harness import ExperimentConfig, rolling_windows, run_experiment
from .stat_tests import TEST_NAMES, run_all_tests
from . import basis, panels

USAGE_EXIT, DATA_EXIT, NUMERICAL_EXIT = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_knots(text: str):
    try:
        return basis._check_knots(text if text == "auto" else int(text))
    except (ValueError, ContractError):
        raise _UsageError(f"invalid --knots value: {text!r}") from None


def _parse_tests(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = set(names) - set(TEST_NAMES)
    if unknown:
        raise _UsageError(f"unknown test names: {sorted(unknown)}")
    return tuple(t for t in TEST_NAMES if t in names)


def _parse_candidates(text: str) -> list[int]:
    try:
        return [basis._check_knots(int(x)) for x in text.split(",")]
    except (ValueError, ContractError):
        raise _UsageError(f"invalid --candidates value: {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
        if not all(math.isfinite(c) and c >= 0.0 for c in grid):
            raise ValueError(text)
    except ValueError:
        raise _UsageError(
            f"invalid --strength-grid value: {text!r} (strengths are finite and >= 0)"
        ) from None
    return grid


def _parse_level(text: str) -> float:
    """--level: a finite rejection level strictly inside (0, 1)."""
    try:
        level = float(text)
        if not 0.0 < level < 1.0:  # also refuses nan
            raise ValueError(text)
    except ValueError:
        raise _UsageError(
            f"invalid --level value: {text!r} (must be a number in (0, 1))"
        ) from None
    return level


def _parse_workers(text: str) -> int:
    """--workers: a process count of at least 1."""
    try:
        workers = int(text)
        if workers < 1:
            raise ValueError(text)
    except ValueError:
        raise _UsageError(
            f"invalid --workers value: {text!r} (must be an integer >= 1)"
        ) from None
    return workers


def _build_parser() -> _Parser:
    parser = _Parser(prog="alphasign", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"alphasign {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, knots=True):
        if knots:
            p.add_argument("--knots", default="auto", help="interior knots: integer or auto")
        p.add_argument("--order", type=int, default=3, help="spline order (default 3)")
        p.add_argument("--out", default="-", help="output file (default stdout)")
        p.add_argument("--config", default=None, help="flat key=value config file; flags win")

    p_test = sub.add_parser("test", help="run the six alpha tests on a panel")
    p_test.add_argument("panel")
    p_test.add_argument("factors")
    p_test.add_argument("--tests", default=",".join(TEST_NAMES), help="comma list of tests to report")
    p_test.add_argument("--level", type=_parse_level, default=0.05, help="rejection level for the reject column")
    add_common(p_test)

    def add_workers(p):
        p.add_argument("--workers", type=_parse_workers, default=None, help="processes (default: one per core)")

    def add_cell(p):
        p.add_argument("--example", type=int, default=1, choices=(1, 2, 3))
        p.add_argument("--errors", default="normal", choices=ERROR_SCENARIO_KINDS)
        p.add_argument("--N", type=int, default=200)
        p.add_argument("--T", type=int, default=350)
        p.add_argument("--reps", type=int, default=500)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--level", type=_parse_level, default=0.05)
        add_workers(p)
        add_common(p)

    add_cell(sub.add_parser("simulate-size", help="null rejection rates for one cell"))

    p_pow = sub.add_parser("simulate-power", help="rejection rates along a strength grid")
    p_pow.add_argument("--sparsity", type=int, default=2)
    p_pow.add_argument("--strength-grid", default="2,4,6,8,10,12,14,16,18,20")
    p_pow.add_argument("--alpha-mode", default="constant", choices=("constant", "over_T"))
    add_cell(p_pow)

    p_roll = sub.add_parser("rolling", help="rolling-window p-values")
    p_roll.add_argument("panel")
    p_roll.add_argument("factors")
    p_roll.add_argument("--window", type=int, required=True)
    p_roll.add_argument("--tests", default=",".join(TEST_NAMES))
    add_workers(p_roll)
    add_common(p_roll)

    p_knots = sub.add_parser("knots", help="information-criterion table for knot counts")
    p_knots.add_argument("panel")
    p_knots.add_argument("factors")
    p_knots.add_argument("--candidates", default=None, help="comma list of knot counts")
    add_common(p_knots, knots=False)

    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config_file(parser: _Parser, argv: list[str]):
    """Pre-scan for --config and install its values as subparser defaults."""
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _UsageError("--config requires a file argument")
    path = argv[idx + 1]
    values = _load_config_file(path)
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = next((a for a in argv if not a.startswith("-")), None)
    if command is None or not sub_actions or command not in sub_actions[0].choices:
        return
    sub = sub_actions[0].choices[command]
    dests = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in values.items():
        if key not in dests:
            raise _UsageError(f"config file key {key!r} is not a {command} option")
        action = dests[key]
        try:
            typed = action.type(value) if action.type else value
            if action.choices and typed not in action.choices:
                raise ValueError(value)
        except ValueError:
            raise _UsageError(
                f"{path}: invalid value {value!r} for config key {key!r}"
            ) from None
        defaults[key] = typed
    sub.set_defaults(**defaults)


def _cmd_test(args) -> int:
    panel = panels.read_panel(args.panel)
    factors = panels.read_factors(args.factors)
    results = run_all_tests(
        panel.values, factors.values, knots=_parse_knots(args.knots), order=args.order
    )
    wanted = _parse_tests(args.tests)
    rows = [
        [
            r.name,
            "" if r.statistic is None else panels.format_float(r.statistic),
            panels.format_float(r.p_value),
            r.reference,
            int(r.p_value < args.level),
        ]
        for r in results
        if r.name in wanted
    ]
    prov = panels.provenance_line(
        {
            "command": "test",
            "panel": args.panel,
            "factors": args.factors,
            "knots": args.knots,
            "order": args.order,
            "tests": ",".join(wanted),
            "level": args.level,
        }
    )
    header = ["test", "statistic", "p_value", "reference", "reject"]
    panels.write_table(args.out, header, rows, [prov])
    return 0


def _experiment_config(args, alpha: AlphaSpec) -> ExperimentConfig:
    return ExperimentConfig(
        example=args.example,
        scenario=ErrorScenario(args.errors),
        N=args.N,
        T=args.T,
        reps=args.reps,
        seed=args.seed,
        alpha_spec=alpha,
        gamma=args.level,
        knots=_parse_knots(args.knots),
        order=args.order,
    )


# The options that describe a simulation cell in both simulate commands'
# provenance lines; the seed has a field of its own.
_CELL_KEYS = ("example", "errors", "N", "T", "reps", "level", "knots", "order")


def _cell_provenance(args, *extra_keys: str) -> str:
    items = {key: getattr(args, key) for key in _CELL_KEYS + extra_keys}
    return panels.provenance_line({"command": args.command, **items}, seed=args.seed)


def _chosen_knots(reports) -> str:
    """The comment line naming the knot count each report's cell ran at."""
    return "# chosen_knots=" + ",".join(str(r.chosen_knots) for r in reports)


def _cmd_simulate_size(args) -> int:
    config = _experiment_config(args, AlphaSpec())
    report = run_experiment(config, workers=args.workers)
    rows = [
        [name, panels.format_float(rate), config.reps, report.failures, int(report.valid)]
        for name, rate in report.rejection_rates.items()
    ]
    header = ["test", "rejection_rate", "reps", "failures", "valid"]
    comments = [_cell_provenance(args), _chosen_knots([report])]
    panels.write_table(args.out, header, rows, comments)
    return 0


def _cmd_simulate_power(args) -> int:
    grid = _parse_grid(args.strength_grid)
    if not grid:
        raise _UsageError("--strength-grid must contain at least one value")
    rows, reports = [], []
    for c in grid:
        alpha = AlphaSpec(sparsity=args.sparsity, strength=c, mode=args.alpha_mode)
        config = _experiment_config(args, alpha)
        report = run_experiment(config, workers=args.workers)
        reports.append(report)
        cell = [args.example, args.errors, args.N, args.T, args.sparsity, panels.format_float(c)]
        for name in TEST_NAMES:
            rows.append(cell + [name, panels.format_float(report.rejection_rates[name])])
    prov = _cell_provenance(args, "sparsity", "strength_grid", "alpha_mode")
    header = ["example", "scenario", "N", "T", "sparsity", "strength", "test", "rejection_rate"]
    panels.write_table(args.out, header, rows, [prov, _chosen_knots(reports)])
    return 0


def _cmd_rolling(args) -> int:
    panel = panels.read_panel(args.panel, workers=args.workers)
    factors = panels.read_factors(args.factors, workers=args.workers)
    rolling = rolling_windows(
        panel.values,
        factors.values,
        window=args.window,
        tests=_parse_tests(args.tests),
        knots=_parse_knots(args.knots),
        order=args.order,
        workers=args.workers,
    )
    prov = panels.provenance_line(
        {
            "command": "rolling",
            "panel": args.panel,
            "factors": args.factors,
            "window": args.window,
            "knots": args.knots,
            "order": args.order,
            "tests": ",".join(rolling.tests),
        }
    )
    rows = [
        [int(start)] + [panels.format_float(p) for p in row]
        for start, row in zip(rolling.window_starts, rolling.p_values)
    ]
    panels.write_table(args.out, ["window", *rolling.tests], rows, [prov])
    summary = [
        [panels.format_float(level)]
        + [panels.format_float(rolling.rejection_ratios[level][t]) for t in rolling.tests]
        for level in sorted(rolling.rejection_ratios)
    ]
    # under --out - the summary keeps stdout a single table
    panels.write_table(
        sys.stderr if args.out == "-" else sys.stdout, ["level", *rolling.tests], summary
    )
    return 0


def _cmd_knots(args) -> int:
    panel = panels.read_panel(args.panel)
    factors = panels.read_factors(args.factors)
    candidates = _parse_candidates(args.candidates) if args.candidates else None
    search = basis._knot_search(panel.values, factors.values, candidates, args.order)[0]
    best = search.design().config.interior_knots
    prov = panels.provenance_line(
        {
            "command": "knots",
            "panel": args.panel,
            "factors": args.factors,
            "order": args.order,
            "candidates": ",".join(str(n) for n in search.table),
        }
    )
    rows = [
        [
            n,
            n + args.order,
            "" if isinstance(score, Exception) else panels.format_float(score),
            int(n == best),
        ]
        for n, score in search.table.items()
    ]
    panels.write_table(args.out, ["n", "basis_dim", "bic", "selected"], rows, [prov])
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "simulate-size": _cmd_simulate_size,
    "simulate-power": _cmd_simulate_power,
    "rolling": _cmd_rolling,
    "knots": _cmd_knots,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"alphasign: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except (PanelFormatError, ContractError, OSError) as exc:
        print(f"alphasign: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NUMERICAL_ERRORS as exc:
        print(f"alphasign: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
