"""Command-line front end: fit, dispatch, bootstrap, simulate, mc, grid.

Exit codes: 0 success, 2 malformed arguments (flags argparse rejects, any
ValueError the library raises for an argument, time-series flags given with
--design, a model needing scipy where it is not installed, and an output path
that cannot be written), 3 data errors
(input that is not UTF-8, non-numeric, missing values, too-short series), 4
fit failures.  Reports are JSON (schema in docs/report_schema.json, version
echoed in every report); tables and series are CSV with a header row.  The
commands that draw random numbers are deterministic under a fixed --seed.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dispatch import METHODS, DispatchConfig, dispatch_fit, fit_model, render_decision, select_method
from .errors import DataError, InputTooShortError, PmmError
from .inference import block_bootstrap_ts, residual_bootstrap
from .linmodel import DesignProblem, build_design, information_criteria
from .mcbench import _FAMILIES, MODELS, InnovationSpec, McSpec, advantage_grid, run_monte_carlo, sample_innovations
from .tscore import ModelOrder, TsParams, simulate_arima
from .tspmm import forecast

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Flag value parsers (argparse type= callables; errors exit with code 2)
# ---------------------------------------------------------------------------

def _list_of(kind):
    """Parser of a comma-separated list whose items ``kind`` (int or float) converts."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}")
    return parse


def _int_tuple(fields: str):
    """Parser of one non-negative integer per name in ``fields``, e.g. "p,d,q"."""
    size = len(fields.split(","))
    ints = _list_of(int)

    def parse(text: str) -> tuple:
        values = ints(text)
        if len(values) != size or any(v < 0 for v in values):
            raise argparse.ArgumentTypeError(
                f"expected {fields} as {size} non-negative integers, got {text!r}")
        return values
    return parse


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _innovations(text: str) -> InnovationSpec:
    """Parser of ``family[:key=value,...]``; keys left out keep their defaults."""
    fam, _, rest = text.partition(":")
    fam = fam.strip().lower()
    if fam not in _FAMILIES:
        raise argparse.ArgumentTypeError(
            f"unknown family {fam!r}; choose from {sorted(_FAMILIES)}")
    keys, defaults = _FAMILIES[fam].keys, _FAMILIES[fam].defaults
    if not rest:
        return InnovationSpec(fam)
    entries = [e.strip() for e in rest.split(",") if e.strip()]
    try:  # an entry without "=" fails the unpacking, as a non-number fails float
        given = {k.strip(): v for k, v in (e.split("=", 1) for e in entries)}
        unknown = set(given) - set(keys)
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {fam} parameters {sorted(unknown)}; valid: {list(keys)}")
        params = tuple(float(given.get(k, defaults[i])) for i, k in enumerate(keys))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad innovation parameters in {text!r}")
    return InnovationSpec(fam, params)


def _seed_value(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


# ---------------------------------------------------------------------------
# CSV / JSON helpers
# ---------------------------------------------------------------------------

def read_csv_columns(path, columns) -> dict[str, np.ndarray]:
    """Read named columns from a headered CSV in UTF-8 (a byte-order mark is
    dropped).  Bytes that are not UTF-8 are a DataError naming the file;
    missing, non-numeric and non-finite values are reported with row and column
    coordinates (header is row 1)."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}")
    with fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text "
                            f"({exc.reason}: {exc.object[exc.start:exc.end]!r})")
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    for col in columns:
        if col not in header:
            raise DataError(f"{path}: column {col!r} not in header {header}")
    idx = {c: header.index(c) for c in columns}
    data: dict[str, list[float]] = {c: [] for c in columns}
    for rownum, row in enumerate(rows[1:], start=2):
        if not any(cell.strip() for cell in row):
            continue
        for c in columns:
            i = idx[c]
            cell = row[i].strip() if i < len(row) else ""
            if not cell:
                raise DataError(f"{path}: row {rownum}, column {c!r}: missing value")
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {rownum}, column {c!r}: non-numeric value {cell!r}")
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: row {rownum}, column {c!r}: non-finite value {cell!r}")
            data[c].append(value)
    if not data[columns[0]]:
        raise DataError(f"{path}: no data rows")
    return {c: np.asarray(v, dtype=float) for c, v in data.items()}


def write_series_csv(path, values, name: str = "x"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name])
        for v in values:
            writer.writerow([repr(float(v))])


def _sanitize(obj):
    """Replace NaN/inf with null so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):  # np.float64 included
        return obj if math.isfinite(obj) else None
    return obj


def write_report(report: dict, output):
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _build_order(args) -> ModelOrder | None:
    if args.order is None and args.seasonal is None:
        return None
    p, d, q = args.order if args.order is not None else (0, 0, 0)
    P, D, Q, s = args.seasonal if args.seasonal is not None else (0, 0, 0, 0)
    include_mean = False if args.no_mean else None
    return ModelOrder(p=p, d=d, q=q, P=P, D=D, Q=Q, s=s, include_mean=include_mean)


# Time-series flags and their defaults; any other value is an error with --design.
_SERIES_FLAGS = {"order": None, "seasonal": None, "no_mean": False, "horizon": 0,
                 "block_length": None}


def _read_data(args):
    """The DesignProblem of ``--design``, or else the ``--column`` series;
    time-series flags given with ``--design`` are rejected before any read."""
    if not args.design:
        return read_csv_columns(args.input, [args.column])[args.column]
    given = [f"--{name.replace('_', '-')}" for name, default in _SERIES_FLAGS.items()
             if getattr(args, name, default) != default]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be used with --design: "
                         "time-series flags apply to time-series fits only")
    cols = read_csv_columns(args.input, [args.column, *args.design])
    return build_design(cols[args.column], [cols[c] for c in args.design],
                        include_intercept=True, column_names=list(args.design))


def cmd_fit(args) -> int:
    data = _read_data(args)
    decision = None
    if args.method == "auto":
        decision, fit = dispatch_fit(data, config=_dispatch_config(args),
                                     order=_build_order(args))
        print(render_decision(decision))
    else:
        fit = fit_model(data, args.method, _build_order(args) or ModelOrder(p=1))
    if isinstance(data, DesignProblem):
        kind, n, names, order = "regression", data.n, data.column_names, None
    else:
        kind, n, names, order = "timeseries", data.size, fit.param_names, asdict(fit.order)
    loglik, aic, bic = information_criteria(fit)
    report = {
        "schema_version": SCHEMA_VERSION, "command": "fit", "kind": kind,
        "method": fit.method,
        "n": int(n),
        "coefficients": dict(zip(names, [float(c) for c in fit.coefficients])),
        "g_coefficient": float(fit.g_coefficient),
        "residual_cumulants": None if fit.moments is None else asdict(fit.moments),
        "information_criteria": {"loglik": loglik, "aic": aic, "bic": bic},
        "converged": bool(fit.converged),
        "warnings": list(fit.warnings),
        "order": order,
    }
    if args.horizon:
        report["forecasts"] = [float(v) for v in forecast(fit, args.horizon)]
    if decision is not None:
        report["dispatch"] = asdict(decision)
    write_report(report, args.output)
    return 0


def _dispatch_config(args) -> DispatchConfig:
    return DispatchConfig(args.skew_threshold, args.g2_ceiling, args.symmetric_threshold)


def cmd_dispatch(args) -> int:
    residuals = read_csv_columns(args.input, [args.column])[args.column]
    decision = select_method(residuals, _dispatch_config(args))
    print(render_decision(decision))
    if args.output:
        write_report({"schema_version": SCHEMA_VERSION, "command": "dispatch",
                      "decision": asdict(decision)}, args.output)
    return 0


def cmd_bootstrap(args) -> int:
    if not args.design and args.order is None and args.seasonal is None:
        raise ValueError("bootstrap needs either --design (regression) or --order (time series)")
    data = _read_data(args)
    if isinstance(data, DesignProblem):
        result = residual_bootstrap(data, method=args.method, B=args.B,
                                    level=args.level, seed=args.seed)
    else:
        result = block_bootstrap_ts(data, _build_order(args), method=args.method, B=args.B,
                                    block_length=args.block_length,
                                    level=args.level, seed=args.seed)
    rows = [{"parameter": name,
             "estimate": result.estimate[i], "std_error": result.std_error[i],
             "t_value": result.t_value[i], "p_value": result.p_value[i],
             "conf_low": result.conf_low[i], "conf_high": result.conf_high[i]}
            for i, name in enumerate(result.parameters)]
    report = {"schema_version": SCHEMA_VERSION, "command": "bootstrap",
              "scheme": result.scheme, "fit_method": result.fit_method,
              "B": result.B, "level": result.level, "seed": result.seed,
              "n_failed": result.n_failed, "block_length": result.block_length,
              "rows": rows}
    write_report(report, args.output)
    return 0


def cmd_simulate(args) -> int:
    order = _build_order(args) or ModelOrder()
    params = TsParams(args.ar or (), args.ma or (), args.sar or (), args.sma or (), args.mean)
    if args.innovations_file:
        eps = read_csv_columns(args.innovations_file, [args.column])[args.column]
    else:
        if args.n is None:
            raise ValueError("--n is required when innovations are generated")
        if args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        eps = sample_innovations(args.innovations, args.n + args.burnin, rng)
    x = simulate_arima(order, params, eps, burnin=args.burnin)
    write_series_csv(args.output, x)
    return 0


def _at_least(flag: str, value: int, low: int):
    """ValueError naming ``flag`` unless ``value`` >= ``low``; the library's own
    check of the same argument names its parameter, not the flag."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_mc(args) -> int:
    _at_least("--n-sim", args.n_sim, 50)
    _at_least("--jobs", args.jobs, 1)
    spec = McSpec(model=args.model, theta=args.theta, innovations=args.innovations,
                  n=args.n, label=args.label or args.model, order=_build_order(args),
                  burnin=args.burnin)
    _, summary = run_monte_carlo([spec], args.methods, args.n_sim,
                                 seed=args.seed, n_jobs=args.jobs)
    summary.to_csv(args.output)
    return 0


def cmd_grid(args) -> int:
    _at_least("--jobs", args.jobs, 1)
    order = _build_order(args)
    if order is None and args.model != "regression":
        order = ModelOrder(p=1, d=1, q=0)
    template = McSpec(model=args.model, theta=args.theta, label="grid",
                      innovations=InnovationSpec("gaussian"), n=100, order=order,
                      burnin=args.burnin)
    result = advantage_grid(args.grid_gamma3, args.grid_n, args.B,
                            model=template, seed=args.seed, n_jobs=args.jobs)
    result.to_csv(args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common_io(sub, with_design=True):
    sub.add_argument("--input", required=True, help="input CSV path (header row required)")
    sub.add_argument("--column", required=True, help="response / series column name")
    if with_design:
        sub.add_argument("--design", type=_name_list, default=(),
                         help="comma-separated predictor columns (regression mode)")


def _add_order_flags(sub):
    sub.add_argument("--order", type=_int_tuple("p,d,q"), default=None, metavar="p,d,q",
                     help="nonseasonal order; fit defaults to 1,0,0 for explicit "
                          "time-series methods, while auto scans AR orders")
    sub.add_argument("--seasonal", type=_int_tuple("P,D,Q,s"), default=None, metavar="P,D,Q,s")
    sub.add_argument("--no-mean", action="store_true",
                     help="exclude the mean term even when d + D = 0")


def _add_dispatch_thresholds(sub):
    sub.add_argument("--skew-threshold", type=float, default=DispatchConfig.skew_threshold)
    sub.add_argument("--g2-ceiling", type=float, default=DispatchConfig.g2_ceiling)
    sub.add_argument("--symmetric-threshold", type=float,
                     default=DispatchConfig.symmetric_threshold)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmmest",
        description="PMM2/PMM3 estimation for non-Gaussian regression and ARIMA models")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("fit", help="fit a model (CSV in, JSON report out)")
    _add_common_io(p)
    p.add_argument("--method", default="auto", choices=[*METHODS, "auto"])
    _add_order_flags(p)
    _add_dispatch_thresholds(p)
    p.add_argument("--horizon", type=int, default=0, help="forecast horizon (time series)")
    p.add_argument("--output", default=None, help="JSON report path (default stdout)")
    p.set_defaults(handler=cmd_fit)

    p = subs.add_parser("dispatch", help="print the method-selection transcript")
    _add_common_io(p, with_design=False)
    _add_dispatch_thresholds(p)
    p.add_argument("--output", default=None, help="optional JSON report path")
    p.set_defaults(handler=cmd_dispatch)

    p = subs.add_parser("bootstrap", help="bootstrap standard errors and intervals")
    _add_common_io(p)
    p.add_argument("--method", default="pmm2", choices=METHODS)
    _add_order_flags(p)
    p.add_argument("--B", type=int, default=500)
    p.add_argument("--block-length", type=int, default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_bootstrap)

    p = subs.add_parser("simulate", help="simulate an ARIMA series to CSV")
    _add_order_flags(p)
    p.add_argument("--ar", type=_list_of(float), default=None, metavar="c1,c2,...")
    p.add_argument("--ma", type=_list_of(float), default=None, metavar="c1,c2,...")
    p.add_argument("--sar", type=_list_of(float), default=None, metavar="c1,...")
    p.add_argument("--sma", type=_list_of(float), default=None, metavar="c1,...")
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--innovations", type=_innovations,
                   default=InnovationSpec("gaussian"),
                   help="family[:k=v,...], e.g. gamma:shape=2,rate=1")
    p.add_argument("--innovations-file", default=None,
                   help="CSV of innovations (overrides --innovations)")
    p.add_argument("--column", default="x",
                   help="column to read from --innovations-file")
    p.add_argument("--n", type=int, default=None, help="series length to generate")
    p.add_argument("--burnin", type=int, default=0)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_simulate)

    p = subs.add_parser("mc", help="Monte Carlo method comparison to CSV")
    p.add_argument("--model", default="arima", choices=MODELS)
    _add_order_flags(p)
    p.add_argument("--theta", type=_list_of(float), required=True,
                   help="true parameter vector (matching the fitted one)")
    p.add_argument("--innovations", type=_innovations, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-sim", type=int, required=True)
    p.add_argument("--methods", type=_name_list, default=("css", "pmm2"))
    p.add_argument("--burnin", type=int, default=100)
    p.add_argument("--label", default=None)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_mc)

    p = subs.add_parser("grid", help="PMM2 advantage grid to long-format CSV")
    p.add_argument("--grid-gamma3", type=_list_of(float), required=True)
    p.add_argument("--grid-n", type=_list_of(int), required=True)
    p.add_argument("--B", type=int, required=True, help="replications per cell")
    p.add_argument("--model", default="arima", choices=MODELS)
    _add_order_flags(p)
    p.add_argument("--theta", type=_list_of(float), default=(0.7,))
    p.add_argument("--burnin", type=int, default=100)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # an output the write would reject fails here, before the work; what
        # only the write shows (permissions) is caught below
        if args.output and Path(args.output).is_dir():
            raise IsADirectoryError("Is a directory")
        if args.output and not Path(args.output).parent.is_dir():
            raise FileNotFoundError("No such file or directory")
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputTooShortError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except PmmError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except ModuleNotFoundError as exc:
        if exc.name != "scipy":
            raise
        print("error: scipy is not installed; fitting MA or seasonal-MA terms and "
              "simulating or resampling AR terms need it", file=sys.stderr)
        return 2
    except OSError as exc:  # input files raise DataError, so this is the output
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
