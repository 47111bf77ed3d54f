"""Batch command line front end.

Subcommands:
  estimate     per-year top shares from tabulation + denominator CSVs
  diagnostics  per-year class counts and fractile distances
  synth        synthetic-distribution accuracy benchmark
  compare      score both estimators against a user micro-sample CSV

Output is CSV or JSON, written to --out or stdout. Artifacts are a pure
function of the inputs and flags: re-running produces identical bytes.
Exit status: 0 all rows succeeded, 2 some rows failed, 1 bad configuration
or unreadable input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import sys

from . import maxent
from .errors import FractileNotCoveredError, ParseError
from .tabulation import _cumulate, _read_series, parse_denominators


def _lazy_module(name: str):
    """Module ``name``, in ``sys.modules`` from now on but run only when an
    attribute is first read from it (``importlib.util.LazyLoader``)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# only synth and compare read from the micro-sample harness, so estimate and
# diagnostics never run its body; registering it still lets whatever scans
# the loaded topshares modules (bench/tracer.py) find its namespace
microbench = _lazy_module(f"{__package__}.microbench")

DEFAULT_FRACTILES = (0.10, 0.05, 0.01, 0.005, 0.001, 0.0001)

MARKER = "-"


def _fractile_header(p: float) -> str:
    """Appendix-style column name: 0.05 -> 'P95-100'."""
    lower = 100.0 * (1.0 - p)
    text = f"{lower:.10f}".rstrip("0").rstrip(".")
    return f"P{text}-100"


def _parse_fractiles(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        p = float(piece)
        if not 0.0 < p < 1.0:
            raise ValueError(f"fractile {p} must be in (0, 1)")
        out.append(p)
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError("fractiles must be strictly decreasing")
    return out


def _load_inputs(args):
    with open(args.denominators, "r", encoding="utf-8") as fh:
        denominators = parse_denominators(fh)
    with open(args.input, "r", encoding="utf-8") as fh:
        return _read_series(fh, denominators)


def _emit(args, meta, **tables) -> None:
    """Write each (fieldnames, rows) table: CSV tables one after another,
    separated by a blank line, or one JSON object holding ``meta`` and the
    rows under each table's name."""
    if args.format == "csv":
        buf = io.StringIO()
        for n, (fieldnames, rows) in enumerate(tables.values()):
            if n:
                buf.write("\n")
            writer = csv.DictWriter(buf, fieldnames=fieldnames,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        doc = {"meta": meta, **{name: rows for name, (_, rows) in tables.items()}}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(err: Exception) -> str:
    """Per-row status of an estimation failure."""
    if isinstance(err, FractileNotCoveredError):
        return "uncovered"
    return f"error:{type(err).__name__}"


ESTIMATE_FIELDS = ["year", "fractile", "method", "share_pct", "share_pct_full",
                   "threshold", "top_income", "bracket", "extrapolated",
                   "status"]
DIAGNOSTIC_FIELDS = ["year", "classes", "fractile", "selected_fraction",
                     "distance_pp", "bracket", "threshold", "status"]


def _year_outcomes(series, fractiles, methods):
    """(year, classes, stats, p, method, outcome) per year, as
    ``estimate_shares`` gives them for all years at once; a year that
    cumulate rejects (an empty top bracket, say) has stats None and that
    error as every outcome."""
    sizes, *_, denominators = series
    cumulated = _cumulate(series)
    estimates = iter(maxent.estimate_shares(
        [s for s in cumulated if not isinstance(s, ValueError)], fractiles, methods))
    for d, classes, stats in zip(denominators, sizes.tolist(), cumulated):
        if isinstance(stats, ValueError):
            outcomes = [(p, method, stats) for p in fractiles for method in methods]
            stats = None
        else:
            outcomes = next(estimates)
        for p, method, est in outcomes:
            yield d.year, classes, stats, p, method, est


def _exit_status(rows) -> int:
    """2 when some row failed with an error, else 0."""
    return 2 if any(r["status"].startswith("error:") for r in rows) else 0


def cmd_estimate(args) -> int:
    fractiles = _parse_fractiles(args.fractiles)
    methods = {"pi": ("PI",), "me": ("ME",), "both": ("PI", "ME")}[args.method]
    long = args.layout == "long"
    rows = []
    for year, _, _, p, method, est in _year_outcomes(_load_inputs(args), fractiles,
                                                     methods):
        # the appendix prints only share_pct; the other fields are long-only
        row = {"year": year, "share_pct": MARKER}
        if long:
            row = {**dict.fromkeys(ESTIMATE_FIELDS, ""), **row,
                   "fractile": repr(p), "method": method}
        if isinstance(est, Exception):
            row["status"] = _status(est)
        elif est.extrapolated and not args.allow_extrapolation:
            row["status"] = "extrapolation_disabled"
        else:
            row.update(share_pct=f"{100.0 * est.share:.2f}",
                       status="extrapolated" if est.extrapolated else "ok")
            if long:
                row.update({
                    "share_pct_full": repr(100.0 * est.share),
                    "threshold": repr(est.threshold),
                    "top_income": repr(est.top_income),
                    "bracket": "" if est.bracket is None else est.bracket,
                    "extrapolated": "true" if est.extrapolated else "false",
                })
        rows.append(row)
    meta = {"command": "estimate", "fractiles": fractiles,
            "methods": list(methods)}
    if long:
        _emit(args, meta, rows=(ESTIMATE_FIELDS, rows))
    else:
        # rows come year by year, fractile-major: one wide row per method
        headers = [_fractile_header(p) for p in fractiles]
        m, n = len(methods), len(fractiles) * len(methods)
        wide = [{"Year": rows[i]["year"], "method": method, **dict(zip(
                    headers, (r["share_pct"] for r in rows[i + k:i + n:m])))}
                for i in range(0, len(rows), n) for k, method in enumerate(methods)]
        _emit(args, meta, rows=(["Year", "method", *headers], wide))
    return _exit_status(rows)


def cmd_diagnostics(args) -> int:
    fractiles = _parse_fractiles(args.fractiles)
    rows = []
    # PI's reference bracket is the class whose top fraction is nearest p
    for year, classes, stats, p, _, est in _year_outcomes(_load_inputs(args),
                                                          fractiles, ("PI",)):
        row = dict.fromkeys(DIAGNOSTIC_FIELDS, "")
        row.update(year=year, classes=classes, fractile=repr(p),
                   status="ok")
        if isinstance(est, Exception):
            row["status"] = _status(est)
        else:
            selected = float(stats.top_fraction[est.bracket])
            row.update({
                "selected_fraction": repr(selected),
                "distance_pp": repr(100.0 * (selected - p)),
                "bracket": est.bracket,
                "threshold": repr(float(stats.thresholds[est.bracket])),
            })
        rows.append(row)
    _emit(args, {"command": "diagnostics"}, rows=(DIAGNOSTIC_FIELDS, rows))
    return _exit_status(rows)


def _field(value):
    """A report field as written: floats as repr, None as empty."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else value


def _table(items, cls):
    """(fieldnames, rows) of dataclass instances, fields in declared order."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, [{n: _field(getattr(item, n)) for n in names} for item in items]


def _emit_report(args, report, meta) -> int:
    _emit(args, meta, cells=_table(report.cells, microbench.ErrorCell),
          summaries=_table(report.summaries, microbench.ErrorSummary))
    return 2 if any(c.status != "ok" for c in report.cells) else 0


def cmd_synth(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = microbench.BenchmarkSpec.from_json(fh.read())
    else:
        spec = microbench.BenchmarkSpec(
            dist=microbench.ParetoDist(exponent=2.0, scale=1.0))
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.classes:
        overrides["classes"] = tuple(int(k) for k in args.classes.split(","))
    if args.fractiles:
        overrides["fractiles"] = tuple(_parse_fractiles(args.fractiles))
    if args.size is not None:
        overrides["size"] = args.size
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    report = microbench.run_protocol(spec)
    return _emit_report(args, report, {"command": "synth", "spec": spec.to_dict()})


def cmd_compare(args) -> int:
    with open(args.micro, "r", encoding="utf-8") as fh:
        sample = microbench.load_micro_csv(fh)
    fractiles = _parse_fractiles(args.fractiles)
    classes = tuple(int(k) for k in args.classes.split(",")) if args.classes \
        else microbench.BenchmarkSpec.classes
    report = microbench.ErrorReport.from_cells(
        microbench.evaluate_sample(sample, classes, fractiles))
    return _emit_report(args, report, {"command": "compare",
                                       "classes": list(classes),
                                       "fractiles": fractiles})


def _add_io_flags(sub, needs_tabulation=True):
    if needs_tabulation:
        sub.add_argument("--input", required=True,
                         help="tabulation CSV (year,lower_threshold,returns,income_sum)")
        sub.add_argument("--denominators", required=True,
                         help="denominator CSV (year,population,total_income,income_unit)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topshares",
        description="Top income shares from grouped tax tabulations.")
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="per-year top share table")
    _add_io_flags(est)
    est.add_argument("--method", choices=("pi", "me", "both"), default="both")
    est.add_argument("--fractiles",
                     default=",".join(repr(p) for p in DEFAULT_FRACTILES))
    est.add_argument("--allow-extrapolation", action="store_true",
                     help="emit values for fractiles deeper than the top bracket")
    est.add_argument("--layout", choices=("long", "appendix"), default="long")
    est.set_defaults(func=cmd_estimate)

    diag = subs.add_parser("diagnostics",
                           help="class counts and fractile distances per year")
    _add_io_flags(diag)
    diag.add_argument("--fractiles", default="0.10,0.01")
    diag.set_defaults(func=cmd_diagnostics)

    synth = subs.add_parser("synth", help="synthetic accuracy benchmark")
    _add_io_flags(synth, needs_tabulation=False)
    synth.add_argument("--spec", help="benchmark spec JSON")
    synth.add_argument("--trials", type=int)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--size", type=int)
    synth.add_argument("--classes", help="comma list of class counts")
    synth.add_argument("--fractiles")
    synth.set_defaults(func=cmd_synth)

    comp = subs.add_parser("compare",
                           help="score estimators against a micro-sample CSV")
    _add_io_flags(comp, needs_tabulation=False)
    comp.add_argument("--micro", required=True,
                      help="micro CSV (income,weight)")
    comp.add_argument("--classes", help="comma list of class counts")
    comp.add_argument("--fractiles", default="0.10,0.05,0.01")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
