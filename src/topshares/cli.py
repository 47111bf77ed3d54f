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

import numpy as np

from . import maxent
from .errors import FractileNotCoveredError, ParseError
from .pareto import ERROR_TYPES, YEAR_FAILED
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


def _parse_list(flag: str, text: str, cast) -> list:
    """The comma list ``text`` of a flag, each piece cast; a ValueError
    names the flag, also where a value repeats and so would run twice."""
    try:
        out = [cast(piece) for piece in text.split(",")]
    except ValueError as err:
        raise ValueError(f"{flag}: {err}") from None
    if len(set(out)) < len(out):
        raise ValueError(f"{flag} must not repeat, got {text}")
    return out


def _parse_fractiles(text: str) -> list[float]:
    out = _parse_list("--fractiles", text, float)
    for p in out:
        if not 0.0 < p < 1.0:
            raise ValueError(f"fractile {p} must be in (0, 1)")
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ValueError("fractiles must be strictly decreasing")
    return out


def _emit(args, meta, **tables) -> None:
    """Write each table, a dict from field name to a column with one entry
    per row: CSV tables one after another, separated by a blank line, or one
    JSON object holding ``meta`` and the rows under each table's name."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for n, columns in enumerate(tables.values()):
            if n:
                buf.write("\n")
            writer.writerow(columns)
            writer.writerows(zip(*columns.values()))
        text = buf.getvalue()
    else:
        doc = {"meta": meta, **{
            name: [dict(zip(columns, row)) for row in zip(*columns.values())]
            for name, columns in tables.items()}}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label(error: type | None) -> str:
    """The status of a cell an error of type ``error`` stops, "ok" for None."""
    return "ok" if error is None else "uncovered" if issubclass(
        error, FractileNotCoveredError) else f"error:{error.__name__}"


def _outcomes(args, fractiles, methods, extrapolated: str, *values) -> dict:
    """Columns year, classes, p, method, status and the ``values`` columns of
    ``maxent.estimate_table``, one entry per (year, fractile, method) cell in
    that order. A served cell's status is "ok", or ``extrapolated`` past the
    top bracket; a failed one's names its error, or its year's."""
    with open(args.denominators, "r", encoding="utf-8") as fh:
        denoms = parse_denominators(fh)
    with open(args.input, "r", encoding="utf-8") as fh:
        sizes, _, _, _, denominators, _ = series = _read_series(fh, denoms)
    tables = maxent.estimate_table(_cumulate(series), fractiles, methods)
    # a year's cells are fractile-major: the methods' tables side by side
    cells = {name: np.stack([t[name] for t in tables], axis=-1)
             for name in ("code", "extrapolated", *values)}
    failed = np.array([[_label(None if e is None else type(e)) for e in t["errors"]]
                       for t in tables], dtype=object).reshape(len(tables), -1).T
    status = np.array([_label(e) for e in ERROR_TYPES], dtype=object)[cells["code"]]
    status[cells["extrapolated"]] = extrapolated
    status = np.where(cells["code"] == YEAR_FAILED, failed[:, None, :], status)
    each = len(fractiles) * len(methods)
    return {"year": np.repeat([d.year for d in denominators], each).tolist(),
            "classes": np.repeat(sizes, each).tolist(),
            "p": [p for p in fractiles for _ in methods] * len(sizes),
            "method": list(methods) * (len(sizes) * len(fractiles)),
            "status": status.ravel().tolist(),
            **{name: cells[name].ravel().tolist() for name in values}}


def _exit_status(status) -> int:
    """2 when some row failed with an error, else 0."""
    return 2 if any(s.startswith("error:") for s in status) else 0


def _column(text, shown, *columns):
    """``text`` of each row's values where ``shown``, else empty."""
    return [text(*row) if ok else "" for ok, *row in zip(shown, *columns)]


def cmd_estimate(args) -> int:
    fractiles = _parse_fractiles(args.fractiles)
    methods = {"pi": ("PI",), "me": ("ME",), "both": ("PI", "ME")}[args.method]
    cells = _outcomes(args, fractiles, methods, "extrapolated"
                      if args.allow_extrapolation else "extrapolation_disabled",
                      "share", "threshold", "top_income", "bracket", "extrapolated")
    shown = [s in ("ok", "extrapolated") for s in cells["status"]]
    share_pct = [f"{100.0 * v:.2f}" if ok else MARKER
                 for ok, v in zip(shown, cells["share"])]
    meta = {"command": "estimate", "fractiles": fractiles,
            "methods": list(methods)}
    if args.layout == "long":
        _emit(args, meta, rows={
            "year": cells["year"], "fractile": [repr(p) for p in cells["p"]],
            "method": cells["method"], "share_pct": share_pct,
            "share_pct_full": _column(lambda v: repr(100.0 * v), shown, cells["share"]),
            "threshold": _column(repr, shown, cells["threshold"]),
            "top_income": _column(repr, shown, cells["top_income"]),
            "bracket": _column(lambda b: "" if b < 0 else b, shown, cells["bracket"]),
            "extrapolated": _column(lambda x: "true" if x else "false", shown,
                                    cells["extrapolated"]),
            "status": cells["status"]})
    else:
        # one wide row per year and method; a year's cells are fractile-major,
        # so a row's shares start at its method's cell and lie m apart
        m, n = len(methods), len(fractiles) * len(methods)
        starts = [i + k for i in range(0, len(shown), n) for k in range(m)]
        _emit(args, meta, rows={
            "Year": [cells["year"][i] for i in starts],
            "method": [cells["method"][i] for i in starts],
            **{_fractile_header(p): [share_pct[i + j * m] for i in starts]
               for j, p in enumerate(fractiles)}})
    return _exit_status(cells["status"])


def cmd_diagnostics(args) -> int:
    fractiles = _parse_fractiles(args.fractiles)
    # PI's reference bracket is the class whose top fraction is nearest p
    cells = _outcomes(args, fractiles, ("PI",), "ok", "bracket", "fit_threshold",
                      "fit_fraction")
    shown = [s == "ok" for s in cells["status"]]
    _emit(args, {"command": "diagnostics"}, rows={
        "year": cells["year"], "classes": cells["classes"],
        "fractile": [repr(p) for p in cells["p"]],
        "selected_fraction": _column(repr, shown, cells["fit_fraction"]),
        "distance_pp": _column(lambda f, p: repr(100.0 * (f - p)), shown,
                               cells["fit_fraction"], cells["p"]),
        "bracket": _column(lambda b: b, shown, cells["bracket"]),
        "threshold": _column(repr, shown, cells["fit_threshold"]),
        "status": cells["status"]})
    return _exit_status(cells["status"])


def _table(items, cls) -> dict:
    """Columns of dataclass instances, fields in declared order: floats as
    repr, None as empty."""
    return {f.name: ["" if v is None else repr(v) if isinstance(v, float) else v
                     for v in (getattr(item, f.name) for item in items)]
            for f in dataclasses.fields(cls)}


def _emit_report(args, report, meta) -> int:
    cells = _table(report.cells, microbench.ErrorCell)
    _emit(args, meta, cells=cells,
          summaries=_table(report.summaries, microbench.ErrorSummary))
    # a report cell's status is ok or error:<Type>
    return _exit_status(cells["status"])


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
    if args.classes is not None:
        overrides["classes"] = tuple(_parse_list("--classes", args.classes, int))
    if args.fractiles is not None:
        overrides["fractiles"] = tuple(_parse_fractiles(args.fractiles))
    if args.size is not None:
        overrides["size"] = args.size
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    report = microbench.run_protocol(spec)
    return _emit_report(args, report, {"command": "synth", "spec": spec.to_dict()})


def cmd_compare(args) -> int:
    fractiles = _parse_fractiles(args.fractiles) if args.fractiles is not None \
        else microbench.BenchmarkSpec.fractiles
    classes = tuple(_parse_list("--classes", args.classes, int)) \
        if args.classes is not None else microbench.BenchmarkSpec.classes
    for k in classes:  # at the default ladder evaluate_sample lays them by
        microbench._check_ladder(k, microbench.TOP_FRACTION, microbench.SCHEME)
    with open(args.micro, "r", encoding="utf-8") as fh:
        sample = microbench.load_micro_csv(fh)
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
    comp.add_argument("--fractiles")
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
