"""The four workloads: what each op runs, and how its output is checked.

series_cli        fresh `topshares estimate --layout appendix` on ~200 years
synth_1e6         fresh `topshares synth` at n = 10^6, one trial
compare_weighted  fresh `topshares compare` on a weighted 2x10^5-row micro CSV
recover_ladder    in-process recover_thresholds at K = 8, 20, 40, 60

A check returns None when the output is right, else a one-line reason; a
failing op counts in error_frac and is never retried or filtered out.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import inputs

SERIES_HEADER_LONG = ["year", "fractile", "method", "share_pct", "share_pct_full",
                      "threshold", "top_income", "bracket", "extrapolated",
                      "status"]
CELL_HEADER = ["trial", "classes", "fractile", "method", "estimate", "oracle",
               "rel_error", "status"]
METHODS = ("PI", "ME")
EXACT_TOL = 1e-12
MARKER = "-"


def _appendix_header(p: float) -> str:
    text = f"{100.0 * (1.0 - p):.10f}".rstrip("0").rstrip(".")
    return f"P{text}-100"


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


class FreshProcessWorkload:
    """A workload whose op is one fresh `topshares` process."""

    name = ""
    cells_per_op = 0
    out_name = "out.csv"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / self.out_name

    def prepare(self) -> None:
        raise NotImplementedError

    def op_args(self) -> list[str]:
        raise NotImplementedError

    def check(self, code: int, text: str) -> str | None:
        raise NotImplementedError

    def check_ops(self) -> list[tuple[list[str], Path, object]]:
        """Untimed ops run once per run before timing: (args, output path,
        check(code, text))."""
        return []

    def rel_err_max(self, text: str) -> float | None:
        return None

    def input_rows(self) -> int:
        return 0


def _cells(text: str) -> list[dict]:
    """Cell rows of a synth/compare CSV report (the part before the blank
    line that precedes the summaries)."""
    head, sep, _ = text.partition("\n\n")
    if not sep:
        raise ValueError("report has no summary section")
    rows = list(csv.reader(io.StringIO(head)))
    if rows[0] != CELL_HEADER:
        raise ValueError(f"unexpected cell header {rows[0]}")
    return [dict(zip(CELL_HEADER, r)) for r in rows[1:]]


class SeriesCli(FreshProcessWorkload):
    name = "series_cli"
    cells_per_op = inputs.SERIES_YEARS * len(inputs.SERIES_FRACTILES) * len(METHODS)
    out_name = "appendix.csv"

    def prepare(self) -> None:
        self.data = inputs.series_inputs(self.seed)
        tab, den = inputs.series_csv(self.data)
        self.tab = self.work / "tabulations.csv"
        self.den = self.work / "denominators.csv"
        self.tab.write_text(tab, encoding="utf-8")
        self.den.write_text(den, encoding="utf-8")
        self.long_out = self.work / "long.csv"
        self.expected = {}  # (year, p, method) -> status
        for y in self.data.years:
            covered = y.counts_above[-1] / y.population
            top = y.counts_above[0] / y.population
            for p in inputs.SERIES_FRACTILES:
                status = ("uncovered" if p > covered
                          else "extrapolation_disabled" if p < top else "ok")
                for m in METHODS:
                    self.expected[(y.year, p, m)] = status
        self.appendix_cells = None  # filled from the long-layout check op

    def input_rows(self) -> int:
        return self.data.rows

    def _base_args(self) -> list[str]:
        return ["estimate", "--input", str(self.tab),
                "--denominators", str(self.den)]

    def op_args(self) -> list[str]:
        return self._base_args() + ["--layout", "appendix", "--out", str(self.out)]

    def check_ops(self):
        return [(self._base_args() + ["--out", str(self.long_out)],
                 self.long_out, self.check_long)]

    def check_long(self, code: int, text: str) -> str | None:
        """Every cell's status is the predicted one; at exact years both
        methods reproduce the tabulated cumulative income."""
        if code != 0:
            return f"exit status {code}"
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != SERIES_HEADER_LONG:
            return f"unexpected header {rows[0]}"
        rows = rows[1:]
        if len(rows) != self.cells_per_op:
            return f"{len(rows)} rows, expected {self.cells_per_op}"
        by_year = {y.year: y for y in self.data.years}
        cells = {}
        for r in rows:
            row = dict(zip(SERIES_HEADER_LONG, r))
            if len(r) != len(SERIES_HEADER_LONG):
                return f"row with {len(r)} columns"
            key = (int(row["year"]), float(row["fractile"]), row["method"])
            want = self.expected.get(key)
            if want is None or key in cells:
                return f"unexpected or repeated row {key}"
            if row["status"] != want:
                return f"{key}: status {row['status']!r}, expected {want!r}"
            cells[key] = row["share_pct"]
            if want != "ok":
                if row["share_pct"] != MARKER:
                    return f"{key}: value on a {want} row"
                continue
            share = float(row["share_pct_full"])
            if not 0.0 < share < 100.0 or row["share_pct"] != f"{share:.2f}":
                return f"{key}: share {row['share_pct_full']} out of range"
            year = by_year[key[0]]
            if key[0] in self.data.exact_years and key[1] in inputs.EXACT_FRACTILES:
                k = year.counts_above.index(round(key[1] * year.population))
                cum = math.fsum(year.bracket_income[:k + 1])
                if _rel(float(row["top_income"]), cum) > EXACT_TOL:
                    return (f"{key}: top income {row['top_income']} does not "
                            f"reproduce tabulated {cum!r}")
        self.appendix_cells = cells
        return None

    def check(self, code: int, text: str) -> str | None:
        """Appendix shape, order and values: each cell is the long layout's
        rounded share, or the marker where no share is emitted."""
        if code != 0:
            return f"exit status {code}"
        rows = list(csv.reader(io.StringIO(text)))
        headers = [_appendix_header(p) for p in inputs.SERIES_FRACTILES]
        if rows[0] != ["Year", "method", *headers]:
            return f"unexpected header {rows[0]}"
        rows = rows[1:]
        expected_rows = [(y.year, m) for y in self.data.years for m in METHODS]
        if len(rows) != len(expected_rows):
            return f"{len(rows)} rows, expected {len(expected_rows)}"
        for r, (year, method) in zip(rows, expected_rows):
            if len(r) != 2 + len(headers):
                return f"row with {len(r)} columns"
            if (int(r[0]), r[1]) != (year, method):
                return f"row {r[:2]} out of order, expected {(year, method)}"
            for p, cell in zip(inputs.SERIES_FRACTILES, r[2:]):
                key = (year, p, method)
                if self.appendix_cells is not None:
                    if cell != self.appendix_cells[key]:
                        return f"{key}: appendix {cell!r} != long layout"
                elif (cell == MARKER) != (self.expected[key] != "ok"):
                    return f"{key}: cell {cell!r} with status {self.expected[key]}"
        return None


class _ReportWorkload(FreshProcessWorkload):
    """synth and compare both print ErrorCells plus summaries."""

    classes: tuple[int, ...] = ()
    fractiles: tuple[float, ...] = ()

    @property
    def cells_per_op(self) -> int:
        return len(self.classes) * len(self.fractiles) * len(METHODS)

    def check_cells(self, cells: list[dict]) -> str | None:
        want = {(k, p, m) for k in self.classes for p in self.fractiles
                for m in METHODS}
        got = [(int(c["classes"]), float(c["fractile"]), c["method"]) for c in cells]
        if len(got) != len(want) or set(got) != want:
            return f"{len(got)} cells, not one per (K, fractile, method)"
        for c, key in zip(cells, got):
            if c["status"] != "ok":
                return f"{key}: status {c['status']!r}"
            est, oracle, rel = (float(c[f]) for f in ("estimate", "oracle", "rel_error"))
            if not (0.0 < oracle <= 1.0 and 0.0 < est and math.isfinite(est)):
                return f"{key}: estimate {est} or oracle {oracle} out of range"
            if abs(rel - (est / oracle - 1.0)) > EXACT_TOL:
                return f"{key}: rel_error {rel} inconsistent"
        return None

    def rel_err_max(self, text: str) -> float | None:
        return max(abs(float(c["rel_error"])) for c in _cells(text))

    def check(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit status {code}"
        try:
            cells = _cells(text)
        except (ValueError, IndexError) as err:
            return f"unreadable report: {err}"
        return self.check_cells(cells) or self.check_oracle(cells)

    def check_oracle(self, cells: list[dict]) -> str | None:
        raise NotImplementedError


class Synth1e6(_ReportWorkload):
    name = "synth_1e6"
    out_name = "synth.csv"
    classes = inputs.SYNTH_CLASSES
    fractiles = inputs.SYNTH_FRACTILES

    def prepare(self) -> None:
        self.spec = self.work / "spec.json"
        self.spec.write_text(json.dumps(inputs.synth_spec(self.seed)), encoding="utf-8")

    def op_args(self) -> list[str]:
        return ["synth", "--spec", str(self.spec), "--out", str(self.out)]

    def check_oracle(self, cells):
        """One sample per op: each fractile has one oracle, and oracle shares
        shrink with the fractile."""
        oracle = {}
        for c in cells:
            oracle.setdefault(float(c["fractile"]), set()).add(c["oracle"])
        if any(len(v) != 1 for v in oracle.values()):
            return "a fractile has more than one oracle share"
        values = [float(next(iter(oracle[p]))) for p in self.fractiles]
        if any(b >= a for a, b in zip(values, values[1:])):
            return f"oracle shares not decreasing in the fractile: {values}"
        return None


class CompareWeighted(_ReportWorkload):
    name = "compare_weighted"
    out_name = "compare.csv"
    classes = inputs.COMPARE_CLASSES
    fractiles = inputs.COMPARE_FRACTILES

    def prepare(self) -> None:
        incomes, weights = inputs.micro_sample(self.seed)
        self.micro = self.work / "micro.csv"
        self.micro.write_text(inputs.micro_csv(incomes, weights), encoding="utf-8")
        self.rows = len(incomes)
        self.oracle = {p: inputs.weighted_oracle(incomes, weights, p)
                       for p in self.fractiles}

    def input_rows(self) -> int:
        return self.rows

    def op_args(self) -> list[str]:
        return ["compare", "--micro", str(self.micro), "--out", str(self.out)]

    def check_oracle(self, cells):
        for c in cells:
            p = float(c["fractile"])
            if _rel(float(c["oracle"]), self.oracle[p]) > EXACT_TOL:
                return (f"fractile {p}: oracle {c['oracle']} != weighted "
                        f"tie-aware oracle {self.oracle[p]!r}")
        return None


FRESH = {w.name: w for w in (SeriesCli, Synth1e6, CompareWeighted)}
RECOVER = "recover_ladder"
NAMES = (*FRESH, RECOVER)

# Layers each workload must exercise; a traced run where one of them records
# no call is reported as incorrect.
EXPECTED_LAYERS = {
    "series_cli": ("cli", "tabulation", "pareto", "maxent"),
    "synth_1e6": ("cli", "tabulation", "pareto", "maxent", "microbench"),
    "compare_weighted": ("cli", "tabulation", "pareto", "maxent", "microbench"),
    "recover_ladder": ("maxent",),
}
