"""Command line interface: artifacts, markers, layouts, determinism, exits."""

import collections
import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from topshares import cli, maxent, microbench, pareto, tabulation
from topshares.cli import main
from topshares.errors import ParseError

from conftest import estimate, fresh_python, tabulation_csv

TAB_CSV = """year,lower_threshold,returns,income_sum
1950,10000,50,750000
1950,5000,150,1050000
1950,2000,300,900000
1950,1000,500,700000
1951,10000,60,930000
1951,5000,140,980000
1951,2000,310,930000
1951,1000,490,690000
"""

DENOM_CSV = """year,population,total_income,income_unit
1950,5000,10000000,1
1951,5000,10500000,1
"""


@pytest.fixture
def inputs(tmp_path):
    tab = tmp_path / "tab.csv"
    tab.write_text(TAB_CSV)
    den = tmp_path / "den.csv"
    den.write_text(DENOM_CSV)
    return tab, den


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEstimate:
    def test_long_layout_rows_and_markers(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--method", "both", "--fractiles", "0.25,0.10,0.01,0.001",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        # 2 years x 4 fractiles x 2 methods, ordered year then fractile
        assert len(rows) == 16
        assert [r["year"] for r in rows[:8]] == ["1950"] * 8
        assert rows[0]["fractile"] == "0.25"
        # p > covered fraction: marker row
        assert rows[0]["share_pct"] == "-"
        assert rows[0]["status"] == "uncovered"
        # covered fractiles carry 2-decimal percent plus full precision
        ten = [r for r in rows if r["fractile"] == "0.1" and r["year"] == "1950"]
        for r in ten:
            pct = float(r["share_pct"])
            assert f"{pct:.2f}" == r["share_pct"]
            assert abs(float(r["share_pct_full"]) - pct) < 0.005
        # deeper than the top bracket: disabled by default
        deep = [r for r in rows if r["fractile"] == "0.001"]
        assert all(r["status"] == "extrapolation_disabled" for r in deep)
        assert all(r["share_pct"] == "-" for r in deep)

    def test_allow_extrapolation_emits_flagged_values(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--fractiles", "0.01,0.001", "--allow-extrapolation",
                     "--out", str(out)])
        assert code == 0
        deep = [r for r in read_rows(out) if r["fractile"] == "0.001"]
        assert deep and all(r["status"] == "extrapolated" for r in deep)
        assert all(r["extrapolated"] == "true" for r in deep)
        assert all(r["share_pct"] != "-" for r in deep)

    def test_pi_and_me_exact_rows_agree_at_tabulated_fraction(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "out.csv"
        # 0.01 is exactly the 1950 top bracket fraction (50/5000)
        main(["estimate", "--input", str(tab), "--denominators", str(den),
              "--fractiles", "0.01", "--out", str(out)])
        rows = [r for r in read_rows(out) if r["year"] == "1950"]
        assert len(rows) == 2
        assert rows[0]["share_pct_full"] == rows[1]["share_pct_full"]
        assert float(rows[0]["share_pct"]) == pytest.approx(
            100 * 750000 / 10000000, abs=0.005)

    def test_appendix_layout_headers(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "wide.csv"
        code = main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--method", "me", "--layout", "appendix",
                     "--fractiles", "0.10,0.05,0.01,0.005,0.001,0.0001",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["Year", "method", "P90-100", "P95-100", "P99-100",
                          "P99.5-100", "P99.9-100", "P99.99-100"]
        rows = read_rows(out)
        assert [r["Year"] for r in rows] == ["1950", "1951"]
        # fractiles beyond the data carry the dash marker
        assert rows[0]["P99.99-100"] == "-"

    def test_json_format_carries_full_precision(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "out.json"
        main(["estimate", "--input", str(tab), "--denominators", str(den),
              "--fractiles", "0.10", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "estimate"
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert float(row["share_pct_full"]) > 0

    def test_byte_identical_reruns(self, inputs, tmp_path):
        tab, den = inputs
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["estimate", "--input", str(tab), "--denominators", str(den),
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_per_row_estimation_failure_exits_two(self, tmp_path):
        # a bracket mean resting exactly on its lower threshold is valid
        # grouped data but admits no tilted piece: ME rows fail, PI rows
        # succeed, and the batch completes with exit status 2
        tab = tmp_path / "tab.csv"
        tab.write_text("year,lower_threshold,returns,income_sum\n"
                       "1950,10000,50,750000\n"
                       "1950,5000,150,750000\n"   # mean exactly 5000
                       "1950,1000,500,700000\n")
        den = tmp_path / "den.csv"
        den.write_text("year,population,total_income,income_unit\n"
                       "1950,5000,10000000,1\n")
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "0.10", "--out", str(out)])
        assert code == 2
        rows = read_rows(out)
        status = {r["method"]: r["status"] for r in rows}
        assert status["PI"] == "ok"
        assert status["ME"] == "error:MeanOnBoundaryError"

    def test_unreadable_input_exits_one(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--denominators", str(tmp_path / "nope2.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "diagnostics"])
    def test_empty_top_bracket_fails_only_its_year(self, tmp_path, command):
        # 1900's top bracket has no returns; 1901 is the valid 1951 table
        tab = tmp_path / "tab.csv"
        tab.write_text(TAB_CSV.replace("1950,10000,50,750000", "1900,10000,0,0")
                       .replace("1950,", "1900,").replace("1951,", "1901,"))
        den = tmp_path / "den.csv"
        den.write_text(DENOM_CSV.replace("1950,", "1900,").replace("1951,", "1901,"))
        out = tmp_path / "out.csv"
        assert main([command, "--input", str(tab), "--denominators", str(den),
                     "--fractiles", "0.10,0.01", "--out", str(out)]) == 2
        status = {}
        for r in read_rows(out):
            status.setdefault(r["year"], set()).add(r["status"])
        assert status["1900"] == {"error:ValueError"}
        assert "ok" in status["1901"]
        assert not any(s.startswith("error:") for s in status["1901"])

    def test_income_past_the_float_range_fails_its_year(self, tmp_path, capsys):
        # a valid year whose income sums add up to inf once warned of the
        # overflow and printed shares near 3.4e306 percent with status ok
        tab, den, out = tmp_path / "tab.csv", tmp_path / "den.csv", tmp_path / "out.csv"
        tab.write_text("year,lower_threshold,returns,income_sum\n"
                       "1950,1.5e308,1,1.7e308\n1950,1e308,1,1.2e308\n")
        den.write_text("year,population,total_income,income_unit\n1950,2,5000,1\n")
        assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--fractiles", "0.5", "--out", str(out)]) == 2
        assert [r["status"] for r in read_rows(out)] == ["error:ValueError"] * 2
        assert capsys.readouterr().err == ""

    def test_empty_or_invalid_fractiles_exit_one(self, inputs, capsys):
        tab, den = inputs
        assert main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", ""]) == 1
        assert main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "0.01,0.10"]) == 1
        assert main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "1.5"]) == 1

    def test_subnormal_mean_position_is_an_error_not_nan(self, tmp_path, capsys):
        # the bottom bracket's mean sits a subnormal fraction of its width
        # above 0, so the rate solve's initial guess -1/r would overflow
        tab = tmp_path / "tab.csv"
        tab.write_text("year,lower_threshold,returns,income_sum\n"
                       "1950,1,1,2\n1950,0,2,4.450147717014407e-309\n")
        den = tmp_path / "den.csv"
        den.write_text("year,population,total_income,income_unit\n1950,3,3,1\n")
        assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--fractiles", "0.5"]) == 2
        rows = {r.split(",")[2]: r for r in capsys.readouterr().out.splitlines()[1:]}
        assert rows["ME"] == "1950,0.5,ME,-,,,,,,error:MeanOnBoundaryError"
        assert rows["PI"].endswith(",ok")

    def test_no_year_cumulates(self, tmp_path):
        # the only year's top bracket is empty, so no year reaches the
        # shared rate solve; the year still gets its error rows
        tab = tmp_path / "tab.csv"
        tab.write_text("year,lower_threshold,returns,income_sum\n"
                       "1900,10000,0,0\n1900,5000,150,1050000\n")
        den = tmp_path / "den.csv"
        den.write_text("year,population,total_income,income_unit\n"
                       "1900,5000,10000000,1\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--fractiles", "0.1", "--out", str(out)]) == 2
        assert [r["status"] for r in read_rows(out)] == ["error:ValueError"] * 2

    def test_boundary_mean_year_fails_alone(self, inputs, tmp_path):
        # every year's brackets share one rate solve, yet a year whose mean
        # sits on its bracket boundary fails by itself: its ME rows are
        # errors, and every other row is byte-identical to a run without it
        tab, den = inputs
        tab_bad = tmp_path / "tab_bad.csv"
        tab_bad.write_text(TAB_CSV + "1949,10000,50,750000\n"
                           "1949,5000,150,750000\n"   # mean exactly 5000
                           "1949,1000,500,700000\n")
        den_bad = tmp_path / "den_bad.csv"
        den_bad.write_text(DENOM_CSV + "1949,5000,10000000,1\n")
        out, out_bad = tmp_path / "out.csv", tmp_path / "out_bad.csv"
        assert main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--out", str(out)]) == 0
        assert main(["estimate", "--input", str(tab_bad), "--denominators",
                     str(den_bad), "--out", str(out_bad)]) == 2
        lines = out_bad.read_text().splitlines(keepends=True)
        bad_year = [line for line in lines if line.startswith("1949,")]
        assert [line.split(",")[2] for line in bad_year] == ["PI", "ME"] * 6
        assert all(line.endswith(",error:MeanOnBoundaryError\n")
                   for line in bad_year[1::2])
        assert not any("error:" in line for line in bad_year[0::2])
        assert "".join(line for line in lines if not line.startswith("1949,")) \
            == out.read_text()


# SHA-256 of the artifacts on the ``inputs`` fixture. They pin every digit,
# column and status, so a refactor of the estimate loop or the emitter that
# changes one byte of output fails here. The ME digits depend on the bits of
# numpy's exp, expm1, log and log1p, which follow the SIMD code path numpy
# dispatches to on the host CPU.
PINNED_ARTIFACTS = {
    ("estimate", "long", "csv"):
        "6ad5d983b36e91c36f0aef8078321b8371a54e0957043ec4f0c7fcb4aed1ab2b",
    ("estimate", "long", "json"):
        "3bff5f5b60a9c89990e36dc079e98b4b90e9755e81417daa1de6207dc55fd7ba",
    ("estimate", "appendix", "csv"):
        "c2a20bab0af920fdbc4bb3b824cda338852e561a560ad7672602deac12f8682c",
    ("estimate", "appendix", "json"):
        "66250eded6720df553bea9ec9c148de330d59d79d2c6a16d7e639acf1ec91cfc",
    ("diagnostics", None, "csv"):
        "ea9425b71ce9282625de9b43314966a0c75ec8329e9db04234927a8330793114",
    ("diagnostics", None, "json"):
        "ff04814bfccaaa74c629898a5ebc7866347dbb5117b3264de8b4297d88a1b608",
}


@pytest.mark.parametrize("command,layout,fmt", sorted(
    PINNED_ARTIFACTS, key=lambda k: (k[0], k[1] or "", k[2])))
def test_artifact_bytes_pinned(inputs, tmp_path, command, layout, fmt):
    tab, den = inputs
    out = tmp_path / f"out.{fmt}"
    argv = [command, "--input", str(tab), "--denominators", str(den),
            "--format", fmt, "--out", str(out)]
    if layout:
        argv += ["--layout", layout]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACTS[(command, layout, fmt)], out.read_text()


def _series_csv(years: int = 120) -> tuple[str, str]:
    """A deterministic series of 3-40 brackets a year, rows shuffled.

    Local Pareto laws with per-year exponents, coverage and income units;
    among the years are uncovered fractiles (coverage below 10%), deep
    extrapolated fractiles, zero bottom thresholds, empty middle brackets,
    empty top brackets (every ME and PI row an error) and a bracket mean on
    its lower threshold (the year's ME rows fail). At 10% coverage a zero
    bottom threshold is PI's reference bracket for the top decile.
    """
    rows, dens = [], []
    for i in range(years):
        year, k = 1850 + i, 3 + i * 13 % 38
        alpha, ratio = 1.5 + i % 7 * 0.2, 1.15 + i % 5 * 0.1
        unit = 1000.0 if i % 4 == 1 else 1.0
        bottom = float(2000 + i * 37 % 900)
        thresholds = [round(bottom * ratio ** (k - 1 - j)) * 1.0 for j in range(k)]
        if i % 11 == 3:
            thresholds[-1] = 0.0
        above = [round(4e6 * (t / bottom) ** -alpha) if t else 4_000_000
                 for t in thresholds]
        counts = [max(1, above[0])] + [b - a for a, b in zip(above, above[1:])]
        means = [thresholds[0] * alpha / (alpha - 1.0)]
        means += [t + (0.3 + (i + j) % 5 * 0.05) * (u - t)
                  for j, (t, u) in enumerate(zip(thresholds[1:], thresholds), 1)]
        if i % 13 == 4 and k > 3:
            counts[1] = 0
        if i % 23 == 5:
            counts[0] = 0
        if i % 29 == 7:  # a whole-number mean, exact in double precision
            means[k // 2] = thresholds[k // 2]
            unit = 1.0
        sums = [c * m / unit for c, m in zip(counts, means)]
        # at 10% coverage, PI's top-decile bracket is the zero threshold
        covered = 0.1 if i % 11 == 3 else 0.04 + i * 37 % 100 / 100 * 0.9
        for j in range(k):
            rows.append(((j * 7919 + i * 31) % 1009,
                         f"{year},{thresholds[j]!r},{counts[j]},{sums[j]!r}"))
        dens.append(f"{year},{round(sum(counts) / covered)},"
                    f"{sum(sums) * 1.4!r},{unit!r}")
    rows.sort()
    return ("year,lower_threshold,returns,income_sum\n"
            + "".join(f"{line}\n" for _, line in rows),
            "year,population,total_income,income_unit\n"
            + "".join(f"{line}\n" for line in dens))


# (exit status, SHA-256) of each command on ``_series_csv``, recorded before
# the tabulation reader, validation, cumulation and PI selection became
# array passes (the long-layout estimates re-recorded when the rate solve
# began Newton at the evaluated point nearest the root, which moves ME
# digits only); like PINNED_ARTIFACTS they depend on numpy's exp, expm1,
# log and log1p bits.
PINNED_SERIES = {
    ("estimate", "long", "csv", False):
        (2, "acb8b53fb23dcf3827dfe800c82828d1f67eea1a54deec66fe8338b8832d03d5"),
    ("estimate", "long", "csv", True):
        (2, "73a4af262e93c94dd8d6b8018ed67f99dc86655429d9a316da06951a1d854386"),
    ("estimate", "appendix", "csv", False):
        (2, "bd4f1114229e0ab53ea266a1d99d76eae01adf2874d01d0c6b9ef82ab2767dc8"),
    ("estimate", "appendix", "csv", True):
        (2, "ac6ab5200dc9106631dedc27cfe63046a585881dc5b69baf53ea19033f769bb9"),
    ("estimate", "long", "json", False):
        (2, "c9c7c942e419610f1296fc95d1b23c05b5badc436f54af099234b0b3d835c185"),
    ("estimate", "long", "json", True):
        (2, "960869a0dfcb8d4e97899d3429935672d22bc089f22f91f04af29c57d1532bb1"),
    ("diagnostics", None, "csv", False):
        (2, "da0e94aa79f63c9fe7b93f019aa746bad85e9e3306c791523f92501912448efc"),
    ("diagnostics", None, "json", False):
        (2, "009c7d8dbad1da9abf1fd058fd27d4cde7a87d339fff10de0bedcf04573a6d60"),
}


@pytest.mark.parametrize("command,layout,fmt,extrapolate", sorted(
    PINNED_SERIES, key=lambda k: (k[0], k[1] or "", k[2], k[3])))
def test_series_bytes_pinned(tmp_path, command, layout, fmt, extrapolate):
    tab_text, den_text = _series_csv()
    tab, den, out = (tmp_path / name for name in ("tab.csv", "den.csv", f"out.{fmt}"))
    tab.write_text(tab_text)
    den.write_text(den_text)
    argv = [command, "--input", str(tab), "--denominators", str(den),
            "--format", fmt, "--out", str(out)]
    if layout:
        argv += ["--layout", layout]
    if extrapolate:
        argv.append("--allow-extrapolation")
    code, digest = PINNED_SERIES[(command, layout, fmt, extrapolate)]
    assert main(argv) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_series_estimate_is_one_pass(tmp_path, monkeypatch):
    # one read, one rate solve, one column layout per method, no density
    # object, and no per-year or per-cell calls into the scalar validate,
    # cumulate and PI selection
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "loadtxt", counting("loadtxt", np.loadtxt))
    monkeypatch.setattr(maxent, "_solve_rates", counting("_solve_rates",
                                                         maxent._solve_rates))
    monkeypatch.setattr(maxent.MaxEntDensity, "__post_init__", counting(
        "MaxEntDensity", maxent.MaxEntDensity.__post_init__))
    for module, name in ((tabulation, "validate"), (tabulation, "cumulate"),
                         (tabulation, "_rows"), (tabulation, "_stack"),
                         (pareto, "select_bracket"), (pareto, "pi_share_from_stats")):
        original = getattr(module, name)
        for namespace in (tabulation, pareto, maxent, microbench, cli):
            if getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counting(name, original))
    tab_text, den_text = _series_csv(50)
    tab, den = tmp_path / "tab.csv", tmp_path / "den.csv"
    tab.write_text(tab_text)
    den.write_text(den_text)
    assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert calls == {"loadtxt": 2, "_solve_rates": 1, "_stack": 2}


@pytest.mark.parametrize("rows,population,message", [
    # a count beyond int64 once ended in an OverflowError traceback
    ("1950,10,100000000000000000000,1e21\n1950,5,1,6\n", 10**21,
     "line 2: population 1000000000000000000000 is outside the int64 range"),
    ("1950,10,100000000000000000000,1e21\n1950,5,1,6\n", 5000,
     "line 2: returns 100000000000000000000 is outside the int64 range"),
    # counts that fit an int64 but whose total does not once wrapped
    # negative, printing every covered cell as uncovered with exit 0
    ("1950,10,9223372036854775000,2e20\n1950,5,9000,6e4\n", 10**19,
     "line 2: population 10000000000000000000 is outside the int64 range"),
    ("1950,10,9223372036854775000,2e20\n1950,5,9000,6e4\n", 2**63 - 1,
     "year 1950: invalid tabulation: [counts_exceed_population] "
     "9223372036854784000 returns exceed population 9223372036854775807; "
     "[counts_exceed_int64] 9223372036854784000 returns exceed 2**63 - 1"),
])
def test_counts_beyond_int64_exit_one(tmp_path, capsys, rows, population, message):
    tab, den, out = tmp_path / "tab.csv", tmp_path / "den.csv", tmp_path / "out.csv"
    tab.write_text("year,lower_threshold,returns,income_sum\n" + rows)
    den.write_text("year,population,total_income,income_unit\n"
                   f"1950,{population},1e22,1\n")
    assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("row,message", [
    ("1950,0,1e6,1", "population 0 must be positive"),
    ("1950,-5,1e6,1", "population -5 must be positive"),
    ("1950,100,0,1", "total_income 0.0 must be positive"),
    ("1950,100,-1e6,1", "total_income -1000000.0 must be positive"),
    ("1950,100,1e6,0", "income_unit 0.0 must be positive"),
    ("1950,100,1e6,-0.001", "income_unit -0.001 must be positive"),
])
def test_non_positive_denominators_exit_one(tmp_path, capsys, row, message):
    tab, den, out = tmp_path / "tab.csv", tmp_path / "den.csv", tmp_path / "out.csv"
    tab.write_text("year,lower_threshold,returns,income_sum\n1950,10,5,75\n1950,5,10,75\n")
    den.write_text(f"year,population,total_income,income_unit\n1949,100,1e6,1\n{row}\n")
    with pytest.raises(ParseError) as err:
        tabulation.parse_denominators(den.read_text())
    assert (err.value.line, str(err.value)) == (3, f"line 3: {message}")
    for command in ("estimate", "diagnostics"):
        assert main([command, "--input", str(tab), "--denominators", str(den),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: line 3: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("rows,total,message", [
    ("1950,2e12,5,1e300\n1950,1e12,10,1500\n", "1e6",
     "[scaled_income_sum_not_finite] income_sum 1e+300 times income_unit "
     "10000000000.0 is not finite"),
    ("1950,2e12,5,1500\n1950,1e12,10,1500\n", "1e300",
     "[scaled_total_income_not_finite] total_income 1e+300 times income_unit "
     "10000000000.0 is not finite"),
], ids=["income_sum", "total_income"])
def test_income_overflowing_threshold_units_exits_one(tmp_path, capsys, rows, total,
                                                      message):
    # the scaled income sum once leaked an overflow warning and printed nan
    # ME shares with status ok; the scaled total printed every share as 0.00
    tab, den, out = tmp_path / "tab.csv", tmp_path / "den.csv", tmp_path / "out.csv"
    tab.write_text("year,lower_threshold,returns,income_sum\n" + rows)
    den.write_text(f"year,population,total_income,income_unit\n1950,100,{total},1e10\n")
    for method in ("me", "pi", "both"):
        assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                     "--method", method, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: year 1950: invalid tabulation: {message}\n")
        assert not out.exists()


def test_pi_overflow_is_a_typed_error(tmp_path, capsys):
    # the coefficient at a 2e-300 threshold is about 5e306, so the top
    # income overflows: the rows once read inf with status ok and exit 0
    tab, den = tmp_path / "tab.csv", tmp_path / "den.csv"
    tab.write_text("year,lower_threshold,returns,income_sum\n"
                   "1950,2e-300,300,3e9\n1950,1e-300,200,3e-298\n")
    den.write_text("year,population,total_income,income_unit\n1950,1000,1e10,1\n")
    assert main(["estimate", "--input", str(tab), "--denominators", str(den),
                 "--method", "pi", "--fractiles", "0.4,0.3"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"1950,{p},PI,-,,,,,,error:ParetoFitError" for p in ("0.4", "0.3")]


# The protocol commands on a lognormal-Pareto mixture and on a weighted micro
# CSV with tied incomes. Their SHA-256 pins cover the oracle, the threshold
# ladder and the tabulation behind every cell.
PINNED_SPEC = {
    "distribution": {
        "kind": "mixture", "weights": [0.92, 0.08],
        "components": [{"kind": "lognormal", "location": 10.2, "shape": 0.75},
                       {"kind": "pareto", "exponent": 2.2, "scale": 6e4}]},
    "size": 20_000, "classes": [8, 14, 20, 30],
    "fractiles": [0.5, 0.1, 0.01, 0.001], "trials": 1, "seed": 11,
}


def _tied_micro_csv() -> str:
    """4,000 rows: whole-currency Pareto incomes at 2,000 quantiles, each
    drawn twice, with weights 1-23. Some brackets hold one tied income, so
    their ME cells fail and the command exits 2."""
    rows = ["income,weight"]
    for i in range(4000):
        u = (i * 1231) % 2000 / 2000.0
        rows.append(f"{int(2e4 * (1.0 - u) ** -0.5)},{1 + i * 7 % 23}")
    return "\n".join(rows) + "\n"


# (exit status, SHA-256) per command and format. The digests depend on the
# bits of numpy's exp, expm1, log and log1p (the ME rates and queries, and
# the lognormal draws), which follow the SIMD code path numpy dispatches to
# on the host CPU.
PINNED_REPORTS = {
    ("synth", "csv"):
        (0, "53a3ed7a0e0940688f4859006a921aad71c2e17b9ab5a83f9f80800d0f453e7e"),
    ("synth", "json"):
        (0, "68be1b0fae8998b0938f529cdc2d89360aaf409252541484a77d56d47506ed0a"),
    ("compare", "csv"):
        (2, "972840f3249d8c33e399c609862797fd75be3897049fdf48b05e6aac5092fd8a"),
    ("compare", "json"):
        (2, "748f60db20f6fb36a8b4092280edc6b0c20770e24b713a322b2c6510162fa3cc"),
}


@pytest.mark.parametrize("command,fmt", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, command, fmt):
    source = tmp_path / "input"
    if command == "synth":
        source.write_text(json.dumps(PINNED_SPEC))
        argv = ["synth", "--spec", str(source)]
    else:
        source.write_text(_tied_micro_csv())
        argv = ["compare", "--micro", str(source)]
    code, digest = PINNED_REPORTS[(command, fmt)]
    out = tmp_path / f"out.{fmt}"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, out.read_text()


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_malformed_csv_exits_one_with_line(inputs, tmp_path, capsys, command):
    # a field beyond the CSV module's 131,072-character limit
    tab, den = inputs
    if command == "estimate":
        tab.write_text(TAB_CSV + "1952," + "1" * 200_000 + ",5,10\n")
        argv = ["estimate", "--input", str(tab), "--denominators", str(den)]
        line = 10
    else:
        micro = tmp_path / "micro.csv"
        micro.write_text("income,weight\n1,2\n" + "9" * 200_000 + ",1\n")
        argv = ["compare", "--micro", str(micro)]
        line = 3
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: malformed CSV")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "diagnostics", "compare"])
def test_byte_order_mark_is_ignored(tmp_path, command):
    # spreadsheet exports often start with a UTF-8 byte-order mark
    micro = "income,weight\n" + "".join(
        f"{1.0 + (i % 97) * 0.37 + (i % 13) * 2.1},1\n" for i in range(2000))
    outs = []
    for bom in ("", "\ufeff"):
        paths = {}
        for name, text in (("tab", TAB_CSV), ("den", DENOM_CSV), ("micro", micro)):
            paths[name] = tmp_path / f"{name}{len(bom)}.csv"
            paths[name].write_text(bom + text, encoding="utf-8")
        if command == "compare":
            argv = ["compare", "--micro", str(paths["micro"]), "--classes", "8",
                    "--fractiles", "0.10,0.01"]
        else:
            argv = [command, "--input", str(paths["tab"]),
                    "--denominators", str(paths["den"])]
        out = tmp_path / f"out{len(bom)}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class TestHistoricalFixture:
    def test_estimate_matches_library_on_1920_table(self, table_1920, tmp_path):
        tab_csv, den_csv = tabulation_csv([table_1920])
        tab = tmp_path / "t1920.csv"
        tab.write_text(tab_csv)
        den = tmp_path / "d1920.csv"
        den.write_text(den_csv)
        out = tmp_path / "shares.csv"
        code = main(["estimate", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "0.10,0.01", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        by_key = {(r["method"], r["fractile"]): r for r in rows}
        for p in (0.10, 0.01):
            pi, me = (estimate(table_1920, p, method) for method in ("PI", "ME"))
            assert float(by_key[("PI", repr(p))]["share_pct_full"]) == \
                pytest.approx(100 * pi.share, rel=1e-12)
            assert float(by_key[("ME", repr(p))]["share_pct_full"]) == \
                pytest.approx(100 * me.share, rel=1e-12)
        # the top-decile reference bracket is the $2,000 class
        assert by_key[("PI", "0.1")]["threshold"].startswith("2099.")


class TestDiagnostics:
    def test_classes_and_distances(self, inputs, tmp_path):
        tab, den = inputs
        out = tmp_path / "diag.csv"
        code = main(["diagnostics", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "0.10,0.01", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert all(r["classes"] == "4" for r in rows)
        r1950 = [r for r in rows if r["year"] == "1950"]
        # 1950: fractions are 0.01/0.04/0.1/0.2; p=0.10 hits 0.1 exactly
        assert float(r1950[0]["selected_fraction"]) == pytest.approx(0.10)
        assert float(r1950[0]["distance_pp"]) == pytest.approx(0.0, abs=1e-12)
        assert r1950[0]["bracket"] == "2"
        assert float(r1950[1]["distance_pp"]) == pytest.approx(0.0, abs=1e-12)

    def test_single_year_input(self, tmp_path):
        tab = tmp_path / "tab.csv"
        tab.write_text("\n".join(line for line in TAB_CSV.splitlines()
                                 if not line.startswith("1951")) + "\n")
        den = tmp_path / "den.csv"
        den.write_text(DENOM_CSV)
        out = tmp_path / "diag.csv"
        assert main(["diagnostics", "--input", str(tab), "--denominators",
                     str(den), "--fractiles", "0.10", "--out", str(out)]) == 0
        assert len(read_rows(out)) == 1


class TestSynthAndCompare:
    def test_synth_deterministic_artifacts(self, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            code = main(["synth", "--trials", "1", "--seed", "7", "--size",
                         "5000", "--classes", "8", "--fractiles", "0.1,0.01",
                         "--format", "json", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_synth_summary_layout(self, tmp_path):
        out = tmp_path / "synth.json"
        main(["synth", "--trials", "2", "--seed", "3", "--size", "5000",
              "--classes", "8,14", "--fractiles", "0.1", "--format", "json",
              "--out", str(out)])
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 2 * 2 * 1 * 2  # trials x K x fractiles x methods
        keys = {(s["method"], s["classes"]) for s in doc["summaries"]}
        assert keys == {("PI", 8), ("PI", 14), ("ME", 8), ("ME", 14)}
        for s in doc["summaries"]:
            for field in ("mse_rel_error", "mse_share_level", "mse_share_pp"):
                assert float(s[field]) >= 0.0

    def test_synth_spec_file(self, tmp_path):
        spec = {"distribution": {"kind": "pareto", "exponent": 2.0},
                "size": 4000, "classes": [8], "fractiles": [0.1],
                "trials": 1, "seed": 5}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("trial,classes,fractile,method")

    def test_synth_zero_trials_exits_one(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--trials", "0", "--size", "500",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_unknown_method_exits_one(self, tmp_path, capsys):
        spec = {"distribution": {"kind": "pareto", "exponent": 2.0},
                "size": 4000, "classes": [8], "fractiles": [0.1],
                "trials": 1, "seed": 5, "methods": ["PI", "XX"]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'XX'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ladder,message", [
        ({"top_fraction": 0}, "top_fraction must lie strictly between 0 and 1, got 0.0"),
        ({"scheme": "zigzag"}, "unknown threshold scheme 'zigzag'"),
        ({"classes": [8, 1]}, "need at least 2 classes"),
        ({"classes": []}, "classes must not be empty"),
        ({"fractiles": []}, "fractiles must not be empty"),
        ({"fractiles": [0.1, 1.5]}, "fractiles must lie in (0, 1], got 1.5"),
        ({"fractiles": [0.0]}, "fractiles must lie in (0, 1], got 0.0"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ], ids=["top_fraction", "scheme", "classes", "no_classes", "no_fractiles",
            "fractile_above_one", "fractile_zero", "seed"])
    def test_synth_bad_ladder_exits_one_before_sampling(self, tmp_path, capsys,
                                                        monkeypatch, ladder, message):
        # once rejected only after the first sample was drawn and ranked, or
        # for an empty list, not at all (an empty report and exit 0)
        def generate(*args, **kwargs):
            raise AssertionError("a sample was drawn")
        monkeypatch.setattr(microbench, "generate", generate)
        spec = {"distribution": {"kind": "pareto", "exponent": 2.0},
                "size": 4000, "classes": [8], "fractiles": [0.1],
                "trials": 1, "seed": 5, **ladder}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ({}, "spec is missing required key 'distribution'"),
        ([], "spec must be a JSON object, got list"),
        ({"distribution": {"kind": "pareto"}},
         "pareto distribution is missing required key 'exponent'"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "classes": 5},
         "spec key 'classes': 'int' object is not iterable"),
        ({"distribution": "pareto"}, "distribution must be a JSON object, got str"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "trials": math.inf},
         "spec key 'trials': cannot convert float infinity to integer"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "classes": [8.7, 14]},
         "spec key 'classes': expected an integer, got 8.7"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "size": 1000.9},
         "spec key 'size': expected an integer, got 1000.9"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "trials": True},
         "spec key 'trials': expected an integer, got True"),
        ({"distribution": {"kind": "pareto", "exponent": 2.0}, "seed": math.nan},
         "spec key 'seed': expected an integer, got nan"),
    ], ids=["empty", "list", "no_exponent", "int_classes", "str_distribution",
            "infinite_trials", "fractional_classes", "fractional_size",
            "boolean_trials", "nan_seed"])
    def test_synth_malformed_spec_exits_one(self, tmp_path, capsys, spec, message):
        # each once ended in a traceback (a KeyError, TypeError,
        # AttributeError or OverflowError) or, for a fraction or a boolean
        # where a count belongs, ran on the truncated count without a word
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows,total", [
        ("0,1\n0,1\n0,3\n", "0.0"), ("1e308,1\n1.5e308,1\n", "inf"),
    ], ids=["zero", "overflow"])
    def test_compare_income_total_must_be_positive_and_finite(self, tmp_path, capsys,
                                                             rows, total):
        # a zero total once ended in a ZeroDivisionError, an infinite one
        # printed numpy's overflow warnings before the error line
        micro = tmp_path / "micro.csv"
        micro.write_text("income,weight\n" + rows)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--micro", str(micro), "--classes", "2",
                     "--fractiles", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: total income {total} must be positive and finite\n"
        assert not out.exists()

    def test_compare_huge_weight_exits_one(self, tmp_path, capsys):
        micro = tmp_path / "micro.csv"
        micro.write_text("income,weight\n1,1e30\n2,1\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--micro", str(micro), "--classes", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "2**53" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_weight_total_overflow_exits_one(self, tmp_path, capsys):
        # each weight passes, but the population would wrap an int64
        micro = tmp_path / "micro.csv"
        micro.write_text("income,weight\n" + f"1,{2**53}\n" * 1100)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--micro", str(micro), "--classes", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weights sum to 9907919180215091200")
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_micro_csv(self, tmp_path):
        rng_rows = ["income,weight"]
        value = 1.0
        for i in range(2000):
            value = 1.0 + (i % 97) * 0.37 + (i % 13) * 2.1
            rng_rows.append(f"{value},1")
        micro = tmp_path / "micro.csv"
        micro.write_text("\n".join(rng_rows) + "\n")
        out = tmp_path / "cmp.json"
        code = main(["compare", "--micro", str(micro), "--classes", "8",
                     "--fractiles", "0.10,0.01", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert {c["method"] for c in doc["cells"]} == {"PI", "ME"}
        assert {c["fractile"] for c in doc["cells"]} == {"0.1", "0.01"}
        for cell in doc["cells"]:
            if cell["status"] == "ok":
                assert abs(float(cell["rel_error"])) < 0.5


def test_cli_import_loads_no_scipy():
    code = ("import sys, topshares, topshares.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code).strip() == "[]"


def test_cli_shares_a_harness_imported_before_it():
    # cli registers its lazy microbench only when none is loaded; a second
    # module object would hold classes and functions of its own
    code = "import topshares.microbench as m, topshares.cli as c; print(c.microbench is m)"
    assert fresh_python(code).strip() == "True"


@pytest.mark.parametrize("harness", ["synth", "compare"])
def test_each_command_loads_only_the_modules_it_runs(inputs, tmp_path, harness):
    # estimate and diagnostics never run the micro-sample harness's body,
    # which synth and compare run when they first read from it; the harness
    # is registered in sys.modules from the import of cli on
    tab, den = inputs
    micro = tmp_path / "micro.csv"
    micro.write_text("income,weight\n" + "".join(f"{i},1\n" for i in range(1, 201)))
    io_flags = ["--input", str(tab), "--denominators", str(den)]
    runs = [["estimate", *io_flags], ["diagnostics", *io_flags],
            {"synth": ["synth", "--size", "2000", "--trials", "1", "--classes", "8"],
             "compare": ["compare", "--micro", str(micro), "--classes", "8"]}[harness]]
    out = ["--out", str(tmp_path / "out.csv")]
    code = f"""
import json, sys, types
import topshares.cli
def loaded():
    # a lazily loaded module becomes a plain module when its body runs
    return sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "topshares"
                  and type(module) is types.ModuleType)
seen = ["topshares.microbench" in sys.modules, loaded()]
for argv in {[argv + out for argv in runs]!r}:
    seen.append([topshares.cli.main(argv), loaded()])
print(json.dumps(seen))
"""
    estimate = ["topshares", "topshares.cli", "topshares.errors", "topshares.maxent",
                "topshares.pareto", "topshares.tabulation"]
    assert json.loads(fresh_python(code)) == [
        True, estimate, [0, estimate], [0, estimate],
        [0, sorted([*estimate, "topshares.microbench"])]]
