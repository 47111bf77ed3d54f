"""Paired comparison of two checkouts with the same benchmark code.

    python3 bench/compare.py --parent DIR --change DIR [--out result.json]

Each of PAIRS pairs per workload runs bench/run.py (this copy, for both
sides) for BENCHMARK.json's run_seconds once on the parent's src/ and once
on the change's, with the same seed; the side that runs first alternates
from pair to pair. Per (metric, workload) row it reports each side's median
and quartiles, the pairs the change won (ties count for neither) and a
verdict:

  gain         the change won at least 9/10 of the pairs and the medians
               differ by more than the parent's quartile spread
  regression   the change's median is worse than the parent's by more than
               the metric's bound
  unresolved   either side's quartile spread, as a share of its median,
               exceeds the bound, and not every change run beats every
               parent run
  no regression  otherwise

Bounds come from BENCHMARK.json. Two rows are judged otherwise. error_frac,
which is 0 when nothing fails, is a regression whenever the change fails
more ops than the parent. share_rel_err_max, the accuracy guard on
workloads with an oracle, is fixed by the seed, so its spread across pairs
measures how seeds differ, not noise: it is judged pair by pair, and is a
regression when in any pair the change's error exceeds the parent's by
more than ACCURACY_BOUND of it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

ACCURACY_BOUND = 0.01
WIN_SHARE = 0.9
PAIRS = 10
SEED_BASE = 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, judge=None) -> dict:
    """One (metric, workload) row. `judge`, when given, decides the verdict
    from the paired values in place of the spread and win rules."""
    sign = -1.0 if better == "lower" else 1.0   # sign * value: larger is better
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * c > sign * p)

    def spread(q1, q3, med):
        return (q3 - q1) / abs(med) if med else 0.0

    row = {"parent": {"median": pm, "q1": p1, "q3": p3, "values": parent},
           "change": {"median": cm, "q1": c1, "q3": c3, "values": change},
           "wins": wins, "pairs": len(parent), "bound": bound}
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = (sign * (pm - cm) / abs(pm)) if pm else (math.inf if cm != pm else 0.0)
    if judge is not None:
        row["verdict"] = "regression" if judge(parent, change) else "no regression"
    elif (max(spread(p1, p3, pm), spread(c1, c3, cm)) > bound) and not all_better:
        row["verdict"] = "unresolved"
    elif (wins >= math.ceil(WIN_SHARE * len(parent))
          and sign * (cm - pm) > abs(p3 - p1)):
        row["verdict"] = "gain"
    elif worse_by > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def run_side(source: Path, workload: str, seed: int, seconds: float,
             out: Path) -> dict:
    argv = [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            "--source", str(source), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{source} {workload} seed {seed}: {proc.stderr.strip()}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def less_accurate(parent, change) -> bool:
    return any(c > p * (1.0 + ACCURACY_BOUND) for p, c in zip(parent, change))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seeds = [SEED_BASE + i for i in range(PAIRS)]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    tmp = bench.ROOT / ".bench_work" / "compare"
    tmp.mkdir(parents=True, exist_ok=True)

    samples = {}   # (workload, side) -> list of records
    environments = {}
    for w in bench.workloads.NAMES:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run_side(sides[side], w, seed, seconds,
                               tmp / f"compare-{side}.json")
                environments[side] = rec["environment"]
                samples.setdefault((w, side), []).append(rec)
                print(f"pair {i} {w} {side}: attempted {rec['attempted']}, "
                      f"failed {rec['failed']}", file=sys.stderr)

    tmp.rmdir()
    try:
        tmp.parent.rmdir()
    except OSError:
        pass

    rows = []
    for w in bench.workloads.NAMES:
        recs = {s: samples[(w, s)] for s in sides}

        def values(side, metric):
            return [r["workloads"][0]["metrics"][metric]["value"] for r in recs[side]]

        for metric, (better, bound) in metrics.items():
            rows.append({"workload": w, "metric": metric,
                         **verdict(values("parent", metric), values("change", metric),
                                   better, bound)})
        failed = {s: sum(r["failed"] for r in recs[s]) for s in sides}
        rows.append({"workload": w, "metric": "error_frac",
                     **verdict(values("parent", "error_frac"),
                               values("change", "error_frac"), "lower", 0.0,
                               judge=lambda *_: failed["change"] > failed["parent"])})

        def accuracy(side):
            # None where a run had no ok op to measure; error_frac judges that
            return [r["workloads"][0]["metrics"].get("share_rel_err_max", {}).get("value")
                    for r in recs[side]]

        parent, change = accuracy("parent"), accuracy("change")
        kept = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
        if kept:
            rows.append({"workload": w, "metric": "share_rel_err_max",
                         **verdict([p for p, _ in kept], [c for _, c in kept], "lower",
                                   ACCURACY_BOUND, judge=less_accurate)})

    print(f"{'workload':<18} {'metric':<18} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>7}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<18} {r['metric']:<18} "
              f"{p['median']:<11.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(75)
              + f" {c['median']:<11.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(37)
              + f" {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    if args.out:
        args.out.write_text(json.dumps(
            {"sides": {s: str(p) for s, p in sides.items()},
             "environment": environments, "seconds": seconds, "seeds": seeds,
             "rows": rows}, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
