"""topshares benchmark: seeded workloads against the public entry points.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src). Closed loop, one client: each op starts after the previous one ends.

--trace 0 measures the end-to-end metrics with nothing patched. --trace 1
alternates untraced and traced ops, and reports the per-layer metrics from
the traced ones plus the tracing overhead. Every op's output is checked; a
failed check counts in error_frac. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. --out also writes a
full record (every sample, the environment) for bench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from workloads import FRESH, RECOVER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONSOLE = "import sys; from topshares.cli import main; sys.exit(main())"
SETUP_RUNS = 5        # fresh imports per run; setup_s is their median
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 45.0
TAIL_PCT = 90         # op_tail_s percentile; see tail()
MIN_OPS = 11          # so at least one sample lies beyond TAIL_PCT
MIN_TRACED_OPS = 3
HARD_LIMIT_S = 100.0  # stop even if fewer than MIN_OPS completed
SLOW_CAP = 1.6        # at most this many times --seconds of wall time
CPU_REF_S = 0.021     # nominal durations of the reference tasks
PROCESS_REF_S = 0.065
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class ReferenceClock:
    """Tracks how fast the machine runs right now with a fixed reference
    task that never touches topshares.

    On a shared host the speed seen by a process changes by up to a factor
    of two within seconds, and the phases are long enough to move a run's
    median. Each op is bracketed by two reference measurements; their mean
    over the reference's nominal time is the op's slowdown, and the op's
    wall time divided by it is "seconds at reference speed", the unit of
    the end-to-end times. Unscaled wall times are reported beside them.
    """

    def __init__(self, measure, nominal: float):
        self._measure, self._nominal = measure, nominal
        self._last = measure()

    def around(self) -> float:
        """Slowdown over the work done since the last call (1 = nominal)."""
        now = self._measure()
        slowdown = 0.5 * (self._last + now) / self._nominal
        self._last = now
        return slowdown


REFERENCE_LOOP = """
import math
acc = 0.0
for i in range(60_000):
    acc += math.expm1(i * 1e-4) / (1 + i)
"""


def cpu_reference() -> ReferenceClock:
    """For in-process ops: a pure-Python float loop plus a numpy argsort."""
    data = np.random.default_rng(0).random(300_000)
    loop = compile(REFERENCE_LOOP, "<reference>", "exec")

    def measure():
        t0 = time.perf_counter()
        exec(loop, {})
        np.argsort(data)
        return time.perf_counter() - t0

    return ReferenceClock(measure, CPU_REF_S)


def process_reference(env, work: Path) -> ReferenceClock:
    """For fresh-process ops: a fresh interpreter running the pure-Python
    part of the reference. Process start-up slows with the host in step with
    whole CLI runs, which an in-process task alone does not."""
    def measure():
        return run_process([sys.executable, "-c", REFERENCE_LOOP], env, work,
                           work / "ref.out", work / "ref.err")[0]

    return ReferenceClock(measure, PROCESS_REF_S)


@dataclass
class Op:
    seconds: float
    ok: bool
    slowdown: float = 1.0    # machine slowdown around the op (see ReferenceClock)
    reason: str | None = None
    cells: int = 0
    traced: bool = False
    timed: bool = True       # False for warm-up and check ops
    maxrss_kb: int = 0
    rel_err_max: float | None = None
    summary: dict | None = None

    @property
    def scaled(self) -> float:
        return self.seconds / self.slowdown


@dataclass
class Run:
    workload: str
    ops: list[Op] = field(default_factory=list)
    setup: list[Op] = field(default_factory=list)
    imports: list[dict] = field(default_factory=list)
    input_rows: int = 0
    maxrss_kb: int | None = None   # in-process workload: the worker's peak
    trace_errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, env, cwd, stdout_path, stderr_path, timeout=OP_TIMEOUT_S):
    """(wall seconds, exit status, peak RSS in KiB) of one child process."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def measure_setup(env, work: Path) -> list[Op]:
    """Fresh interpreters importing topshares.cli; the first, which may
    compile bytecode, is discarded."""
    clock = process_reference(env, work)
    times = []
    for i in range(SETUP_RUNS + 1):
        seconds, code, _ = run_process([sys.executable, "-c", "import topshares.cli"],
                                       env, work, work / "setup.out", work / "setup.err")
        if code != 0:
            raise RuntimeError(f"import topshares.cli failed: "
                               f"{_last_line(work / 'setup.err')}")
        slowdown = clock.around()
        if i:
            times.append(Op(seconds=seconds, ok=True, slowdown=slowdown))
    return times


def parse_importtime(text: str) -> dict:
    """import.* seconds from `python -X importtime` output.

    total is the cumulative time of the topshares entries at the top level;
    scipy counts every outermost scipy import, including the numpy
    submodules only scipy pulls in; numpy counts outermost numpy imports
    outside scipy; self sums the self time of topshares modules.

    Lines are printed when an import finishes, so children precede their
    parent; walking them in reverse gives each entry's ancestors.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        field_ = name[1:]
        depth = (len(field_) - len(field_.lstrip(" "))) // 2
        entries.append((depth, field_.strip(), int(self_us), int(cum_us)))

    def top_of(pkg):
        return lambda n: n == pkg or n.startswith(pkg + ".")

    is_numpy, is_scipy, is_self = top_of("numpy"), top_of("scipy"), top_of("topshares")
    out = {"total": 0, "numpy": 0, "scipy": 0, "self": 0}
    ancestors: list[str] = []
    for depth, name, self_us, cum_us in reversed(entries):
        ancestors = ancestors[:depth]
        if depth == 0 and is_self(name):
            out["total"] += cum_us
        if is_scipy(name) and not any(map(is_scipy, ancestors)):
            out["scipy"] += cum_us
        elif is_numpy(name) and not any(is_numpy(a) or is_scipy(a) for a in ancestors):
            out["numpy"] += cum_us
        if is_self(name):
            out["self"] += self_us
        ancestors.append(name)
    return {k: v / 1e6 for k, v in out.items()}


def measure_imports(env, work: Path) -> list[dict]:
    out = []
    for _ in range(IMPORTTIME_RUNS):
        _, code, _ = run_process(
            [sys.executable, "-X", "importtime", "-c", "import topshares.cli"],
            env, work, work / "imp.out", work / "imp.err")
        if code != 0:
            raise RuntimeError("import topshares.cli failed")
        out.append(parse_importtime((work / "imp.err").read_text(encoding="utf-8")))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def done(wall: float, scaled: float, seconds: float, plain: int, traced: int,
         trace: bool) -> bool:
    """Whether the timed loop may stop, after `wall` seconds in which the
    timed ops took `scaled` seconds at reference speed; `plain` and
    `traced` count the untraced and traced ops. Measuring until both clocks
    pass `seconds` keeps the op count, and so the samples behind the tail
    percentile, the same on a slow host; SLOW_CAP bounds the wall time that costs. Also used by
    the in-process worker."""
    enough = (min(plain, traced) >= MIN_TRACED_OPS if trace
              else plain >= MIN_OPS)
    if wall >= HARD_LIMIT_S or (enough and wall >= SLOW_CAP * seconds):
        return True
    return enough and wall >= seconds and scaled >= seconds


def run_fresh(name: str, seed: int, seconds: float, trace: bool, work: Path,
              env: dict, run: Run) -> None:
    wl = FRESH[name](seed, work)
    wl.prepare()
    run.input_rows = wl.input_rows()
    clock = process_reference(env, work)

    def one(args, out_path, check, traced, timed):
        out_path.unlink(missing_ok=True)
        summary_path = work / "summary.json"
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "cli",
                    "--summary", str(summary_path),
                    "--spans", str(work / f"spans-{len(run.ops)}.json"), "--", *args]
        else:
            argv = [sys.executable, "-c", CONSOLE, *args]
        secs, code, rss = run_process(argv, env, work, work / "op.out", work / "op.err")
        slowdown = clock.around()
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        try:
            reason = check(code, text) if text or code else "no output"
        except (ValueError, IndexError, KeyError) as err:
            reason = f"unreadable output: {type(err).__name__}: {err}"
        if reason and code != 0:
            reason += f" ({_last_line(work / 'op.err')})"
        op = Op(seconds=secs, slowdown=slowdown, ok=reason is None, reason=reason,
                traced=traced, timed=timed, maxrss_kb=rss,
                cells=wl.cells_per_op if reason is None else 0)
        if reason is None and timed:
            op.rel_err_max = wl.rel_err_max(text)
        if traced and summary_path.exists():
            op.summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary_path.unlink()
        return op

    # untimed first ops also warm the page cache and compile bytecode
    for args, out_path, check in (wl.check_ops()
                                  or [(wl.op_args(), wl.out, wl.check)]):
        run.ops.append(one(args, out_path, check, False, False))
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        run.ops.append(one(wl.op_args(), wl.out, wl.check, traced, True))
        i += 1
        timed = [o for o in run.ops if o.timed]
        if done(time.perf_counter() - start, sum(o.scaled for o in timed), seconds,
                sum(1 for o in timed if not o.traced),
                sum(1 for o in timed if o.traced), trace):
            break


def run_recover(seed: int, seconds: float, trace: bool, work: Path, env: dict,
                run: Run) -> None:
    out = work / "recover.json"
    argv = [sys.executable, str(BENCH / "child.py"), "recover", "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out)]
    if trace:
        argv += ["--trace", "--spans", str(work / "spans.json")]
    _, code, rss = run_process(argv, env, work, work / "op.out", work / "op.err",
                               timeout=HARD_LIMIT_S + OP_TIMEOUT_S)
    if code != 0 or not out.exists():
        raise RuntimeError(f"recover worker failed: {_last_line(work / 'op.err')}")
    result = json.loads(out.read_text(encoding="utf-8"))
    summaries = {s["op"]: s for s in result["summaries"]}
    for o in result["ops"]:
        run.ops.append(Op(seconds=o["seconds"], slowdown=o["slowdown"], ok=o["ok"],
                          reason=o["reason"],
                          cells=o["cells"] if o["ok"] else 0, traced=o["traced"],
                          timed=not o["warmup"], summary=summaries.get(o["op"])))
    run.maxrss_kb = rss


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 source: Path = ROOT) -> Run:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(source)
    run = Run(workload=name)
    try:
        if trace:
            run.imports = measure_imports(env, work)
        else:
            run.setup = measure_setup(env, work)
        if name == RECOVER:
            run_recover(seed, seconds, trace, work, env, run)
        else:
            run_fresh(name, seed, seconds, trace, work, env, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if trace:
        seen = set()
        for op in run.ops:
            if op.summary:
                seen.update(n.split(".")[0] for n in op.summary["functions"])
        for layer in workloads.EXPECTED_LAYERS[name]:
            if layer not in seen:
                run.trace_errors.append(f"layer {layer!r} recorded no calls")
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int]:
    """(value, samples beyond) at the TAIL_PCT percentile, interpolated.

    The percentile is fixed rather than the highest one with 10 samples
    beyond it: a run holds 11-35 ops of 0.5-2 s, and the 100 or more ops
    that rule needs to reach p90 do not fit in a run's time, so with this
    few samples it would read p0-p67, at or below the median."""
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PCT - 1]
    return value, sum(1 for v in values if v > value)


def end_to_end(run: Run) -> dict:
    """name -> (value, unit, note). Times are seconds at reference speed
    (see ReferenceClock); notes give the unscaled wall-time medians."""
    timed = [o for o in run.ops if o.timed and not o.traced]
    secs = [o.scaled for o in timed]
    value, beyond = tail(secs)
    attempted = len(run.ops)
    failed = sum(1 for o in run.ops if not o.ok)
    rss = (run.maxrss_kb if run.maxrss_kb is not None
           else statistics.median(o.maxrss_kb for o in timed))
    errs = [o.rel_err_max for o in timed if o.rel_err_max is not None]
    cells = sum(o.cells for o in timed)

    def wall(ops):
        return f"wall median {statistics.median(o.seconds for o in ops):.4f} s"

    out = {
        "setup_s": (statistics.median(o.scaled for o in run.setup), "s",
                    f"median of {len(run.setup)} fresh imports of topshares.cli; "
                    + wall(run.setup)),
        "op_p50_s": (statistics.median(secs), "s", f"n={len(secs)}; " + wall(timed)),
        "op_tail_s": (value, "s", f"p{TAIL_PCT}, {beyond} samples beyond, n={len(secs)}"),
        "cells_per_s": (cells / sum(secs), "1/s", f"{cells} cells over {sum(secs):.3f} s"),
        "peak_rss_mb": (rss / 1024.0, "MiB",
                        "in-process worker" if run.maxrss_kb is not None
                        else f"median over n={len(timed)} op processes"),
        "error_frac": (failed / attempted, "ratio", f"{failed}/{attempted} ops failed"),
    }
    if errs:
        out["share_rel_err_max"] = (max(errs), "ratio",
                                    f"max |estimate/oracle-1| over {len(errs)} ops")
    return out


PER_LAYER_FUNCTIONS = {
    "tabulation": ("parse_denominators", "parse_tabulations", "validate", "cumulate"),
    "pareto": ("pi_share_from_stats", "select_bracket"),
    "maxent": ("build_density", "solve_rate", "me_share_from_density"),
    "microbench": ("generate", "oracle_share", "quantile_thresholds", "tabulate",
                   "evaluate_sample", "run_protocol", "load_micro_csv"),
}


def per_layer(run: Run) -> dict:
    """name -> (value, unit). Counts come from the first traced op, so a
    seed gives the same counts on every run; times are medians over the
    traced ops."""
    traced = [o for o in run.ops if o.traced and o.summary is not None]
    plain = [o.scaled for o in run.ops if o.timed and not o.traced]
    first = (traced[0].summary if traced else
             {"functions": {}, "recoveries": [], "sorts": 0, "sort_bytes": 0})

    def fn(summary, name):
        return summary["functions"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    if run.imports:
        for key, metric in (("total", "total_s"), ("numpy", "numpy_s"),
                            ("scipy", "scipy_s"), ("self", "topshares_self_s")):
            out[f"import.{metric}"] = (med([i[key] for i in run.imports]), "s")
    out["cli.main.total_s"] = (med([fn(o.summary, "cli.main")["total_s"] for o in traced]), "s/op")
    out["cli.main.self_s"] = (med([fn(o.summary, "cli.main")["self_s"] for o in traced]), "s/op")
    for layer, names in PER_LAYER_FUNCTIONS.items():
        for short in names:
            full = f"{layer}.{short}"
            out[f"{full}.calls"] = (fn(first, full)["calls"], "calls/op")
            out[f"{full}.total_s"] = (med([fn(o.summary, full)["total_s"] for o in traced]), "s/op")

    def rate(name):
        return med([run.input_rows / fn(o.summary, name)["total_s"] for o in traced
                    if fn(o.summary, name)["total_s"] > 0])

    out["tabulation.parse_tabulations.rows_per_s"] = (rate("tabulation.parse_tabulations"), "rows/s")
    out["microbench.load_micro_csv.rows_per_s"] = (rate("microbench.load_micro_csv"), "rows/s")
    out["microbench.evaluate_sample.self_s"] = (
        med([fn(o.summary, "microbench.evaluate_sample")["self_s"] for o in traced]), "s/op")

    rec = first["recoveries"]
    out["maxent.recover_thresholds.calls"] = (len(rec), "calls/op")
    out["maxent.recover_thresholds.total_s"] = (
        med([fn(o.summary, "maxent.recover_thresholds")["total_s"] for o in traced]), "s/op")
    out["maxent.recover_thresholds.iterations"] = (sum(r["iterations"] for r in rec), "iter/op")
    for k in (8, 20, 40, 60):
        per_iter = [r["seconds"] / r["iterations"] for o in traced
                    for r in o.summary["recoveries"] if r["K"] == k]
        out[f"maxent.recover_thresholds.s_per_iter.K{k}"] = (med(per_iter), "s/iter")
        calls = [r["solve_rate_calls"] for r in rec if r["K"] == k]
        out[f"maxent.solve_rate.calls_per_recover.K{k}"] = (calls[0] if calls else 0, "calls")
    iters = sum(r["iterations"] for r in rec)
    builds = sum(r["build_density_calls"] for r in rec)
    out["maxent.build_density.calls_per_iter"] = (builds / iters if iters else 0.0, "calls/iter")

    samples = fn(first, "microbench.evaluate_sample")["calls"]
    out["microbench.sorts_per_sample"] = (first["sorts"] / samples if samples else 0.0, "sorts")
    out["microbench.sort_bytes_per_sample"] = (
        first["sort_bytes"] / samples if samples else 0.0, "B_computed")
    out["trace.overhead_frac"] = (
        med([o.scaled for o in traced]) / med(plain) - 1.0 if plain else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment(root: Path) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def contract_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def report(run: Run, metrics: dict, trace: bool) -> None:
    attempted = len(run.ops)
    failed = [o for o in run.ops if not o.ok]
    print(f"== {run.workload}  ({'traced' if trace else 'untraced'}; "
          f"{attempted} ops attempted, {len(failed)} failed)")
    for o in failed[:5]:
        print(f"   failed op: {o.reason}")
    for err in run.trace_errors:
        print(f"   TRACE ERROR: {err}")
    for name, (value, unit, *note) in metrics.items():
        print(f"   {name:<44} {value:>14.6g} {unit:<10} {note[0] if note else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record here as JSON")
    parser.add_argument("--source", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)

    source = args.source.resolve()
    if not (source / "src" / "topshares" / "__init__.py").is_file():
        print(f"error: no topshares sources under {source / 'src'}", file=sys.stderr)
        return 2
    e2e_names, layer_names = contract_names()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    records, metrics_out = [], {}
    attempted = failed = 0
    correct = True
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, trace, source)
        except RuntimeError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        metrics = per_layer(run) if trace else end_to_end(run)
        report(run, metrics, trace)
        for msg in run.trace_errors:
            print(f"TRACE ERROR {name}: {msg}", file=sys.stderr)
        attempted += len(run.ops)
        failed += sum(1 for o in run.ops if not o.ok)
        correct = correct and not run.trace_errors
        wanted = layer_names if trace else e2e_names
        prefix = "" if len(names) == 1 else f"{name}."
        for m in wanted:
            value, unit, *_ = metrics[m]
            metrics_out[prefix + m] = {"value": value, "unit": unit}
        records.append({"workload": name, "metrics": {
            m: {"value": v, "unit": u, "note": n[0] if n else None}
            for m, (v, u, *n) in metrics.items()},
            "op_seconds": [o.seconds for o in run.ops if o.timed and not o.traced],
            "op_slowdown": [o.slowdown for o in run.ops if o.timed and not o.traced],
            "failures": [o.reason for o in run.ops if not o.ok]})
    correct = correct and failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": trace,
             "environment": environment(source), "workloads": records,
             "correct": correct, "attempted": attempted, "failed": failed},
            indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
