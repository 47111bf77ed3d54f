"""Processes the benchmark starts to run traced or in-process operations.

  child.py cli --summary S --spans P -- <topshares arguments>
      One traced CLI invocation: install the tracer, call topshares.cli.main,
      write the op summary to S and the spans to P. Exits with main's status.

  child.py recover --seed N --seconds T --out R [--trace] [--spans P]
      The recover_ladder workload in one interpreter: one warm-up op, then
      ops until T seconds have passed and enough ops were timed. With
      --trace, ops alternate untraced and traced, so one run gives both
      sides of the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

from tracer import Tracer


def run_cli(args) -> int:
    import topshares.cli as cli

    tracer = Tracer()
    tracer.install()
    first = tracer.begin_op()
    try:
        code = cli.main(args.argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end_op(0, first)
        tracer.uninstall()
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(tracer.summaries()[0], fh)
    tracer.write_spans(args.spans)
    return code if isinstance(code, int) else 1


def check_recovery(case, solution) -> str | None:
    """None when the recovered thresholds are acceptable, else the reason."""
    if not solution.converged:
        return (f"K={len(case.thresholds)}: not converged after "
                f"{solution.iterations} iterations, grad_norm "
                f"{solution.grad_norm:.3g}, objective {solution.objective:.6g}")
    t = [float(x) for x in solution.thresholds]
    if len(t) != len(case.thresholds):
        return f"K={len(case.thresholds)}: {len(t)} thresholds returned"
    if any(not b < a for a, b in zip(t, t[1:])):
        return f"K={len(t)}: thresholds not strictly decreasing"
    if t[-1] != case.thresholds[-1]:
        return f"K={len(t)}: bottom threshold moved"
    means = case.bracket_means
    for k in range(len(t) - 1):
        if not means[k + 1] < t[k] < means[k] or not math.isfinite(t[k]):
            return f"K={len(t)}: threshold {k} outside its bracket-mean box"
    return None


def run_recover(args) -> int:
    # imported here so a traced CLI op loads no more than the tracer
    import inputs
    import topshares
    from run import cpu_reference, done
    from topshares import IncomeBracket, Tabulation, cumulate

    def prepare(op):
        cases = inputs.recovery_cases(args.seed, op)
        stats = []
        for case in cases:
            brackets = tuple(IncomeBracket(t, n, s) for t, n, s in
                             zip(case.thresholds, case.counts, case.income_sums))
            stats.append(cumulate(Tabulation(
                year=0, brackets=brackets, population=case.population,
                total_income=case.total_income, income_unit=case.income_unit)))
        return cases, stats

    def run_op(op, traced):
        cases, stats = prepare(op)
        first = tracer.begin_op() if traced else 0
        if traced:
            tracer.install()
        solutions, error = [], None
        t0 = time.perf_counter()
        try:
            for case, st in zip(cases, stats):
                # looked up on the package so the traced wrapper is the one called
                solutions.append(topshares.recover_thresholds(st, case.thresholds[-1]))
        except Exception as exc:  # an op failure is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.end_op(op, first)
        slowdown = clock.around()
        reason = error or next((r for r in map(check_recovery, cases, solutions)
                                if r), None)
        if reason:
            reason = f"seed {args.seed} op {op}: {reason}"
        return {"op": op, "seconds": seconds, "slowdown": slowdown, "traced": traced,
                "ok": reason is None, "reason": reason,
                "cells": sum(len(c.thresholds) - 1 for c in cases)}

    tracer = Tracer()
    clock = cpu_reference()
    ops = [dict(run_op(0, False), warmup=True)]
    start = time.perf_counter()
    op = 1
    while True:
        traced = args.trace and op % 2 == 0
        ops.append(dict(run_op(op, traced), warmup=False))
        op += 1
        timed = ops[1:]
        traced_ops = sum(1 for o in timed if o["traced"])
        scaled = sum(o["seconds"] / o["slowdown"] for o in timed)
        if done(time.perf_counter() - start, scaled, args.seconds,
                len(timed) - traced_ops, traced_ops, args.trace):
            break

    result = {"ops": ops,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "summaries": tracer.summaries()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if args.trace:
        tracer.write_spans(args.spans)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="mode", required=True)
    cli = subs.add_parser("cli")
    cli.add_argument("--summary", required=True)
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    rec = subs.add_parser("recover")
    rec.add_argument("--seed", type=int, required=True)
    rec.add_argument("--seconds", type=float, required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--trace", action="store_true")
    rec.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv and args.argv[0] == "--":
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_recover(args)


if __name__ == "__main__":
    sys.exit(main())
