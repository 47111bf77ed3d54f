"""Spans around the public functions of every topshares module, recorded
from outside the package.

``Tracer.install`` replaces each public function (a module's ``__all__``;
for ``cli``, its console-script entry ``main``) with a wrapper in every
``topshares`` namespace that binds it, because modules from-import each
other's functions (``cli``, ``pareto``, ``maxent`` and ``microbench`` all
bind ``cumulate``, for example). It also wraps numpy's module-level
sort-family functions and counts the calls made while a ``microbench`` span
is open.

Spans (name, start, end, parent) live in typed arrays in memory and are
written out once, after the timed work, by ``write_spans``. Per-op summaries
(calls, total and self time per function, threshold-recovery detail, sort
counts) are derived from those arrays.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "tabulation", "pareto", "maxent", "microbench")
SORT_FUNCTIONS = ("sort", "argsort", "lexsort", "partition", "argpartition")
RECOVER = "maxent.recover_thresholds"


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or ["main"]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.recover_info: dict[int, tuple[int, int]] = {}  # span -> (K, iterations)
        self.sort_span = array("l")   # innermost open span at each counted sort
        self.sort_bytes = array("q")
        self.ops: list[tuple[int, int, int]] = []  # (op id, first span, end span)
        self._stack = [-1]
        self._microbench_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function; raises if a layer has none."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "topshares"
                                            or name.startswith("topshares."))]
        for short in MODULES:
            module = importlib.import_module(f"topshares.{short}")
            functions = public_functions(module)
            if not functions:
                raise RuntimeError(f"topshares.{short} exposes no public function")
            for attr in functions:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{short}.{attr}", original,
                                     short == "microbench")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, key, value))
                            setattr(ns, key, wrapper)
        for attr in SORT_FUNCTIONS:
            original = getattr(np, attr)
            self._patches.append((np, attr, original))
            setattr(np, attr, self._wrap_sort(original))

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patches):
            setattr(ns, key, value)
        self._patches.clear()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, is_microbench: bool):
        nid = self._intern(name)
        recover = name == RECOVER
        clock = time.perf_counter_ns
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        add_name, add_parent = names.append, parents.append
        add_start, add_end = starts.append, ends.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            add_name(nid)
            add_parent(stack[-1])
            add_start(0)
            add_end(0)
            push(idx)
            if is_microbench:
                self._microbench_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                if is_microbench:
                    self._microbench_depth -= 1
            starts[idx] = t0
            ends[idx] = t1
            if recover:
                self.recover_info[idx] = (args[0].num_brackets, result.iterations)
            return result

        return traced

    def _wrap_sort(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._microbench_depth:
                source = np.asarray(args[0] if args else next(iter(kwargs.values())))
                # computed, not measured: bytes read plus bytes written
                self.sort_span.append(self._stack[-1])
                self.sort_bytes.append(source.nbytes + np.asarray(out).nbytes)
            return out

        return counted

    # -- ops and summaries -------------------------------------------------

    def begin_op(self) -> int:
        return len(self.name)

    def end_op(self, op_id: int, first: int) -> None:
        self.ops.append((op_id, first, len(self.name)))

    def summarize(self, first: int, stop: int) -> dict:
        """Per-function calls, total and self seconds for spans
        [first, stop), plus recovery and sort detail."""
        names, parent, start, end = self.names, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(first, stop)]
        self_ns = list(dur)
        for i in range(first, stop):
            p = parent[i]
            if p >= first:
                self_ns[p - first] -= dur[i - first]
        functions: dict[str, list] = {}
        for i in range(first, stop):
            row = functions.setdefault(names[self.name[i]], [0, 0, 0])
            row[0] += 1
            row[1] += dur[i - first]
            row[2] += self_ns[i - first]

        # attribute solve_rate and build_density calls to the enclosing
        # recover_thresholds span
        recover_id = self._ids.get(RECOVER, -2)
        solve_id = self._ids.get("maxent.solve_rate", -2)
        build_id = self._ids.get("maxent.build_density", -2)
        enclosing = {}
        counts = {}
        for i in range(first, stop):
            nid = self.name[i]
            if nid == recover_id:
                enclosing[i] = i
                counts[i] = [0, 0]
                continue
            anc = enclosing.get(parent[i], -1)
            enclosing[i] = anc
            if anc >= 0 and nid in (solve_id, build_id):
                counts[anc][0 if nid == solve_id else 1] += 1
        recoveries = []
        for idx, (solves, builds) in counts.items():
            k, iterations = self.recover_info[idx]
            recoveries.append({"K": k, "iterations": iterations,
                               "seconds": dur[idx - first] / 1e9,
                               "solve_rate_calls": solves,
                               "build_density_calls": builds})

        sorts = [j for j, s in enumerate(self.sort_span) if first <= s < stop]
        return {
            "functions": {n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                          for n, (c, t, s) in functions.items()},
            "recoveries": recoveries,
            "sorts": len(sorts),
            "sort_bytes": sum(self.sort_bytes[j] for j in sorts),
        }

    def summaries(self) -> list[dict]:
        return [dict(self.summarize(first, stop), op=op)
                for op, first, stop in self.ops]

    def write_spans(self, path) -> None:
        """Columnar JSON: name table, then per-span name index, parent span
        index (-1 at an op's root), start and end in ns, and op boundaries."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            fh.write(', "ops": ' + json.dumps(self.ops))
            for key in ("name", "parent", "start", "end"):
                fh.write(f', "{key}": [')
                fh.write(",".join(map(str, getattr(self, key))))
                fh.write("]")
            fh.write("}\n")
