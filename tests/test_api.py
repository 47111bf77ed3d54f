"""Public names: every exported name resolves, lazily and to its defining
module's object, and every function the benchmark's per-layer trace names
still exists."""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import topshares

from conftest import fresh_python, tabulation_csv

MODULES = sorted(m.name for m in pkgutil.iter_modules(topshares.__path__))


@pytest.mark.parametrize("name", ["topshares"] + [f"topshares.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_bare_import_loads_no_submodule():
    # each submodule still resolves as an attribute of the package
    code = ("import sys, topshares; "
            "print(sorted(m for m in sys.modules if m.startswith('topshares.'))); "
            "print(topshares.maxent.solve_rate.__module__)")
    assert fresh_python(code).split() == ["[]", "topshares.maxent"]


def test_exported_names_are_their_defining_modules_objects():
    for name in topshares.__all__:
        value = getattr(topshares, name)
        assert value.__module__.startswith("topshares."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(topshares.__all__) <= set(dir(topshares))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        topshares.no_such_name


def test_tracer_wraps_the_lazily_loaded_harness():
    # bench/tracer.py wraps the functions of the topshares modules in
    # sys.modules when it is installed, right after `import topshares.cli`;
    # microbench, whose body runs only for synth and compare, must be among
    # them, together with the names it imports from other modules
    bench = Path(__file__).parents[1] / "bench"
    code = f"""
import sys
sys.path.insert(0, {str(bench)!r})
import topshares.cli as cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
wrapped = [hasattr(cli.microbench.run_protocol, "__wrapped__"),
           hasattr(cli.microbench.cumulate, "__wrapped__")]
tracer.uninstall()
print(wrapped, hasattr(cli.microbench.run_protocol, "__wrapped__"))
"""
    assert fresh_python(code).split() == ["[True,", "True]", "False"]


def _series_argv(tmp_path) -> list[str]:
    brackets = (topshares.IncomeBracket(100.0, 10, 1500.0),
                topshares.IncomeBracket(50.0, 30, 2100.0))
    tab, den = tmp_path / "tab.csv", tmp_path / "den.csv"
    for path, text in zip((tab, den), tabulation_csv(
            [topshares.Tabulation(year, brackets, 400, 20000.0) for year in (1950, 1951)])):
        path.write_text(text)
    return ["estimate", "--input", str(tab), "--denominators", str(den)]


def _synth_argv(tmp_path) -> list[str]:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"distribution": {"kind": "pareto", "exponent": 2.0},
                                "size": 2000, "classes": [8], "trials": 1}))
    return ["synth", "--spec", str(spec)]


def _compare_argv(tmp_path) -> list[str]:
    micro = tmp_path / "micro.csv"
    micro.write_text("income,weight\n" + "".join(
        f"{1000.0 * (2000 / (i + 1)) ** 0.5},{1 + i % 5}\n" for i in range(2000)))
    return ["compare", "--micro", str(micro), "--classes", "8"]


# the command of each bench/workloads.py workload that runs one, on small
# inputs it writes to the directory it is given
WORKLOAD_ARGV = {"series_cli": _series_argv, "synth_1e6": _synth_argv,
                 "compare_weighted": _compare_argv}


@pytest.mark.parametrize("workload", WORKLOAD_ARGV)
def test_traced_run_reaches_every_expected_layer(tmp_path, workload):
    # bench/run.py reports a traced run as incorrect, even at exit status 0,
    # when a layer of its workload's EXPECTED_LAYERS records no call: each
    # command must reach a public function of each layer through a binding
    # bench/tracer.py wraps, as bench/child.py runs it
    bench = Path(__file__).parents[1] / "bench"
    argv = WORKLOAD_ARGV[workload](tmp_path) + ["--out", str(tmp_path / "out.csv")]
    code = f"""
import sys
sys.path.insert(0, {str(bench)!r})
import topshares.cli as cli
from tracer import Tracer
from workloads import EXPECTED_LAYERS
tracer = Tracer()
tracer.install()
first = tracer.begin_op()
status = cli.main({argv!r})
tracer.end_op(0, first)
tracer.uninstall()
seen = {{name.split(".")[0] for name in tracer.summaries()[0]["functions"]}}
print(status, sorted(set(EXPECTED_LAYERS[{workload!r}]) - seen))
"""
    assert fresh_python(code).split() == ["0", "[]"]


def test_traced_functions_are_public():
    # a per-layer metric <module>.<function>.<stat> reads spans of that
    # function; renaming or privatising it would silently drop the metric
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    traced = {tuple(metric["name"].split(".")[:2]) for metric in spec["per_layer"]
              if metric["name"].count(".") >= 2
              and metric["name"].split(".")[0] in MODULES}
    assert traced
    for module_name, function in sorted(traced):
        module = importlib.import_module(f"topshares.{module_name}")
        assert not function.startswith("_"), (module_name, function)
        assert inspect.isfunction(getattr(module, function, None)), \
            (module_name, function)
