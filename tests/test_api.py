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

from conftest import fresh_python

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
