"""Public names: every exported name resolves, and every function the
benchmark's per-layer trace names still exists."""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import topshares

MODULES = sorted(m.name for m in pkgutil.iter_modules(topshares.__path__))


@pytest.mark.parametrize("name", ["topshares"] + [f"topshares.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


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
