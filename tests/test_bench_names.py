"""The benchmark's tracer (``bench/tracer.py``) wraps library functions and
methods that it names as strings; a rename in the library would only show
up when the benchmark runs with ``--trace 1``.  These tests load the tracer
by path, without installing it, and check that every name resolves."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ufabound_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extra_functions_resolve():
    for short, names in load_tracer().EXTRA_FUNCTIONS.items():
        module = importlib.import_module(f"ufabound.{short}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"ufabound.{short}.{name}"


def test_methods_resolve():
    for short, cls_name, method in load_tracer().METHODS:
        cls = getattr(importlib.import_module(f"ufabound.{short}"), cls_name, None)
        assert inspect.isclass(cls), f"ufabound.{short}.{cls_name}"
        assert inspect.isfunction(getattr(cls, method, None)), \
            f"ufabound.{short}.{cls_name}.{method}"
