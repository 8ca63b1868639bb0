"""The names the benchmark tracer rebinds, and the package exports, exist.

bench/tracer.py wraps callees by rebinding module attributes, so a rename in
the library breaks the benchmark; these checks catch that in the test suite.
The tracer module is only imported, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import xctin

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("xctin_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_exist():
    tracer = _load_tracer()
    assert tracer.BOUNDARIES
    for mod_name, attr, span in tracer.BOUNDARIES:
        module = importlib.import_module(f"xctin.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr)
        layer, _, name = span.partition(".")
        assert callable(getattr(importlib.import_module(f"xctin.{layer}"), name, None)), span
    assert callable(importlib.import_module("xctin.cli").build_parser)


def test_package_exports_resolve():
    missing = [name for name in xctin.__all__ if not hasattr(xctin, name)]
    assert missing == []
    assert len(set(xctin.__all__)) == len(xctin.__all__)
