"""The names the benchmark tracer rebinds, and the package exports, exist.

bench/tracer.py wraps callees by rebinding module attributes, so a rename in
the library breaks the benchmark; these checks catch that in the test suite.
The tracer module is only imported, never installed.
"""

import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import xctin
import xctin.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_names_the_bench_child_reads_resolve_after_importing_only_the_cli():
    # bench/child.py times a cold `import xctin.cli`, then reads the
    # versions through xctin.experiments and installs the tracer on the
    # modules BOUNDARIES names; the package serves experiments lazily, so
    # these must resolve in a fresh interpreter that has imported nothing
    # else.
    tracer = _load_tracer()
    modules = sorted({mod for mod, _, _ in tracer.BOUNDARIES}
                     | {span.partition(".")[0] for _, _, span in tracer.BOUNDARIES})
    code = "\n".join([
        "import types",
        "import xctin.cli",
        "print(xctin.experiments.np.__version__)",
        "print(xctin.experiments.GENERATOR_ID)",
        "print(xctin.__version__)",
        f"print(all(isinstance(getattr(xctin, m), types.ModuleType) for m in {modules!r}))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [np.__version__, xctin.experiments.GENERATOR_ID,
                                        xctin.__version__, "True"]


def test_table_handlers_call_experiments_through_the_module(monkeypatch):
    # The tracer counts calls by rebinding xctin.experiments attributes, so
    # the CLI must look its audits up there on every call, not only on the
    # first (which runs before the patch here).
    argv = ["gap-audit", "--n", "3", "--rho-db", "20"]
    calls = []
    gap_audit_with_rows = xctin.experiments.gap_audit_with_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return gap_audit_with_rows(*args, **kwargs)

    with contextlib.redirect_stdout(io.StringIO()):
        assert xctin.cli.main(argv) == 0
        monkeypatch.setattr(xctin.experiments, "gap_audit_with_rows", counted)
        assert xctin.cli.main(argv) == 0
    assert len(calls) == 1
