"""The names the benchmark tracer rebinds, and the package exports, exist.

bench/tracer.py wraps callees by rebinding module attributes, so a rename in
the library breaks the benchmark; these checks catch that in the test suite.
The tracer is installed only in a fresh interpreter, as the benchmark's
traced mode installs it, so this process's modules stay unwrapped.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import xctin
import xctin.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv list of sys.argv[2] through cli.main, untraced and then
# with the tracer of the directory sys.argv[1] installed as bench/child.py
# installs it; prints whether the two runs gave the same exit codes and
# stdout texts, and the traced calls of main, build_parser and parse.
_TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import xctin.cli
from tracer import Tracer

def outputs(argvs):
    results = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = xctin.cli.main(argv)
        results.append([code, out.getvalue()])
    return results

argvs = json.loads(sys.argv[2])
plain = outputs(argvs)
tracer = Tracer()
tracer.install({"cli": xctin.cli, "experiments": xctin.experiments, "regime": xctin.regime})
traced = outputs(argvs)
layers = tracer.summary()
print(json.dumps([traced == plain, [code for code, _ in traced],
                  [layers[f"cli.{name}.calls"] for name in ("main", "build_parser", "parse")]]))
"""


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running code with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    assert _python(code).splitlines() == [np.__version__, xctin.experiments.GENERATOR_ID,
                                          xctin.__version__, "True"]


def test_traced_ops_parse_once_each_and_keep_their_bytes(tmp_path):
    # The tracer wraps parse_args on each parser build_parser returns, so a
    # parser kept across calls would be wrapped again on every op and read
    # 1 + 2 + 3 + 4 = 10 parse spans here.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"rho_db": 40, "alpha": [[1, 0.2, 0.75], [0.4, 1, 0.75]]}))
    argvs = [["eval", "--alpha", "1,0.2,0.75,0.4,1,0.75", "--rho-db", "40"],
             ["classify", "--scenario", str(scenario)],
             ["bound", "--scenario", str(scenario), "--format", "csv"],
             ["gap-audit", "--n", "3", "--rho-db", "20"]]
    same, codes, calls = json.loads(_python(_TRACED, str(TRACER_PATH.parent), json.dumps(argvs)))
    assert codes == [0] * 4
    assert same
    assert calls == [4, 4, 4]


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
