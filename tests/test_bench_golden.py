"""The benchmark's golden ops reproduce the hashes in bench/golden.json.

The ops come from bench/workloads.py, loaded by path and only read; each
runs through xctin.cli.main in process with its files under tmp_path, so
byte drift in any command fails the test suite, not only the benchmark.
The same ops also run under the benchmark's span tracer (bench/tracer.py,
also loaded by path), whose wrappers are undone after the test.
"""

import contextlib
import importlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

from xctin import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    return _load("xctin_bench_workloads", BENCH_DIR / "workloads.py")


def _check_golden(op, workloads, golden):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op["argv"])
    out = b""
    if op["out"] is not None and os.path.exists(op["out"]):
        out = Path(op["out"]).read_bytes()
        os.remove(op["out"])
    assert code == 0, op["id"]
    assert workloads.golden_ok(op, out, stdout.getvalue().encode("utf-8"), golden), op["id"]


@pytest.mark.parametrize("workload", ["sweep", "sandwich", "gap", "point"])
def test_golden_ops_match_recorded_hashes(tmp_path, workload):
    workloads = _load_workloads()
    golden = workloads.load_golden()
    ops = workloads.golden_ops(workload, str(tmp_path))
    assert ops
    for op in ops:
        _check_golden(op, workloads, golden)


def test_traced_golden_ops_match_recorded_hashes(tmp_path, monkeypatch):
    # The tracer replaces every BOUNDARIES callee, AlphaMatrix included, with
    # a plain function; the library must give the same bytes through those
    # wrappers (a classmethod looked up on the wrapped AlphaMatrix would
    # raise, for one).
    tracer_module = _load("xctin_bench_tracer", BENCH_DIR / "tracer.py")
    tracer = tracer_module.Tracer()
    for mod_name, attr, span in tracer_module.BOUNDARIES:
        module = importlib.import_module(f"xctin.{mod_name}")
        monkeypatch.setattr(module, attr, tracer.wrap(span, getattr(module, attr)))
    workloads = _load_workloads()
    golden = workloads.load_golden()
    ops = [workloads.golden_ops(workload, str(tmp_path))[0]
           for workload in ("gap", "sandwich", "sweep")]
    # The first point op of each command, converge among them: it calls
    # experiments, whose names the tracer rebinds.
    first = {}
    for op in workloads.golden_ops("point", str(tmp_path)):
        first.setdefault(op["argv"][0], op)
    assert "converge" in first
    for op in ops + list(first.values()):
        _check_golden(op, workloads, golden)
    summary = tracer.summary()
    assert summary["cli.main.calls"] == len(ops) + len(first)
    # The gap op's argmax is the only AlphaMatrix the audits build.
    assert summary["channel.AlphaMatrix.calls"] == 1
