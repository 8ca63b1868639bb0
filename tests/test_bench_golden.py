"""The benchmark's golden ops reproduce the hashes in bench/golden.json.

The ops come from bench/workloads.py, loaded by path and only read; each
runs through xctin.cli.main in process with its files under tmp_path, so
byte drift in any command fails the test suite, not only the benchmark.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

from xctin import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("xctin_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sweep", "sandwich", "gap", "point"])
def test_golden_ops_match_recorded_hashes(tmp_path, workload):
    workloads = _load_workloads()
    golden = workloads.load_golden()
    ops = workloads.golden_ops(workload, str(tmp_path))
    assert ops
    for op in ops:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op["argv"])
        out = b""
        if op["out"] is not None and os.path.exists(op["out"]):
            out = Path(op["out"]).read_bytes()
            os.remove(op["out"])
        assert code == 0, op["id"]
        assert workloads.golden_ok(op, out, stdout.getvalue().encode("utf-8"), golden), op["id"]
