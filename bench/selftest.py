"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the repo root.

Checks that
1. a corrupted output byte is detected and counted as a failed op;
2. traced and untraced runs produce byte-identical outputs, and every
   predicted zero-call layer reads exactly 0 (a ``--trace 1`` run per
   workload must come out correct);
3. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits nonzero without printing a result.
Exits 0 when all hold; takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402  (imports xctin.cli from src/)
import run  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_build", "bench", "selftest")


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def corrupted_byte_is_counted() -> None:
    ops = workloads.golden_ops("gap", SCRATCH) + workloads.golden_ops("point", SCRATCH)[:9]
    golden = workloads.load_golden()
    clean = child.run_ops(ops, golden=golden)
    check(clean["failures"] == [], "golden gap and point ops match their hashes")

    emit_report = child.xctin.cli.emit_report

    def flip_last_byte(results, format):
        data = emit_report(results, format)
        return data[:-1] + bytes([data[-1] ^ 1])

    child.xctin.cli.emit_report = flip_last_byte
    try:
        corrupted = child.run_ops(ops, golden=golden)
    finally:
        child.xctin.cli.emit_report = emit_report
    check(len(corrupted["failures"]) == len(ops),
          f"one flipped byte fails every op: {len(corrupted['failures'])}/{len(ops)} in error_rate")


def trace_runs_are_correct() -> None:
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(workloads.BENCH_DIR, "run.py"),
                               "--workload", workload, "--seed", "5", "--seconds", "1",
                               "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        check(result.get("correct") is True,
              f"{workload}: traced outputs equal untraced ones, all ops pass")
        metrics = result["metrics"]
        zeros = [metrics[name + ".calls"]["value"] for name in run.ZERO_CALLS[workload]]
        check(all(v == 0 for v in zeros),
              f"{workload}: predicted zero-call layers read 0 ({', '.join(run.ZERO_CALLS[workload])})")


def bare_directory_fails() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(workloads.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    check(proc.returncode != 0 and proc.stdout == "",
          f"without the program: exit {proc.returncode}, nothing on stdout")


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    corrupted_byte_is_counted()
    bare_directory_fails()
    trace_runs_are_correct()
    return 0


if __name__ == "__main__":
    sys.exit(main())
