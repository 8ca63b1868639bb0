"""xctin benchmark: four CLI workloads, golden output hashes, traced layers.

Run from the repository root:

    python3 bench/run.py --workload {sweep,sandwich,gap,point} --seed N \\
        --seconds S --trace {0,1}

Every measurement runs in a fresh single-threaded child process
(``bench/child.py``), one at a time, calling ``xctin.cli.main(argv)`` in
process with stdout captured.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: cold ``import xctin.cli`` (numpy included), the median over
  3 * SETUP_REPS import-only processes and the golden and timed processes;
* ``points_per_ref_s``: channel points per reference second of summed op
  time. A point is a grid point (sweep), a draw (sandwich), a (draw, SNR)
  evaluation (gap) or a request (point);
* ``latency_p50_ref_ms``: median per-op latency of the closed loop in
  reference milliseconds; an op is one CLI invocation, and its latency is
  the fastest of its rounds (see ``child.run_rounds``);
* ``peak_rss_mb``: peak resident set of the timed process.

Reference time is wall time corrected for the load other tenants put on a
shared machine, by a calibration loop timed around every 50 ms of ops (see
``child.REF_LOOP_S``). Wall-time figures (points per second, latency p50,
p90, p99) are printed and recorded next to the reference ones; the p90 and
p99 are not gated, as a batch run holds only two to four ops.

Before timing, the pinned golden ops run and must match ``golden.json``
byte for byte; the timed ops must pass the seed-independent checks in
``workloads.output_ok``. A failed op (nonzero exit, traceback, wrong bytes)
counts in ``failed`` and makes ``correct`` false.

``--trace 1`` runs the fixed trace op list untraced, then traced (spans at
each module boundary, see ``tracer.py``), then under cProfile (top-20
sidecar), and runs the per-call microbench. It checks that traced outputs
equal untraced ones byte for byte and that every predicted zero-call layer
reads exactly 0, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics listed in BENCHMARK.json. A fuller record with provenance, the
quantiles and every layer number goes to
``.bench_build/bench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

SETUP_REPS = 4  # per batch; three batches per run
CHILD_TIMEOUT_S = 150

# Layers that must not be called at all on a workload.
ZERO_CALLS = {
    "sweep": ("bounds.sum_capacity_ub", "achievability.tdma_tin_rate",
              "experiments.sample_in_regime", "channel.load_scenario",
              "channel.validate_scenario"),
    "sandwich": ("regime.classify", "regime.in_extended_regime", "regime.in_gsj_regime",
                 "experiments.sample_in_regime", "channel.load_scenario",
                 "channel.validate_scenario"),
    "gap": ("bounds.gdof_ub", "achievability.tdma_tin_gdof", "regime.classify",
            "channel.load_scenario", "channel.validate_scenario"),
    "point": ("experiments.sample_in_regime",),
}


class ChildFailed(RuntimeError):
    pass


def quantiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, pct: int) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def provenance(root: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, "r", encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "git_commit": commit, "seed": seed}


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.build = os.path.join(root, ".bench_build", "bench")
        self.workdir = os.path.join(self.build, "work", workload)
        self.results = os.path.join(self.build, "results")
        os.makedirs(self.workdir, exist_ok=True)
        os.makedirs(self.results, exist_ok=True)
        # Bytecode is cached under .bench_build (written by the first, unmeasured
        # child), so every measured import reads cached bytecode, as an
        # installed package does, whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=os.path.join(root, "src"),
                        PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_build", "pycache"),
                        PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")

    def child(self, mode: str, **extra) -> dict:
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "workdir": os.path.join(self.workdir, mode), **extra,
                "result": os.path.join(self.workdir, f"{mode}.result.json")}
        spec_path = os.path.join(self.workdir, f"{mode}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        if os.path.exists(spec["result"]):
            os.remove(spec["result"])
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                              cwd=self.root, env=self.env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            raise ChildFailed(f"{mode} process exited with {proc.returncode}")
        with open(spec["result"], "r", encoding="utf-8") as fh:
            return json.load(fh)

    def setups(self) -> list:
        return [self.child("setup")["setup_s"] for _ in range(SETUP_REPS)]

    def untraced(self, seconds: float):
        # Import-only processes run before, between and after the golden and
        # timed processes, so a burst of contention on the shared machine hits
        # only some of the set-up samples.
        setups = self.setups()
        golden = self.child("golden")
        setups += self.setups()
        timed = self.child("timed", seconds=seconds)
        setups += self.setups() + [golden["setup_s"], timed["setup_s"]]
        ref_ms = [x * 1e3 for x in timed["ref_latencies"]]
        wall_ms = [x * 1e3 for x in timed["latencies"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "points_per_ref_s": timed["points"] / sum(timed["ref_latencies"]),
            "latency_p50_ref_ms": statistics.median(ref_ms),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        failures = golden["failures"] + timed["failures"]
        attempted = len(golden["latencies"]) + timed["attempted"]
        detail = {
            "setup_s": quantiles(setups),
            "latency_ref_ms": dict(quantiles(ref_ms), p90=percentile(ref_ms, 90),
                                   p99=percentile(ref_ms, 99)),
            "latency_ms": dict(quantiles(wall_ms), p90=percentile(wall_ms, 90),
                               p99=percentile(wall_ms, 99)),
            "points_per_s": timed["points"] / sum(timed["latencies"]),
            "timed_points": timed["points"],
            "rounds": timed["rounds"], "round_busy_s": timed["round_busy_s"],
            "golden_ops": len(golden["latencies"]),
            "golden_peak_rss_mb": golden["peak_rss_mb"],
            "argv": {"golden": golden["argv"], "timed": timed["argv"]},
        }
        return metrics, attempted, failures, detail

    def traced(self):
        untraced = self.child("fixed")
        traced = self.child("traced", spans=os.path.join(
            self.results, f"spans-{self.workload}-seed{self.seed}.npz"))
        profile_path = os.path.join(self.results, f"profile-{self.workload}-seed{self.seed}.txt")
        profiled = self.child("profile", profile=profile_path)
        micro_run = self.child("micro")
        micro = micro_run["micro"]
        layers = traced["layers"]
        failures = untraced["failures"] + traced["failures"] + profiled["failures"]
        failures += [f"traced output differs: op {i}" for i, (a, b) in
                     enumerate(zip(untraced["hashes"], traced["hashes"])) if a != b]
        failures += [f"predicted zero calls, got {layers[name + '.calls']}: {name}"
                     for name in ZERO_CALLS[self.workload] if layers[name + ".calls"] != 0]
        values = dict(layers)
        values.update(micro)
        values["trace.overhead_ratio"] = (
            sum(traced["ref_latencies"]) / sum(untraced["ref_latencies"]))
        attempted = len(untraced["latencies"]) + len(traced["latencies"]) + len(profiled["latencies"])
        detail = {"layers": layers, "micro": micro, "profile": profile_path,
                  "micro_vs_roadmap_baseline": {
                      name: {"us": micro[name], "baseline_us": base, "factor": micro[name] / base}
                      for name, base in micro_run["baseline_us"].items()},
                  "argv": {"trace": untraced["argv"]}}
        return values, attempted, failures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xctin benchmark (see module docstring)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xctin", "cli.py")):
        print("error: run from the repository root; src/xctin/cli.py not found", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(root, args.workload, args.seed)
    try:
        versions = runner.child("setup")["versions"]  # also compiles bytecode; not measured
        if args.trace:
            values, attempted, failures, detail = runner.traced()
        else:
            values, attempted, failures, detail = runner.untraced(args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  error_rate=len(failures) / attempted, failures=failures[:50],
                  provenance=provenance(root, args.seed), detail=detail)
    record["provenance"].update(versions)
    out_path = os.path.join(runner.results,
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:42s} {m['value']:.6g} {m['unit']}")
    if "points_per_s" in detail:
        print(f"{args.workload:9s} {'points_per_s (wall)':42s} {detail['points_per_s']:.6g} 1/s")
    for name in ("latency_ref_ms", "latency_ms", "setup_s"):
        if name in detail:
            q = detail[name]
            print(f"{args.workload:9s} {name} median {q['median']:.6g}, quartiles "
                  f"{q['q1']:.6g}-{q['q3']:.6g}, n={q['n']}")
    print(f"{args.workload:9s} error_rate {len(failures)}/{attempted}; record: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
