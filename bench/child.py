"""One benchmark process: ``python3 bench/child.py <spec.json>``.

The first thing it does is time a cold ``import xctin.cli`` (numpy
included); only then does it load the harness. The spec names a mode:

    setup     import only
    golden    run the pinned golden ops and check their hashes
    timed     run the timed op list in rounds until the ops' summed wall
              time reaches ``seconds`` (at least two rounds); each op's
              latency is its fastest round
    fixed     run the fixed trace op list, untraced
    traced    the same list with spans at every module boundary
    profile   the same list under cProfile; writes the top-20 by tottime
    micro     per-call microbench of each layer's public functions

and writes its result as JSON to ``spec["result"]``.
"""

import sys
import time

_t0 = time.perf_counter()
import xctin.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def execute(op: dict, profiler=None):
    """One call of xctin.cli.main; returns (exit code or exception text,
    seconds, out bytes, stdout bytes)."""
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            code = xctin.cli.main(op["argv"])
        except Exception as exc:  # a traceback counts as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        dt = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
    out = b""
    if op["out"] is not None and os.path.exists(op["out"]):
        with open(op["out"], "rb") as fh:
            out = fh.read()
        os.remove(op["out"])
    return code, dt, out, stdout.getvalue().encode("utf-8")


# Reference seconds. Other tenants of a shared machine slow this process's
# core by up to about 40% for tens of seconds at a time, longer than a run,
# so wall time drifts between runs. A fixed pure-Python loop is timed before
# and after every segment of at least SEGMENT_S of ops; an op's time in
# reference seconds is its wall time times REF_LOOP_S over the segment's
# mean loop time, i.e. its wall time on a core where the loop takes
# REF_LOOP_S (about an unloaded core of the 2.1 GHz Xeon this benchmark was
# defined on). The loop depends on no xctin code, so program changes show
# in full; wall times are kept next to reference times.
REF_LOOP_S = 1.2e-3
SEGMENT_S = 0.05


def loop_s() -> float:
    """Wall time of the calibration loop, the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


ARGV_KEPT = 30  # provenance: the first argv lists; the rest follow from the seed


def run_ops(ops, golden=None, tracer=None, profiler=None, keep_hashes=False):
    """Run ops in order, checking each; times in wall and reference seconds."""
    latencies, ref_latencies, hashes, failures, argv = [], [], [], [], []
    points = 0
    busy = 0.0
    seg_loop, seg_first, seg_busy = loop_s(), 0, 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = len(latencies)
        code, dt, out, stdout = execute(op, profiler)
        if code != 0:
            failures.append(f"{op['id']}: exit {code!r}")
        elif golden is not None and not workloads.golden_ok(op, out, stdout, golden):
            failures.append(f"{op['id']}: output differs from its golden hash")
        elif not workloads.output_ok(op, out, stdout):
            failures.append(f"{op['id']}: output fails its checks")
        latencies.append(dt)
        if keep_hashes:
            hashes.append([workloads.sha256(out), workloads.sha256(stdout)])
        if len(argv) < ARGV_KEPT:
            argv.append(op["argv"])
        points += op["points"]
        busy += dt
        seg_busy += dt
        if seg_busy >= SEGMENT_S or len(latencies) == len(ops):
            end_loop = loop_s()
            scale = REF_LOOP_S / (0.5 * (seg_loop + end_loop))
            ref_latencies.extend(x * scale for x in latencies[seg_first:])
            seg_loop, seg_first, seg_busy = end_loop, len(latencies), 0.0
    return {"latencies": latencies, "ref_latencies": ref_latencies, "points": points,
            "busy_s": busy, "failures": failures, "hashes": hashes, "argv": argv}


def run_rounds(ops, seconds: float) -> dict:
    """Repeat the op list until the summed op time reaches ``seconds``, at
    least twice. An op's latency is its fastest round, which drops the
    shorter bursts of contention while keeping the spread of cost across
    ops. Every round must reproduce the first round's output bytes."""
    best = [float("inf")] * len(ops)
    best_ref = [float("inf")] * len(ops)
    rounds = []
    while len(rounds) < 2 or sum(r["busy_s"] for r in rounds) < seconds:
        r = run_ops(ops, keep_hashes=True)
        if rounds and r["hashes"] != rounds[0]["hashes"]:
            r["failures"].append(f"round {len(rounds)} output differs from round 0")
        best = [min(a, b) for a, b in zip(best, r["latencies"])]
        best_ref = [min(a, b) for a, b in zip(best_ref, r["ref_latencies"])]
        rounds.append(r)
    return {"latencies": best, "ref_latencies": best_ref, "points": rounds[0]["points"],
            "failures": [f for r in rounds for f in r["failures"]], "argv": rounds[0]["argv"],
            "rounds": len(rounds), "attempted": len(ops) * len(rounds),
            "round_busy_s": [r["busy_s"] for r in rounds]}


def main(spec_path: str) -> None:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    mode, workload, workdir = spec["mode"], spec["workload"], spec["workdir"]
    os.makedirs(workdir, exist_ok=True)
    result = {"mode": mode, "setup_s": SETUP_S,
              "versions": {"numpy": xctin.experiments.np.__version__,
                           "xctin": xctin.__version__,
                           "generator_id": xctin.experiments.GENERATOR_ID}}
    if mode == "golden":
        result.update(run_ops(workloads.golden_ops(workload, workdir),
                              golden=workloads.load_golden(), keep_hashes=True))
    elif mode == "timed":
        ops = workloads.seeded_ops(workload, spec["seed"], workdir,
                                   workloads.TIMED_OPS[workload])
        result.update(run_rounds(ops, spec["seconds"]))
    elif mode in ("fixed", "traced", "profile"):
        ops = workloads.seeded_ops(workload, spec["seed"], workdir,
                                   workloads.TRACE_OPS[workload])
        if mode == "fixed":
            result.update(run_ops(ops, keep_hashes=True))
        elif mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install({"cli": xctin.cli, "experiments": xctin.experiments,
                            "regime": xctin.regime})
            result.update(run_ops(ops, tracer=tracer, keep_hashes=True))
            result["layers"] = tracer.summary()
            tracer.save(spec["spans"])
        else:
            import cProfile
            import pstats
            profiler = cProfile.Profile()
            result.update(run_ops(ops, profiler=profiler))
            text = io.StringIO()
            pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(20)
            with open(spec["profile"], "w", encoding="utf-8") as fh:
                fh.write(text.getvalue())
    elif mode == "micro":
        import microbench
        result["micro"] = microbench.measure(spec["seed"])
        result["baseline_us"] = microbench.BASELINE_US
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
