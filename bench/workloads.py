"""Workload definitions: the CLI argv each operation sends, and the checks
its output must pass.

An operation ("op") is one call of ``xctin.cli.main(argv)``. Every input is
generated from the benchmark seed, so a seed always gives the same ops. Three
op lists exist per workload:

* golden ops use pinned inputs and are checked against the SHA-256 hashes in
  ``golden.json`` (the byte-identical gate for refactors);
* timed and trace ops are the first TIMED_OPS / TRACE_OPS ops of a seeded
  stream, checked by exit code, record count and, for ``sweep``, the regime
  geometry on integer grid indices. Fixed lists make call counts repeat
  exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

WORKLOADS = ("sweep", "sandwich", "gap", "point")

SWEEP_STEP = "0.005"
SWEEP_K_MAX = 150                    # grid spans [0, 0.75] at step 0.005
SWEEP_POINTS = (SWEEP_K_MAX + 1) ** 2
PINNED_SWEEP_BETAS = ("0.5", "0.6", "0.75", "0.9")
PINNED_SANDWICH = (100_000, 1)       # acceptance size and seed (criterion 5)
PINNED_GAP = (1000, 7)               # acceptance size and seed (criterion 4)
PINNED_POINT_SEED = 1
GOLDEN_POINT_REQUESTS = 90           # ten blocks of the nine request kinds

# Seeded op sizes: about 0.15 s per sandwich or gap op on one core (a sweep
# op is the whole 151x151 grid, about 0.7 s). Short ops let the timed list
# be repeated in many rounds, which steadies each op's fastest round.
SANDWICH_N = 2500
GAP_N = 750
GAP_RHO_DB = "20,40,60"
# Ops in the timed list, which is repeated in rounds, and in the trace list.
TIMED_OPS = {"sweep": 2, "sandwich": 4, "gap": 4, "point": 1000}
TRACE_OPS = {"sweep": 2, "sandwich": 2, "gap": 2, "point": 900}

POINT_KINDS = ("eval", "classify", "bound", "gdof", "converge",
               "eval-gains", "eval-alpha", "bound-gains", "bound-alpha")
SCENARIOS_PER_FORM = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- op builders

def _op(op_id, argv, points, out=None, **check):
    return {"id": op_id, "argv": argv, "out": out, "points": points, "check": check}


def _sweep_op(op_id, beta, k_beta, out):
    return _op(op_id, ["sweep", "--step", SWEEP_STEP, "--beta", beta, "--out", out],
               SWEEP_POINTS, out, kind="sweep", k_beta=k_beta)


def _sandwich_op(op_id, n, seed, out):
    return _op(op_id, ["sandwich-audit", "--n", str(n), "--seed", str(seed), "--out", out],
               n, out, kind="sandwich", records=n)


def _gap_op(op_id, n, seed, out):
    return _op(op_id, ["gap-audit", "--n", str(n), "--rho-db", GAP_RHO_DB,
                       "--seed", str(seed), "--format", "json", "--out", out],
               3 * n, out, kind="gap", records=3 * n)


def _alpha_text(rng):
    return ",".join(f"{rng.uniform(0.01, 2.0):.6g}" for _ in range(6))


def _point_ops(rng, scen_dir, count, id_prefix):
    """Seeded single-point requests; each block of nine holds every kind once."""
    ops = []
    while len(ops) < count:
        for kind in rng.sample(POINT_KINDS, len(POINT_KINDS)):
            if len(ops) == count:
                break
            rho_db = f"{rng.uniform(10.0, 90.0):.4g}"
            if kind in ("eval", "bound"):
                argv = [kind, "--alpha", _alpha_text(rng), "--rho-db", rho_db]
            elif kind in ("classify", "gdof"):
                argv = [kind, "--alpha", _alpha_text(rng)]
            elif kind == "converge":
                dbs = (rng.uniform(10.0, 40.0), rng.uniform(40.5, 65.0), rng.uniform(65.5, 90.0))
                argv = [kind, "--alpha", _alpha_text(rng),
                        "--rho-db", ",".join(f"{d:.4g}" for d in dbs)]
            else:
                command, form = kind.split("-")
                path = os.path.join(scen_dir, f"{form}{rng.randrange(SCENARIOS_PER_FORM)}.json")
                argv = [command, "--scenario", path]
            ops.append(_op(f"{id_prefix}{len(ops)}", argv, 1, kind="point", command=argv[0]))
    return ops


def write_scenarios(seed: int, scen_dir: str) -> None:
    """Scenario files for the point stream, in the gains and the alpha form.

    Gains satisfy rho*|h|^2 = rho**alpha with alpha in [0.05, 2], so every
    link is interference-limited and under the exponent cap.
    """
    rng = random.Random(f"scenarios:{seed}")
    os.makedirs(scen_dir, exist_ok=True)
    for k in range(SCENARIOS_PER_FORM):
        rho_db = round(rng.uniform(10.0, 90.0), 3)
        rho = 10.0 ** (rho_db / 10.0)
        gains = []
        for _ in range(2):
            row = []
            for _ in range(3):
                mag = math.sqrt(rho ** (rng.uniform(0.05, 2.0) - 1.0))
                phase = rng.uniform(0.0, 2.0 * math.pi)
                row.append([round(mag * math.cos(phase), 15), round(mag * math.sin(phase), 15)])
            gains.append(row)
        alpha = [[round(rng.uniform(0.05, 2.0), 6) for _ in range(3)] for _ in range(2)]
        for form, payload in (("gains", {"rho_db": rho_db, "gains": gains}),
                              ("alpha", {"rho_db": rho_db, "alpha": alpha})):
            with open(os.path.join(scen_dir, f"{form}{k}.json"), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)


def golden_ops(workload: str, workdir: str) -> list:
    out = os.path.join(workdir, "golden.out")
    if workload == "sweep":
        k_of = {"0.5": 100, "0.6": 80, "0.75": 50, "0.9": 20}
        return [_sweep_op(f"sweep/beta={b}", b, k_of[b], out) for b in PINNED_SWEEP_BETAS]
    if workload == "sandwich":
        n, seed = PINNED_SANDWICH
        return [_sandwich_op(f"sandwich/n={n}/seed={seed}", n, seed, out)]
    if workload == "gap":
        n, seed = PINNED_GAP
        return [_gap_op(f"gap/n={n}/seed={seed}", n, seed, out)]
    scen_dir = os.path.join(workdir, "golden-scenarios")
    write_scenarios(PINNED_POINT_SEED, scen_dir)
    rng = random.Random(f"point:{PINNED_POINT_SEED}")
    return _point_ops(rng, scen_dir, GOLDEN_POINT_REQUESTS, f"point/seed={PINNED_POINT_SEED}/")


def seeded_ops(workload: str, seed: int, workdir: str, count: int) -> list:
    """The first ``count`` ops of the workload's seeded stream."""
    rng = random.Random(f"{workload}:{seed}")
    out = os.path.join(workdir, "op.out")
    if workload == "point":
        scen_dir = os.path.join(workdir, "scenarios")
        write_scenarios(seed, scen_dir)
        return _point_ops(rng, scen_dir, count, "point/")
    ops = []
    halves = []
    for idx in range(count):
        if workload == "sweep":
            # Half-grid betas: the regime boundary x <= 1 - beta falls between
            # grid points, so the expected geometry is exact on indices. Sweep
            # cost depends on beta, so every two ops take one beta from each
            # half of [0.5, 1).
            if not halves:
                halves = rng.sample(range(2), 2)
            k = 50 * halves.pop() + rng.randrange(50)
            ops.append(_sweep_op(f"sweep/{idx}", f"{1.0 - 0.005 * (k + 0.5):.4f}", k, out))
        elif workload == "sandwich":
            ops.append(_sandwich_op(f"sandwich/{idx}", SANDWICH_N, rng.randrange(1, 2**31), out))
        else:
            ops.append(_gap_op(f"gap/{idx}", GAP_N, rng.randrange(1, 2**31), out))
    return ops


# ---------------------------------------------------------------- checks

def _sweep_geometry_ok(csv_bytes: bytes, k_beta: int) -> bool:
    """Closed union-of-rectangles regime geometry on integer grid indices
    (acceptance criteria 1-2): extended iff (k21 <= 100 and k12 <= k_beta) or
    (k21 <= k_beta and k12 <= 100); reference regime iff both <= k_beta."""
    lines = csv_bytes.split(b"\n")
    if lines[0] != b"alpha21,alpha12,extended,gsj,d_tt,gdof_ub,witness":
        return False
    for idx, line in enumerate(lines[1:1 + SWEEP_POINTS]):
        k21, k12 = divmod(idx, SWEEP_K_MAX + 1)
        cells = line.split(b",", 4)
        want_ext = (k21 <= 100 and k12 <= k_beta) or (k21 <= k_beta and k12 <= 100)
        want_gsj = k21 <= k_beta and k12 <= k_beta
        if cells[2] != (b"true" if want_ext else b"false") or \
                cells[3] != (b"true" if want_gsj else b"false"):
            return False
    return True


def _point_ok(command: str, stdout: bytes) -> bool:
    if command == "converge":
        lines = stdout.split(b"\n")
        return lines[0] == b"rho,rate_norm,ub_norm,d_tt,d_ub" and len(lines) == 5 and lines[4] == b""
    doc = json.loads(stdout)
    if doc.get("command") != command:
        return False
    if command in ("bound", "gdof"):
        return len(doc["per_perm"]) == 12
    return True


def output_ok(op: dict, out: bytes, stdout: bytes) -> bool:
    """Seed-independent checks: record count, and sweep geometry."""
    check = op["check"]
    kind = check["kind"]
    try:
        if kind == "point":
            return _point_ok(check["command"], stdout)
        summary = json.loads(stdout) if stdout else None
        if kind == "sweep":
            return (summary["n_records"] == SWEEP_POINTS
                    and out.count(b"\n") == SWEEP_POINTS + 1
                    and _sweep_geometry_ok(out, check["k_beta"]))
        if kind == "sandwich":
            return summary["n_samples"] == check["records"] and out.count(b"\n") == check["records"] + 1
        return summary is None and out.count(b'"sample":') == check["records"]
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def golden_ok(op: dict, out: bytes, stdout: bytes, golden: dict) -> bool:
    want = golden.get(op["id"])
    return want is not None and want == {"out": sha256(out), "stdout": sha256(stdout)}
