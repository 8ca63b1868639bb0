"""Per-call microbench of each layer's public functions.

Every function runs over one seeded set of 10^4 draws (exponents uniform on
(0, 2], SNR log-uniform on [10, 1e9]); each pass over the set is timed and
the fastest of REPEATS passes gives microseconds per call. ``emit_report``
is timed per row on a sandwich-shaped table of the same size.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from xctin.achievability import tdma_tin_gdof, tdma_tin_rate
from xctin.bounds import gdof_ub, sum_capacity_ub
from xctin.channel import AlphaMatrix, ChannelScenario, validate_scenario
from xctin.cli import emit_report
from xctin.experiments import SANDWICH_COLUMNS
from xctin.regime import classify

DRAWS = 10_000
REPEATS = 3

# Per-call times of the seed code (2 shared cores, Python 3.11, numpy 2.4.6).
BASELINE_US = {
    "bounds.sum_capacity_ub.us_per_call": 35.0,
    "bounds.gdof_ub.us_per_call": 17.0,
    "regime.classify.us_per_call": 6.7,
    "achievability.tdma_tin_rate.us_per_call": 5.8,
    "channel.AlphaMatrix.us_per_call": 5.1,
}


def _best_us(fn, args_list) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, perf_counter() - t0)
    return best / len(args_list) * 1e6


def measure(seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    rows, rhos = [], []
    for _ in range(DRAWS):
        v = [2.0 - 2.0 * rng.random() for _ in range(6)]
        rows.append((tuple(v[:3]), tuple(v[3:])))
        rhos.append(10.0 ** rng.uniform(1.0, 9.0))
    alphas = [AlphaMatrix(r) for r in rows]
    # Gains with rho*|h|^2 = rho**max(x, 0.01), so every link is interference-limited.
    scenarios = [ChannelScenario(rho=rho, gains=tuple(
        tuple(complex(math.sqrt(rho ** (max(x, 0.01) - 1.0)), 0.0) for x in row) for row in a.a))
        for rho, a in zip(rhos, alphas)]
    rate_rho = list(zip(rhos, alphas))
    out = {
        "channel.AlphaMatrix.us_per_call": _best_us(AlphaMatrix, [(r,) for r in rows]),
        "channel.validate_scenario.us_per_call": _best_us(validate_scenario, [(s,) for s in scenarios]),
        "achievability.tdma_tin_rate.us_per_call": _best_us(tdma_tin_rate, rate_rho),
        "achievability.tdma_tin_gdof.us_per_call": _best_us(tdma_tin_gdof, [(a,) for a in alphas]),
        "bounds.sum_capacity_ub.us_per_call": _best_us(sum_capacity_ub, rate_rho),
        "bounds.gdof_ub.us_per_call": _best_us(gdof_ub, [(a,) for a in alphas]),
        "regime.classify.us_per_call": _best_us(classify, [(a,) for a in alphas]),
    }
    table = [(idx, rho, tdma_tin_rate(rho, a).value, sum_capacity_ub(rho, a).value,
              tdma_tin_gdof(a).value, gdof_ub(a).value)
             for idx, (rho, a) in enumerate(rate_rho)]
    csv_payload = {"columns": SANDWICH_COLUMNS, "rows": table}
    json_payload = {"records": [dict(zip(SANDWICH_COLUMNS, row)) for row in table]}
    out["cli.emit_report.csv.us_per_row"] = _best_us(emit_report, [(csv_payload, "csv")]) / DRAWS
    out["cli.emit_report.json.us_per_row"] = _best_us(emit_report, [(json_payload, "json")]) / DRAWS
    return out
