"""Desk-scale audits: regime sweeps, constant-gap and bound-sandwich checks,
and a GDoF convergence probe.

Every study is deterministic given its parameters and seed. Random draws come
from a seeded counter-based generator (see GENERATOR_ID, also echoed in JSON
summaries); record generation is sequential, so identical invocations produce
identical record streams byte for byte.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .achievability import (tdma_tin_gdof, tdma_tin_gdof_profiles,
                            tdma_tin_rate, tdma_tin_rate_profiles)
from .bounds import (PERMUTATIONS, gdof_ub, gdof_ub_profiles,
                     sum_capacity_ub, sum_capacity_ub_profiles)
from .channel import DEFAULT_ALPHA_CAP, AlphaMatrix, libm_pow
from .errors import InvalidBeta, SamplerExhausted, ValidationError
# classify is no longer called here; it stays a module attribute because the
# benchmark tracer's BOUNDARIES and tests/test_bench_names.py name it.
from .regime import classify, in_extended_regime, regime_witnesses  # noqa: F401

GENERATOR_ID = "numpy.random.Generator(numpy.random.Philox(seed)) [philox4x64-10]"

# Tolerances the sandwich audit asserts: achievability may exceed the bound
# only by floating-point noise.
SANDWICH_RATE_TOL_BITS = 1e-9
SANDWICH_GDOF_TOL = 1e-12

SWEEP_COLUMNS = ("alpha21", "alpha12", "extended", "gsj", "d_tt", "gdof_ub", "witness")
GAP_COLUMNS = ("sample", "rho", "gap_bits", "ub_bits", "rate_bits")
SANDWICH_COLUMNS = ("sample", "rho", "rate_bits", "ub_bits", "d_tt", "d_ub")
CONVERGE_COLUMNS = ("rho", "rate_norm", "ub_norm", "d_tt", "d_ub")

# Slack the sweep adds to the caller's tolerance: a grid line k*step meant
# to sit on a regime boundary misses it by rounding (95*0.005 =
# 0.47500000000000003 > 1 - 0.525) and would leave the regime whole; 1e-12
# covers that and stays far below any step the grid cap allows.
SWEEP_GRID_SLACK = 1e-12
# Grid points per axis at most (the acceptance grid has 151).
SWEEP_MAX_AXIS_POINTS = 1001
# Largest exponent on each sweep axis.
SWEEP_RANGE_MAX = 0.75
# Rows per block-kernel call in the sweep and the audits: enough to spread
# numpy's per-call cost, few enough that the temporaries stay small whatever n.
BLOCK_ROWS = 256
# Witness labels of the sweep records, indexed like PERMUTATIONS.
_WITNESS_LABELS = tuple(p.label() for p in PERMUTATIONS)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of the symmetric-family regime sweep."""

    alpha21: float
    alpha12: float
    in_extended: bool
    in_gsj: bool
    d_tt: float
    gdof_ub: float
    witness: str | None


@dataclass(frozen=True)
class GapReport:
    """Summary of a constant-gap audit (bound minus achievable rate, in bits)."""

    n_samples: int
    rho_list: tuple[float, ...]
    max_gap_bits: float
    mean_gap_bits: float
    min_gap_bits: float
    argmax_alpha: AlphaMatrix
    all_within_7: bool
    seed: int


@dataclass(frozen=True)
class SandwichReport:
    """Worst observed violations of rate <= bound and GDoF <= GDoF bound."""

    n_samples: int
    seed: int
    rho_list: tuple[float, ...] | None
    rho_range: tuple[float, float]
    max_rate_violation_bits: float
    max_gdof_violation: float


@dataclass(frozen=True)
class ConvergenceRow:
    """Normalized rate/bound at one SNR next to their GDoF limits."""

    rho: float
    rate_norm: float
    ub_norm: float
    d_tt: float
    d_ub: float


def sweep_regime_plane(beta: float, step: float, range_max: float = SWEEP_RANGE_MAX,
                       tol: float = 0.0) -> list[SweepRecord]:
    """Classify the (alpha21, alpha12) plane of the symmetric family
    alpha = [[1, alpha12, beta], [alpha21, 1, beta]].

    Grid points are k*step for integer k with k*step <= range_max (endpoints
    inclusive, generated by index so record counts do not drift), emitted
    row-major: alpha21 outer, alpha12 inner; at most SWEEP_MAX_AXIS_POINTS
    per axis. beta = 0.5 is accepted for the regime-coincidence check;
    otherwise 0.5 < beta < 1. Points are classified with tolerance
    tol + SWEEP_GRID_SLACK; `sweep_audit_failure` checks the records.
    """
    b = float(beta)
    if not (0.5 <= b < 1.0):
        raise InvalidBeta(f"beta must satisfy 0.5 <= beta < 1, got {beta!r}")
    s = float(step)
    rng_max = float(range_max)
    if not (math.isfinite(s) and 0.0 < s <= rng_max):
        raise ValidationError(f"step must satisfy 0 < step <= range_max, got {step!r}")
    span = rng_max / s + 1e-9
    if not span < SWEEP_MAX_AXIS_POINTS:
        raise ValidationError(
            f"step {step!r} gives more than {SWEEP_MAX_AXIS_POINTS} grid points per axis")
    k_max = int(span)
    tol_grid = tol + SWEEP_GRID_SLACK
    axis = [k * s for k in range(k_max + 1)]
    if not all(0.0 <= x < math.inf for x in axis):
        raise ValidationError(f"sweep grid values must be finite and >= 0, got step {step!r}")
    side = len(axis)
    records: list[SweepRecord] = []
    for start in range(0, side * side, BLOCK_ROWS):
        block = [(axis[k // side], axis[k % side])
                 for k in range(start, min(start + BLOCK_ROWS, side * side))]
        grids = np.array([(1.0, a12, b, a21, 1.0, b) for a21, a12 in block])
        d_tt = _first_max(tdma_tin_gdof_profiles(grids)).tolist()
        d_ub = _first_min(gdof_ub_profiles(grids)).tolist()
        ext, gsj = regime_witnesses(grids, tol_grid)
        for (a21, a12), dt, du, we, wg in zip(block, d_tt, d_ub, ext.tolist(), gsj.tolist()):
            records.append(SweepRecord(a21, a12, we >= 0, wg >= 0, dt, du,
                                       _WITNESS_LABELS[we] if we >= 0 else None))
    return records


def sweep_audit_failure(records: list[SweepRecord], beta: float, step: float,
                        tol: float) -> str | None:
    """The first failed audit of a sweep at tolerance tol, named with the
    first offending (alpha21, alpha12), or None when all pass: regime
    inclusion (gsj implies extended), achievable GDoF = GDoF bound within
    1e-12 inside the extended regime, and at tol 0 the closed-form geometry."""
    for r in records:
        if r.in_gsj and not r.in_extended:
            return f"regime inclusion violated at {_coords(r)}"
        if r.in_extended and abs(r.d_tt - r.gdof_ub) > 1e-12:
            return (f"GDoF equality violated at {_coords(r)}: "
                    f"d_tt {r.d_tt:.12g}, gdof_ub {r.gdof_ub:.12g}")
    if tol > 0.0:
        return None
    r = _geometry_violation(records, beta, step)
    return None if r is None else f"regime geometry violated at {_coords(r)}"


def sweep_geometry_holds(records: list[SweepRecord], beta: float, step: float) -> bool:
    """Whether a tol-0 sweep matches the closed-form geometry on grid indices:
    extended = ([0, 0.5] x [0, 1-beta]) u ([0, 1-beta] x [0, 0.5]), reference
    = [0, 1-beta]^2, boundaries moved out by the sweep's SWEEP_GRID_SLACK."""
    return _geometry_violation(records, beta, step) is None


def _geometry_violation(records: list[SweepRecord], beta: float,
                        step: float) -> SweepRecord | None:
    """The first record off the closed-form geometry of sweep_geometry_holds."""
    s = float(step)
    k_half = int((0.5 + SWEEP_GRID_SLACK) / s)
    k_beta = int((1.0 - float(beta) + SWEEP_GRID_SLACK) / s)
    for r in records:
        k21, k12 = round(r.alpha21 / s), round(r.alpha12 / s)
        if (r.in_extended != ((k21 <= k_half and k12 <= k_beta)
                              or (k21 <= k_beta and k12 <= k_half))
                or r.in_gsj != (k21 <= k_beta and k12 <= k_beta)):
            return r
    return None


def _coords(r: SweepRecord) -> str:
    return f"({r.alpha21:.12g}, {r.alpha12:.12g})"


def _first_min(profiles: np.ndarray) -> np.ndarray:
    """Each row's first minimum, as bounds._first_min picks it."""
    return np.take_along_axis(profiles, profiles.argmin(axis=1)[:, None], axis=1)[:, 0]


def _first_max(profiles: np.ndarray) -> np.ndarray:
    """Each row's first maximum, as achievability._first_max picks it."""
    return np.take_along_axis(profiles, profiles.argmax(axis=1)[:, None], axis=1)[:, 0]


def _rates_and_bounds(grids: np.ndarray, rhos: np.ndarray):
    """TDMA-TIN rate and min_p B(p) of grid i at SNR rhos[i, j] for every
    pair (i, j), grid-major, as two flat arrays; BLOCK_ROWS pairs per kernel
    call."""
    k = rhos.shape[1]
    n_pairs = len(grids) * k
    rates, ubs = [], []
    for start in range(0, n_pairs, BLOCK_ROWS):
        pair = np.arange(start, min(start + BLOCK_ROWS, n_pairs))
        a = grids[pair // k]
        rho = rhos[pair // k, pair % k]
        rates.append(_first_max(tdma_tin_rate_profiles(a, rho)))
        ubs.append(_first_min(sum_capacity_ub_profiles(a, rho)))
    return np.concatenate(rates), np.concatenate(ubs)


def _max_keep_nan(running: float, x: float) -> float:
    """Builtin max(running, x), except that a NaN x wins: max(-inf, nan)
    would drop it, and the audit would pass on a NaN violation."""
    return x if math.isnan(x) else max(running, x)


def _check_rhos(rho_list) -> tuple[float, ...]:
    rhos = tuple(float(r) for r in rho_list)
    if not rhos or any(not r > 1.0 for r in rhos):
        raise ValidationError(f"every rho must be > 1, got {rho_list!r}")
    return rhos


def _check_box(box) -> tuple[float, float]:
    lo, hi = float(box[0]), float(box[1])
    if not (0.0 <= lo < hi <= DEFAULT_ALPHA_CAP):
        raise ValidationError(
            f"box must satisfy 0 <= lo < hi <= {DEFAULT_ALPHA_CAP:g}, got {box!r}")
    return lo, hi


def _check_rho_range(rho_range) -> tuple[float, float]:
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (1.0 < lo < hi and math.isfinite(hi)):
        raise ValidationError(f"rho_range must be finite with 1 < lo < hi, got {rho_range!r}")
    return lo, hi


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def _draw_alpha(rng: np.random.Generator, box: tuple[float, float]) -> AlphaMatrix:
    """One exponent grid with entries uniform on (lo, hi], drawn row-major."""
    lo, hi = box
    v = hi - (hi - lo) * rng.random(6)
    return AlphaMatrix(((v[0], v[1], v[2]), (v[3], v[4], v[5])))


def _draw_symmetric(rng: np.random.Generator) -> AlphaMatrix:
    """One grid of the symmetric sweep family alpha = [[1, a12, beta],
    [a21, 1, beta]] with beta in [0.5, 1) and a21, a12 in [0, 0.75).
    Draw order: beta, a21, a12."""
    b = 0.5 + 0.5 * rng.random()
    a21 = 0.75 * rng.random()
    a12 = 0.75 * rng.random()
    return AlphaMatrix(((1.0, a12, b), (a21, 1.0, b)))


def _rejection_sample(n: int, draw, exhaustion_window: int) -> list[AlphaMatrix]:
    """The first n results of draw() inside the extended regime, so exactly
    draw()'s distribution restricted to the regime. Raises SamplerExhausted
    once acceptance drops below 0.1% over the exhaustion window, which flags
    a misconfigured draw instead of hanging."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    out: list[AlphaMatrix] = []
    trials = 0
    while len(out) < n:
        trials += 1
        alpha = draw()
        if in_extended_regime(alpha) is not None:
            out.append(alpha)
        elif trials >= exhaustion_window and len(out) < 0.001 * trials:
            raise SamplerExhausted(
                f"acceptance {len(out)}/{trials} is below 0.1%; the draws "
                "barely intersect the extended regime")
    return out


def sample_in_regime(n: int, rng: np.random.Generator,
                     box: tuple[float, float] = (0.0, 2.0),
                     exhaustion_window: int = 1_000_000) -> list[AlphaMatrix]:
    """Rejection-sample n grids uniform on the box and inside the extended
    regime (see _rejection_sample)."""
    return _rejection_sample(n, functools.partial(_draw_alpha, rng, _check_box(box)),
                             exhaustion_window)


def gap_audit_with_rows(n: int, rho_list, seed: int, beta_free: bool = True,
                        box: tuple[float, float] = (0.0, 2.0),
                        exhaustion_window: int = 1_000_000):
    """Constant-gap audit; returns (GapReport, rows).

    Draws n exponent grids inside the extended regime (all six entries free
    over the box when beta_free, otherwise the symmetric two-parameter
    family), then evaluates gap = sum-capacity bound - TDMA-TIN rate at every
    SNR in rho_list. Rows are (sample, rho, gap_bits, ub_bits, rate_bits) in
    draw-major order. A gap above 7 bits is reported, never raised: the
    7-bit claim is exactly what the audit is for.
    """
    rhos = _check_rhos(rho_list)
    rng = _generator(seed)
    if beta_free:
        samples = sample_in_regime(n, rng, box, exhaustion_window)
    else:
        samples = _rejection_sample(n, functools.partial(_draw_symmetric, rng),
                                    exhaustion_window)
    k = len(rhos)
    rate, ub = _rates_and_bounds(np.array([alpha.flat() for alpha in samples]),
                                 np.broadcast_to(rhos, (n, k)))
    gaps = (ub - rate).tolist()
    rows = list(zip([idx for idx in range(n) for _ in rhos], rhos * n,
                    gaps, ub.tolist(), rate.tolist()))
    max_gap = max(gaps)
    min_gap = min(gaps)
    report = GapReport(
        n_samples=n,
        rho_list=rhos,
        max_gap_bits=max_gap,
        # Summed in row order, one addition at a time, as a running total.
        mean_gap_bits=functools.reduce(operator.add, gaps, 0.0) / len(rows),
        min_gap_bits=min_gap,
        argmax_alpha=samples[gaps.index(max_gap) // k],
        all_within_7=max_gap <= 7.0,
        seed=seed,
    )
    return report, rows


def gap_audit(n: int, rho_list, seed: int, beta_free: bool = True,
              box: tuple[float, float] = (0.0, 2.0)) -> GapReport:
    """See gap_audit_with_rows; this variant drops the per-evaluation rows."""
    report, _ = gap_audit_with_rows(n, rho_list, seed, beta_free, box)
    return report


def sandwich_audit_with_rows(n: int, rho_list=None, seed: int = 0,
                             box: tuple[float, float] = (0.0, 2.0),
                             rho_range: tuple[float, float] = (10.0, 1e9)):
    """Unconditional achievability-vs-bound audit; returns (SandwichReport, rows).

    Exponent grids are drawn uniform on the box with no regime restriction.
    With rho_list=None each draw gets one SNR, log-uniform on rho_range
    (finite, 1 < lo < hi; draw order per sample: six exponents, then the
    SNR); otherwise every draw is evaluated at each listed SNR. Rows are
    (sample, rho, rate_bits, ub_bits, d_tt, d_ub). Draws are made and
    evaluated BLOCK_ROWS at a time; the Philox stream is consumed in the
    same order as one draw at a time.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    lo, hi = _check_box(box)
    rhos = _check_rhos(rho_list) if rho_list is not None else None
    rho_lo, rho_hi = _check_rho_range(rho_range)
    lg_lo, lg_hi = math.log10(rho_lo), math.log10(rho_hi)
    rng = _generator(seed)
    rows = []
    max_rate_violation = -math.inf
    max_gdof_violation = -math.inf
    for start in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - start)
        u = rng.random((m, 6 if rhos is not None else 7))
        grids = hi - (hi - lo) * u[:, :6]
        if rhos is None:
            sample_rhos = libm_pow(np.full(m, 10.0), lg_lo + (lg_hi - lg_lo) * u[:, 6:])
        else:
            sample_rhos = np.broadcast_to(rhos, (m, len(rhos)))
        d_tt = _first_max(tdma_tin_gdof_profiles(grids))
        d_ub = _first_min(gdof_ub_profiles(grids))
        max_gdof_violation = _max_keep_nan(max_gdof_violation, float((d_tt - d_ub).max()))
        rate, ub = _rates_and_bounds(grids, sample_rhos)
        max_rate_violation = _max_keep_nan(max_rate_violation, float((rate - ub).max()))
        k = sample_rhos.shape[1]
        rows.extend(zip([idx for idx in range(start, start + m) for _ in range(k)],
                        sample_rhos.ravel().tolist(), rate.tolist(), ub.tolist(),
                        np.repeat(d_tt, k).tolist(), np.repeat(d_ub, k).tolist()))
    report = SandwichReport(
        n_samples=n,
        seed=seed,
        rho_list=rhos,
        rho_range=(rho_lo, rho_hi),
        max_rate_violation_bits=max_rate_violation,
        max_gdof_violation=max_gdof_violation,
    )
    return report, rows


def sandwich_audit(n: int, rho_list=None, seed: int = 0,
                   box: tuple[float, float] = (0.0, 2.0),
                   rho_range: tuple[float, float] = (10.0, 1e9)) -> SandwichReport:
    """See sandwich_audit_with_rows; this variant drops the rows."""
    report, _ = sandwich_audit_with_rows(n, rho_list, seed, box, rho_range)
    return report


def gdof_convergence_probe(alpha: AlphaMatrix, rho_list) -> list[ConvergenceRow]:
    """Normalized rate/bound table along a strictly increasing SNR list.

    Each row carries R/log2(rho) and UB/log2(rho) next to the GDoF pair they
    approach; the normalized rate stays within 2/log2(rho) of the achievable
    GDoF on both sides.
    """
    rhos = _check_rhos(rho_list)
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValidationError("rho values must be strictly increasing")
    d_tt = tdma_tin_gdof(alpha).value
    d_ub = gdof_ub(alpha).value
    rows = []
    for rho in rhos:
        lg = math.log2(rho)
        rows.append(ConvergenceRow(
            rho=rho,
            rate_norm=tdma_tin_rate(rho, alpha).value / lg,
            ub_norm=sum_capacity_ub(rho, alpha).value / lg,
            d_tt=d_tt,
            d_ub=d_ub,
        ))
    return rows
