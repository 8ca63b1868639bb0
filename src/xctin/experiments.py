"""Desk-scale audits: regime sweeps, constant-gap and bound-sandwich checks,
and a GDoF convergence probe, each with its verdict (`*_failure`) beside it.

Every study is deterministic given its parameters and seed. Random draws come
from a seeded counter-based generator (see GENERATOR_ID, also echoed in JSON
summaries); record generation is sequential, so identical invocations produce
identical record streams byte for byte.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .achievability import IC_CONFIGS, _tin_gdof_links, tdma_tin_gdof, tdma_tin_rate
from .bounds import PERMUTATIONS, _gdof_links, gdof_ub, sum_capacity_ub
from .channel import AlphaMatrix, check_rhos, float_or_nan
from .errors import InvalidBeta, SamplerExhausted, ValidationError
from .kernels import (_in_extended_rows, first_extremum, first_maximum, gdof_ub_profiles,
                      libm_pow, sum_capacity_ub_min, tdma_tin_gdof_profiles, tdma_tin_rate_max)
# classify and in_extended_regime are no longer called here; both stay module
# attributes because the benchmark tracer's BOUNDARIES and
# tests/test_bench_names.py name them.
from .regime import _witness_links, check_tol, classify, in_extended_regime  # noqa: F401
from .tables import Coded, Table

GENERATOR_ID = "numpy.random.Generator(numpy.random.Philox(seed)) [philox4x64-10]"

# The paper's constant gap: inside the extended regime the sum-capacity bound
# exceeds the TDMA-TIN rate by at most this many bits.
GAP_BOUND_BITS = 7.0
# Tolerances the sandwich audit asserts: achievability may exceed the bound
# only by floating-point noise.
SANDWICH_RATE_TOL_BITS = 1e-9
SANDWICH_GDOF_TOL = 1e-12

SWEEP_COLUMNS = ("alpha21", "alpha12", "extended", "gsj", "d_tt", "gdof_ub", "witness")
GAP_COLUMNS = ("sample", "rho", "gap_bits", "ub_bits", "rate_bits")
SANDWICH_COLUMNS = ("sample", "rho", "rate_bits", "ub_bits", "d_tt", "d_ub")

# Slack the sweep adds to the caller's tolerance: a grid line k*step meant
# to sit on a regime boundary misses it by rounding (95*0.005 =
# 0.47500000000000003 > 1 - 0.525) and would leave the regime whole; 1e-12
# covers that and stays far below any step the grid cap allows.
SWEEP_GRID_SLACK = 1e-12
# The exponent box of the audits' draws: each entry of a grid uniform on
# (0, 2], within the exponent cap.
AUDIT_BOX = (0.0, 2.0)
# The sandwich audit's SNR range when it draws the SNRs: log-uniform over
# 10-90 dB.
SANDWICH_RHO_RANGE = (10.0, 1e9)
# Draws after which the rejection sampler gives up once its acceptance is
# below 0.1%, so a regime test that rejects (nearly) every grid raises
# SamplerExhausted instead of looping forever.
SAMPLER_EXHAUSTION_WINDOW = 1_000_000
# Grid points per axis at most (the acceptance grid has 151).
SWEEP_MAX_AXIS_POINTS = 1001
# Largest exponent on each sweep axis.
SWEEP_RANGE_MAX = 0.75
# The sweep family's cross exponent: lo <= beta < hi.
SWEEP_BETA_RANGE = (0.5, 1.0)
# Rows per block-kernel call in the audits (the sweep is one broadcast over
# its axes): enough to spread numpy's per-call cost, few enough that the
# temporaries stay small whatever n. Against 256 (in process, 2 shared
# vCPUs, median of 15 interleaved rounds), 512 took the sandwich audit at
# n = 2500 from 12.2 to 9.5 ms and the gap audit at n = 750 from 10.1 to 8.7.
BLOCK_ROWS = 512
# Candidate draws per _in_extended_rows call in the rejection sampler. At
# about 18% acceptance a block of 1024 gives some 180 samples; 256 rows paid
# numpy's per-call cost too often at n = 10^4, and 4096 drew too far past
# the stop row at n = 750 (the unused tail is drawn again after a rewind).
# The extended-only test takes 0.16 ms per block, against 0.40 ms for
# regime_witnesses with both regimes (in process, best of 7 x 200 calls).
SAMPLER_BLOCK_ROWS = 1024
# Witness labels of the sweep records, indexed like PERMUTATIONS; the index
# len(PERMUTATIONS) (no witness) gives None.
_WITNESS_LABELS = tuple(p.label() for p in PERMUTATIONS) + (None,)
# Transmitters 1, 2 and receivers 1, 2 swapping labels.
_SWAP_12 = {1: 2, 2: 1, 3: 3}


def _relabelling_pairs(items, relabel) -> tuple[tuple[int, int], ...]:
    """(k, m) with k <= m for each pair {k, m} of indices into items that the
    1 <-> 2 label swap maps onto each other: one row per pair, (k, k) for an
    item that is its own partner."""
    partners = [items.index(relabel(x)) for x in items]
    return tuple((k, m) for k, m in enumerate(partners) if k <= m)


# The swap maps the sweep family at (alpha21, alpha12) onto the family at
# (alpha12, alpha21), ordering p onto its partner and a pairing onto its
# partner, so a partner's plane is the evaluated one transposed, bit for bit
# (the same operations on the same values). The sweep evaluates only the
# first of each pair: 6 of the 12 orderings and 4 of the 6 pairings.
_SWEEP_ORDERINGS = _relabelling_pairs(PERMUTATIONS, lambda p: tuple(_SWAP_12[x] for x in p))
# A pairing with its receivers swapped serves Rx 1 from its old second
# transmitter; the canonical form lists Rx 1's pair first.
_SWEEP_PAIRINGS = _relabelling_pairs(
    IC_CONFIGS, lambda cfg: (_SWAP_12[cfg.i2], _SWAP_12[cfg.i1], 1, 2))


class SweepRecord(NamedTuple):
    """One grid point of the symmetric-family regime sweep."""

    alpha21: float
    alpha12: float
    in_extended: bool
    in_gsj: bool
    d_tt: float
    gdof_ub: float
    witness: str | None


class GapReport(NamedTuple):
    """Summary of a constant-gap audit (bound minus achievable rate, in bits)."""

    n_samples: int
    rho_list: tuple[float, ...]
    seed: int
    max_gap_bits: float
    mean_gap_bits: float
    min_gap_bits: float
    all_within_7: bool
    argmax_alpha: AlphaMatrix


class SandwichReport(NamedTuple):
    """Worst observed violations of rate <= bound and GDoF <= GDoF bound."""

    n_samples: int
    seed: int
    rho_list: tuple[float, ...] | None
    rho_range: tuple[float, float]
    max_rate_violation_bits: float
    max_gdof_violation: float


class ConvergenceRow(NamedTuple):
    """Normalized rate/bound at one SNR next to their GDoF limits."""

    rho: float
    rate_norm: float
    ub_norm: float
    d_tt: float
    d_ub: float


def sweep_regime_plane(beta: float, step: float, range_max: float = SWEEP_RANGE_MAX,
                       tol: float = 0.0) -> Table:
    """Classify the (alpha21, alpha12) plane of the symmetric family
    alpha = [[1, alpha12, beta], [alpha21, 1, beta]].

    Grid points are k*step for integer k with k*step <= range_max (endpoints
    inclusive, generated by index so record counts do not drift), emitted
    row-major: alpha21 outer, alpha12 inner; at most SWEEP_MAX_AXIS_POINTS
    per axis. beta = 0.5 is accepted for the regime-coincidence check;
    otherwise 0.5 < beta < 1. Points are classified with tolerance
    tol + SWEEP_GRID_SLACK (tol finite and >= 0); `sweep_audit_failure`
    checks the result. Returns a Table of SWEEP_COLUMNS whose rows are
    SweepRecords.
    """
    b, s, rng_max = map(float_or_nan, (beta, step, range_max))
    lo, hi = SWEEP_BETA_RANGE
    if not (lo <= b < hi):
        raise InvalidBeta(f"beta must satisfy {lo:g} <= beta < {hi:g}, got {beta!r}")
    t = check_tol(tol) + SWEEP_GRID_SLACK
    if not (math.isfinite(s) and 0.0 < s <= rng_max):
        raise ValidationError(f"step must satisfy 0 < step <= range_max, got {step!r}")
    span = rng_max / s + 1e-9
    if not span < SWEEP_MAX_AXIS_POINTS:
        raise ValidationError(
            f"step {step!r} gives more than {SWEEP_MAX_AXIS_POINTS} grid points per axis")
    axis = np.arange(int(span) + 1) * s
    if not np.isfinite(axis).all():
        raise ValidationError(f"sweep grid values must be finite and >= 0, got step {step!r}")
    side = len(axis)
    # Each link of the family is 1, beta, an alpha12 row or an alpha21
    # column, so each formula's result broadcasts to the plane and folds at
    # once into a running extremum, the partners' as the fold transposed. The
    # order of the extremum folds changes no bit: the grid is finite and
    # >= +0.0, so no NaN or -0.0 arises and equal values share one pattern.
    grid = (1.0, axis[None, :], b, axis[:, None], 1.0, b)
    d_tt = _fold((_tin_gdof_links(IC_CONFIGS[k].take(grid), np.where)
                  for k, _ in _SWEEP_PAIRINGS), np.maximum)
    # Coded now, so its floats are freed before the orderings are evaluated.
    d_tt = _coded_floats(np.maximum(d_tt, d_tt.T).ravel())
    evaluated = [(k, m, PERMUTATIONS[k].take(grid)) for k, m in reversed(_SWEEP_ORDERINGS)]
    d_ub = _fold((_gdof_links(links, np.where, first_maximum) for _, _, links in evaluated),
                 np.minimum)
    # The first witness among the evaluated orderings (copied in descending
    # order) and among their partners (where smaller) on the transposed plane.
    none = np.int8(len(PERMUTATIONS))  # the witness code of no witness
    ext, ext_partner = np.full((2, side, side), none)
    gsj = np.zeros((side, side), dtype=bool)
    for k, m, links in evaluated:
        e, g = _witness_links(links, t, np.where, np.maximum)
        np.copyto(ext, np.int8(k), where=e)
        np.minimum(ext_partner, np.int8(m), out=ext_partner, where=e)
        gsj |= g
    d_ub, ext, gsj = np.minimum(d_ub, d_ub.T), np.minimum(ext, ext_partner.T), gsj | gsj.T
    points, index = axis.tolist(), np.arange(side, dtype=np.uint16)
    flags = (Coded((False, True), w.ravel().view(np.int8)) for w in (ext < none, gsj))
    return Table(SWEEP_COLUMNS, (
        Coded(points, np.repeat(index, side)), Coded(points, np.tile(index, side)), *flags,
        d_tt, _coded_floats(d_ub.ravel()),
        Coded(_WITNESS_LABELS, ext.ravel())), SweepRecord)


def sweep_audit_failure(table: Table, beta: float, step: float, tol: float) -> str | None:
    """The first failed audit of a sweep table at tolerance tol, named with
    the first offending (alpha21, alpha12) in row order, or None when all
    pass: regime inclusion (gsj implies extended), achievable GDoF = GDoF
    bound within 1e-12 inside the extended regime, and at tol 0 the
    closed-form geometry on grid indices: extended = ([0, 0.5] x [0, 1-beta])
    u ([0, 1-beta] x [0, 0.5]), reference = [0, 1-beta]^2, boundaries moved
    out by the sweep's SWEEP_GRID_SLACK."""
    a21, a12, ext, gsj, d_tt, d_ub, _ = table.columns
    e, g = np.array(ext, dtype=bool), np.array(gsj, dtype=bool)
    dt, du = np.array(d_tt, dtype=float), np.array(d_ub, dtype=float)
    inclusion = g & ~e
    with np.errstate(invalid="ignore"):  # inf - inf is nan and fails no check
        equality = e & (np.abs(dt - du) > 1e-12)
    bad = inclusion | equality
    if bad.any():
        i = int(bad.argmax())
        where = f"({a21[i]:.12g}, {a12[i]:.12g})"
        if inclusion[i]:
            return f"regime inclusion violated at {where}"
        return f"GDoF equality violated at {where}: d_tt {dt.item(i)!r}, gdof_ub {du.item(i)!r}"
    if tol > 0.0:
        return None
    s = float(step)
    k_half = int((0.5 + SWEEP_GRID_SLACK) / s)
    k_beta = int((1.0 - float(beta) + SWEEP_GRID_SLACK) / s)
    k = np.arange(math.isqrt(len(e)))
    half, low = k <= k_half, k <= k_beta
    want_ext = (half[:, None] & low) | (low[:, None] & half)
    bad = (e != want_ext.ravel()) | (g != (low[:, None] & low).ravel())
    if not bad.any():
        return None
    i = int(bad.argmax())
    return f"regime geometry violated at ({a21[i]:.12g}, {a12[i]:.12g})"


def _fold(results, ufunc) -> np.ndarray:
    """ufunc folded over results in place in the first, which spans them all."""
    folded = next(results)
    for x in results:
        ufunc(folded, x, out=folded)
        del x  # not held while the next result is made
    return folded


def _coded_floats(x: np.ndarray) -> Coded:
    """The cells of x as a Coded column of one value per distinct bit
    pattern, so signed zeros and NaN payloads stay apart."""
    cells = x.view(np.int64)
    # One sort and a binary search per cell: np.unique's return_inverse
    # argsorts and scatters, and without it numpy 2 hashes, both slower and
    # the first with some four times the temporaries.
    bits = np.sort(cells)
    first = np.ones(len(bits), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    bits = bits[first]
    codes = np.searchsorted(bits, cells)
    return Coded(bits.view(float).tolist(), codes.astype(np.min_scalar_type(len(bits))))


def _in_blocks(n: int, evaluate) -> tuple[np.ndarray, ...]:
    """evaluate(rows) for rows = np.arange(start, stop) over range(n), n >= 1,
    in BLOCK_ROWS slices and in order; each of its arrays concatenated."""
    blocks = [evaluate(np.arange(start, min(start + BLOCK_ROWS, n)))
              for start in range(0, n, BLOCK_ROWS)]
    return tuple(map(np.concatenate, zip(*blocks)))


def _rates_and_bounds(grids: np.ndarray, rhos: np.ndarray):
    """TDMA-TIN rate and min_p B(p) of grid i at SNR rhos[i, j] for every
    pair (i, j), grid-major, as two flat arrays; BLOCK_ROWS pairs per kernel
    call, whose powers rho**a both kernels share."""
    k = rhos.shape[1]

    def evaluate(pair):
        a, rho = grids[pair // k], rhos[pair // k, pair % k]
        r = libm_pow(rho[:, None], a)
        return tdma_tin_rate_max(r), sum_capacity_ub_min(a, rho, r)

    return _in_blocks(len(grids) * k, evaluate)


def _family_grids(a21, a12, beta) -> np.ndarray:
    """Grids of the symmetric family alpha = [[1, a12, beta], [a21, 1, beta]],
    one per entry of a21 and a12; beta is one value or one per grid."""
    ones = np.ones(len(a21))
    b = np.broadcast_to(beta, ones.shape)
    return np.column_stack((ones, a12, b, a21, ones, b))


def _check_n(n) -> int:
    """n as an int >= 1; a float, a string or a smaller count raises
    ValidationError."""
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if count < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    return count


def _box_grids(u: np.ndarray) -> np.ndarray:
    """Grids with entries hi - (hi - lo)*u on (lo, hi] = AUDIT_BOX, from
    (m, 6) uniform draws u on [0, 1)."""
    lo, hi = AUDIT_BOX
    return hi - (hi - lo) * u


def _generator(seed) -> tuple[int, np.random.Generator]:
    """seed as an int >= 0, and the generator it seeds; a float, a string or
    a negative seed raises ValidationError."""
    try:
        checked = operator.index(seed)
    except TypeError:
        raise ValidationError(f"seed must be an integer, got {seed!r}") from None
    if checked < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")
    return checked, np.random.Generator(np.random.Philox(checked))


def sample_in_regime(n: int, rng: np.random.Generator) -> list[AlphaMatrix]:
    """The first n grids inside the extended regime among draws uniform on
    AUDIT_BOX, so exactly that distribution restricted to the regime.

    Each draw takes six doubles from rng, row-major entries hi - (hi - lo)*u
    on (lo, hi]. Draws are tested SAMPLER_BLOCK_ROWS at a time, and rng is
    left exactly where drawing and testing one grid at a time leaves it:
    just after the draw that gives the n-th sample. Raises SamplerExhausted
    once acceptance drops below 0.1% after SAMPLER_EXHAUSTION_WINDOW draws,
    at the same draw and with the same message as one draw at a time.
    """
    grids = _sample_blocks(n, rng, 6, _box_grids, SAMPLER_EXHAUSTION_WINDOW)
    return [AlphaMatrix((row[:3], row[3:])) for row in grids.tolist()]


def _symmetric_grids(u: np.ndarray) -> np.ndarray:
    """Grids of the symmetric sweep family with beta on SWEEP_BETA_RANGE and
    a21, a12 in [0, SWEEP_RANGE_MAX), from (m, 3) uniform draws in the order
    beta, a21, a12."""
    lo, hi = SWEEP_BETA_RANGE
    return _family_grids(SWEEP_RANGE_MAX * u[:, 1], SWEEP_RANGE_MAX * u[:, 2],
                         lo + (hi - lo) * u[:, 0])


def _sample_blocks(n: int, rng: np.random.Generator, width: int, to_grids,
                   exhaustion_window: int) -> np.ndarray:
    """The first n grids inside the extended regime among to_grids(u) of
    successive rows u of width uniform draws, as an (n, 6) array; see
    sample_in_regime.

    Each block draws SAMPLER_BLOCK_ROWS rows and tests them with one
    _in_extended_rows call, which skips the reference regime. The block's
    stop row is the one that gives the n-th sample, or the first rejected
    one past exhaustion_window draws (SAMPLER_EXHAUSTION_WINDOW in the
    audits) with acceptance below 0.1%.
    A block not used in full is drawn again up to its stop row from the
    saved generator state, so rng ends where one draw at a time ends.
    """
    n = _check_n(n)
    kept = []
    accepted = trials = 0
    while accepted < n:
        state = rng.bit_generator.state
        grids = to_grids(rng.random((SAMPLER_BLOCK_ROWS, width)))
        ok = _in_extended_rows(grids, 0.0)
        count = accepted + np.cumsum(ok)
        tried = trials + np.arange(1, SAMPLER_BLOCK_ROWS + 1)
        stop = (ok & (count == n)) | (
            ~ok & (tried >= exhaustion_window) & (count < 0.001 * tried))
        hit = bool(stop.any())
        used = int(stop.argmax()) + 1 if hit else SAMPLER_BLOCK_ROWS
        if used < SAMPLER_BLOCK_ROWS:
            rng.bit_generator.state = state
            rng.random((used, width))
        kept.append(grids[:used][ok[:used]])
        accepted, trials = int(count[used - 1]), int(tried[used - 1])
        if hit and accepted < n:
            raise SamplerExhausted(
                f"acceptance {accepted}/{trials} is below 0.1%; the draws "
                "barely intersect the extended regime")
    return np.concatenate(kept)


def gap_audit_with_rows(n: int, rho_list, seed: int, beta_free: bool = True):
    """Constant-gap audit; returns (GapReport, Table of GAP_COLUMNS).

    Draws n exponent grids inside the extended regime (all six entries free
    over AUDIT_BOX when beta_free, otherwise the symmetric two-parameter
    family), then evaluates gap = sum-capacity bound - TDMA-TIN rate at every
    SNR in rho_list. Rows are (sample, rho, gap_bits, ub_bits, rate_bits) in
    draw-major order. A gap above 7 bits is reported, never raised: the
    7-bit claim is exactly what the audit is for.
    """
    rhos = check_rhos(rho_list)
    seed, rng = _generator(seed)
    width, to_grids = (6, _box_grids) if beta_free else (3, _symmetric_grids)
    grids = _sample_blocks(n, rng, width, to_grids, SAMPLER_EXHAUSTION_WINDOW)
    n, k = len(grids), len(rhos)
    rate, ub = _rates_and_bounds(grids, np.broadcast_to(rhos, (n, k)))
    gap = ub - rate
    rows = Table(GAP_COLUMNS, (np.repeat(np.arange(n), k),
                               Coded(rhos, np.tile(np.arange(k), n)), gap, ub, rate))
    # ndarray.argmax stops at the first NaN, so a NaN gap is the maximum
    # and fails the audit; builtin max would drop one that is not first.
    first = int(gap.argmax())
    max_gap = gap.item(first)
    worst = grids[first // k].tolist()
    report = GapReport(
        n_samples=n,
        rho_list=rhos,
        seed=seed,
        max_gap_bits=max_gap,
        # Summed in row order, one addition at a time, as a running total.
        mean_gap_bits=float(np.cumsum(gap)[-1]) / len(rows),
        min_gap_bits=float(gap.min()),
        all_within_7=max_gap <= GAP_BOUND_BITS,
        argmax_alpha=AlphaMatrix((worst[:3], worst[3:])),
    )
    return report, rows


def gap_audit(n: int, rho_list, seed: int, beta_free: bool = True) -> GapReport:
    """See gap_audit_with_rows; this variant drops the per-evaluation rows."""
    report, _ = gap_audit_with_rows(n, rho_list, seed, beta_free)
    return report


def gap_audit_failure(report: GapReport) -> str | None:
    """The first failed check of a gap audit, or None when both pass: every
    gap within GAP_BOUND_BITS, and every gap positive (the bound above the
    rate). A NaN gap fails both."""
    if not report.max_gap_bits <= GAP_BOUND_BITS:
        return f"max gap {report.max_gap_bits!r} bits exceeds {GAP_BOUND_BITS:g} bits"
    if not report.min_gap_bits > 0.0:
        return f"min gap {report.min_gap_bits!r} bits is not positive"
    return None


def sandwich_audit_with_rows(n: int, rho_list=None, seed: int = 0):
    """Unconditional achievability-vs-bound audit; returns (SandwichReport,
    Table of SANDWICH_COLUMNS).

    Exponent grids are drawn uniform on AUDIT_BOX with no regime
    restriction. With rho_list=None each draw gets one SNR, log-uniform on
    SANDWICH_RHO_RANGE (draw order per sample: six exponents, then the SNR);
    otherwise every draw is evaluated at each listed SNR. Rows are (sample,
    rho, rate_bits, ub_bits, d_tt, d_ub). Draws are made and evaluated
    BLOCK_ROWS at a time; the Philox stream is consumed in the same order as
    one draw at a time.
    """
    n = _check_n(n)
    rhos = check_rhos(rho_list) if rho_list is not None else None
    lg_lo, lg_hi = map(math.log10, SANDWICH_RHO_RANGE)
    seed, rng = _generator(seed)

    def evaluate(sample):
        m = len(sample)
        u = rng.random((m, 6 if rhos is not None else 7))
        grids = _box_grids(u[:, :6])
        if rhos is None:
            sample_rhos = libm_pow(10.0, lg_lo + (lg_hi - lg_lo) * u[:, 6:])
        else:
            sample_rhos = np.broadcast_to(rhos, (m, len(rhos)))
        k = sample_rhos.shape[1]
        d_tt = first_extremum(tdma_tin_gdof_profiles(grids), lowest=False)
        d_ub = first_extremum(gdof_ub_profiles(grids), lowest=True)
        columns = (np.repeat(sample, k), *_rates_and_bounds(grids, sample_rhos),
                   np.repeat(d_tt, k), np.repeat(d_ub, k))
        # The drawn SNRs are a column of their own; listed ones are Coded.
        return columns if rhos is not None else columns + (sample_rhos.ravel(),)

    sample, rate, ub, d_tt, d_ub, *drawn = _in_blocks(n, evaluate)
    # ndarray.max is NaN when any difference is, so a NaN fails the audit.
    report = SandwichReport(
        n_samples=n,
        seed=seed,
        rho_list=rhos,
        rho_range=SANDWICH_RHO_RANGE,
        max_rate_violation_bits=float((rate - ub).max()),
        max_gdof_violation=float((d_tt - d_ub).max()),
    )
    rho = drawn[0] if rhos is None else Coded(rhos, np.tile(np.arange(len(rhos)), n))
    return report, Table(SANDWICH_COLUMNS, (sample, rho, rate, ub, d_tt, d_ub))


def sandwich_audit(n: int, rho_list=None, seed: int = 0) -> SandwichReport:
    """See sandwich_audit_with_rows; this variant drops the rows."""
    report, _ = sandwich_audit_with_rows(n, rho_list, seed)
    return report


def sandwich_audit_failure(report: SandwichReport) -> str | None:
    """The first failed check of a sandwich audit, or None when both pass:
    the rate exceeds the bound by at most SANDWICH_RATE_TOL_BITS, and the
    TIN GDoF the GDoF bound by at most SANDWICH_GDOF_TOL. A NaN fails."""
    if not report.max_rate_violation_bits <= SANDWICH_RATE_TOL_BITS:
        return (f"rate exceeds the bound by {report.max_rate_violation_bits!r} "
                f"bits (tolerance {SANDWICH_RATE_TOL_BITS:g})")
    if not report.max_gdof_violation <= SANDWICH_GDOF_TOL:
        return (f"TIN GDoF exceeds the GDoF bound by {report.max_gdof_violation!r} "
                f"(tolerance {SANDWICH_GDOF_TOL:g})")
    return None


def gdof_convergence_probe(alpha: AlphaMatrix, rho_list) -> list[ConvergenceRow]:
    """Normalized rate/bound table along a strictly increasing SNR list.

    Each row carries R/log2(rho) and UB/log2(rho) next to the GDoF pair they
    approach; `convergence_failure` checks the rows.
    """
    rhos = check_rhos(rho_list)
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


def convergence_failure(rows: list[ConvergenceRow]) -> str | None:
    """The first failed check of a convergence probe, named with its worst
    row, or None when both pass: the normalized rate stays within
    2/log2(rho) (plus 1e-9) of the achievable GDoF on both sides, and the
    normalized bound stays above the normalized rate (less 1e-12)."""
    outside = [r for r in rows if not abs(r.rate_norm - r.d_tt) <= 2.0 / math.log2(r.rho) + 1e-9]
    if outside:
        r = max(outside, key=lambda r: abs(r.rate_norm - r.d_tt) - 2.0 / math.log2(r.rho))
        return (f"normalized rate is {abs(r.rate_norm - r.d_tt)!r} from d_tt at rho "
                f"{r.rho:.12g}, outside the 2/log2(rho) corridor")
    crossed = [r for r in rows if not r.ub_norm >= r.rate_norm - 1e-12]
    if crossed:
        r = max(crossed, key=lambda r: r.rate_norm - r.ub_norm)
        return (f"normalized bound is below the normalized rate by "
                f"{r.rate_norm - r.ub_norm!r} at rho {r.rho:.12g}")
    return None
