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
from typing import NamedTuple

import numpy as np

from .achievability import (tdma_tin_gdof, tdma_tin_gdof_profiles,
                            tdma_tin_rate, tdma_tin_rate_profiles)
from .bounds import (PERMUTATIONS, gdof_ub, gdof_ub_profiles,
                     sum_capacity_ub, sum_capacity_ub_profiles)
from .channel import (DEFAULT_ALPHA_CAP, MAX_RHO_DB, AlphaMatrix, libm_pow,
                      rho_from_db)
from .errors import InvalidBeta, SamplerExhausted, ValidationError
# classify and in_extended_regime are no longer called here; both stay module
# attributes because the benchmark tracer's BOUNDARIES and
# tests/test_bench_names.py name them.
from .regime import (check_tol, classify, in_extended_regime,  # noqa: F401
                     regime_witnesses)

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
# Largest SNR the audits accept, as for the CLI's --rho-db: above it the rate
# and the bound overflow for exponents up to DEFAULT_ALPHA_CAP.
_RHO_CAP = rho_from_db(MAX_RHO_DB)
# Grid points per axis at most (the acceptance grid has 151).
SWEEP_MAX_AXIS_POINTS = 1001
# Largest exponent on each sweep axis.
SWEEP_RANGE_MAX = 0.75
# Rows per block-kernel call in the sweep and the audits: enough to spread
# numpy's per-call cost, few enough that the temporaries stay small whatever n.
BLOCK_ROWS = 256
# Candidate draws per regime_witnesses call in the rejection sampler. At
# about 18% acceptance a block of 1024 gives some 180 samples; 256 rows paid
# numpy's per-call cost too often at n = 10^4, and 4096 drew too far past
# the stop row at n = 750 (the unused tail is drawn again after a rewind).
SAMPLER_BLOCK_ROWS = 1024
# Witness labels of the sweep records, indexed like PERMUTATIONS; index -1
# (no witness) gives None.
_WITNESS_LABELS = tuple(p.label() for p in PERMUTATIONS) + (None,)


class Table:
    """A table command's records as equal-length columns, one kind per column.

    kinds has one letter per column: "i" int, "f" float, "b" bool, "s" a
    digit-only label or None, "g" any other cell (such as a float or None),
    written one at a time as untyped rows are. len(), iteration and indexing
    see rows, made on demand: record(*row) when record is given, plain
    tuples otherwise.
    """

    __slots__ = ("names", "kinds", "columns", "record")

    def __init__(self, names, kinds: str, columns, record=None):
        self.names = tuple(names)
        self.kinds = kinds
        self.columns = tuple(columns)
        self.record = record

    @classmethod
    def from_rows(cls, names, kinds: str, rows, record=None) -> "Table":
        return cls(names, kinds, [list(c) for c in zip(*rows)] or [[] for _ in names], record)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns) if self.record is None else map(self.record, *self.columns)

    def __getitem__(self, i):
        row = tuple(c[i] for c in self.columns)
        return row if self.record is None else self.record(*row)

    def __eq__(self, other):
        return isinstance(other, Table) and (self.names, self.kinds, self.columns) == (
            other.names, other.kinds, other.columns)


class SweepRecord(NamedTuple):
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
    b = float(beta)
    if not (0.5 <= b < 1.0):
        raise InvalidBeta(f"beta must satisfy 0.5 <= beta < 1, got {beta!r}")
    t = check_tol(tol)
    s = float(step)
    rng_max = float(range_max)
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
    n = side * side
    ones, betas = np.ones(BLOCK_ROWS), np.full(BLOCK_ROWS, b)
    blocks = []
    for start in range(0, n, BLOCK_ROWS):
        k = np.arange(start, min(start + BLOCK_ROWS, n))
        m = len(k)
        grids = np.column_stack((ones[:m], axis[k % side], betas[:m],
                                 axis[k // side], ones[:m], betas[:m]))
        blocks.append((_first_max(tdma_tin_gdof_profiles(grids)),
                       _first_min(gdof_ub_profiles(grids)),
                       *regime_witnesses(grids, t + SWEEP_GRID_SLACK)))
    d_tt, d_ub, ext, gsj = map(np.concatenate, zip(*blocks))
    # Grid values as Python floats, each shared by the rows that hold it.
    points = axis.tolist()
    return Table(SWEEP_COLUMNS, "ffbbffs", (
        [a21 for a21 in points for _ in points], points * side,
        (ext >= 0).tolist(), (gsj >= 0).tolist(), d_tt.tolist(), d_ub.tolist(),
        list(map(_WITNESS_LABELS.__getitem__, ext.tolist()))), SweepRecord)


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
        return (f"GDoF equality violated at {where}: "
                f"d_tt {d_tt[i]:.12g}, gdof_ub {d_ub[i]:.12g}")
    if tol > 0.0:
        return None
    s = float(step)
    k_half = int((0.5 + SWEEP_GRID_SLACK) / s)
    k_beta = int((1.0 - float(beta) + SWEEP_GRID_SLACK) / s)
    k21, k12 = np.divmod(np.arange(len(e)), math.isqrt(len(e)))
    in_beta = (k21 <= k_beta) & (k12 <= k_beta)
    want_ext = ((k21 <= k_half) & (k12 <= k_beta)) | ((k21 <= k_beta) & (k12 <= k_half))
    bad = (e != want_ext) | (g != in_beta)
    if not bad.any():
        return None
    i = int(bad.argmax())
    return f"regime geometry violated at ({a21[i]:.12g}, {a12[i]:.12g})"


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
    if not rhos or any(not 1.0 < r <= _RHO_CAP for r in rhos):
        raise ValidationError(f"every rho must satisfy 1 < rho <= {_RHO_CAP!r} "
                              f"(MAX_RHO_DB = {MAX_RHO_DB:.6g} dB), got {rho_list!r}")
    return rhos


def _check_box(box) -> tuple[float, float]:
    lo, hi = float(box[0]), float(box[1])
    if not (0.0 <= lo < hi <= DEFAULT_ALPHA_CAP):
        raise ValidationError(
            f"box must satisfy 0 <= lo < hi <= {DEFAULT_ALPHA_CAP:g}, got {box!r}")
    return lo, hi


def _check_rho_range(rho_range) -> tuple[float, float]:
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (1.0 < lo < hi <= _RHO_CAP):
        raise ValidationError(f"rho_range must satisfy 1 < lo < hi <= {_RHO_CAP!r} "
                              f"(MAX_RHO_DB = {MAX_RHO_DB:.6g} dB), got {rho_range!r}")
    return lo, hi


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def sample_in_regime(n: int, rng: np.random.Generator,
                     box: tuple[float, float] = (0.0, 2.0),
                     exhaustion_window: int = 1_000_000) -> list[AlphaMatrix]:
    """The first n grids inside the extended regime among draws uniform on
    the box, so exactly that distribution restricted to the regime.

    Each draw takes six doubles from rng, row-major entries hi - (hi - lo)*u
    on (lo, hi]. Draws are tested SAMPLER_BLOCK_ROWS at a time, and rng is
    left exactly where drawing and testing one grid at a time leaves it:
    just after the draw that gives the n-th sample. Raises SamplerExhausted
    once acceptance drops below 0.1% over the exhaustion window, at the same
    draw and with the same message as one draw at a time, which flags a
    misconfigured box instead of hanging.
    """
    lo, hi = _check_box(box)
    return _sample_blocks(n, rng, 6, lambda u: hi - (hi - lo) * u, exhaustion_window)


def _symmetric_grids(u: np.ndarray) -> np.ndarray:
    """Grids of the symmetric sweep family alpha = [[1, a12, beta],
    [a21, 1, beta]] with beta in [0.5, 1) and a21, a12 in [0, 0.75), from
    (m, 3) uniform draws in the order beta, a21, a12."""
    ones, b = np.ones(len(u)), 0.5 + 0.5 * u[:, 0]
    return np.column_stack((ones, 0.75 * u[:, 2], b, 0.75 * u[:, 1], ones, b))


def _sample_blocks(n: int, rng: np.random.Generator, width: int, to_grids,
                   exhaustion_window: int) -> list[AlphaMatrix]:
    """The first n grids inside the extended regime among to_grids(u) of
    successive rows u of width uniform draws; see sample_in_regime.

    Each block draws SAMPLER_BLOCK_ROWS rows and tests them with one
    regime_witnesses call. The block's stop row is the one that gives the
    n-th sample, or the first rejected one past the exhaustion window with
    acceptance below 0.1%. A block not used in full is drawn again up to
    its stop row from the saved generator state, so rng ends where one
    draw at a time ends.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    kept = []
    accepted = trials = 0
    while accepted < n:
        state = rng.bit_generator.state
        grids = to_grids(rng.random((SAMPLER_BLOCK_ROWS, width)))
        ok = regime_witnesses(grids, 0.0)[0] >= 0
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
    return [AlphaMatrix((row[:3], row[3:])) for row in np.concatenate(kept).tolist()]


def gap_audit_with_rows(n: int, rho_list, seed: int, beta_free: bool = True,
                        box: tuple[float, float] = (0.0, 2.0),
                        exhaustion_window: int = 1_000_000):
    """Constant-gap audit; returns (GapReport, Table of GAP_COLUMNS).

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
        samples = _sample_blocks(n, rng, 3, _symmetric_grids, exhaustion_window)
    k = len(rhos)
    rate, ub = _rates_and_bounds(np.array([alpha.flat() for alpha in samples]),
                                 np.broadcast_to(rhos, (n, k)))
    gaps = (ub - rate).tolist()
    rows = Table(GAP_COLUMNS, "iffff", ([idx for idx in range(n) for _ in rhos], list(rhos * n),
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
    """Unconditional achievability-vs-bound audit; returns (SandwichReport,
    Table of SANDWICH_COLUMNS).

    Exponent grids are drawn uniform on the box with no regime restriction.
    With rho_list=None each draw gets one SNR, log-uniform on rho_range
    (1 < lo < hi <= the SNR at MAX_RHO_DB; draw order per sample: six exponents, then the
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
    columns = ([], [], [], [], [], [])
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
        for column, values in zip(columns, (
                np.repeat(np.arange(start, start + m), k), sample_rhos.ravel(), rate, ub,
                np.repeat(d_tt, k), np.repeat(d_ub, k))):
            column.extend(values.tolist())
    report = SandwichReport(
        n_samples=n,
        seed=seed,
        rho_list=rhos,
        rho_range=(rho_lo, rho_hi),
        max_rate_violation_bits=max_rate_violation,
        max_gdof_violation=max_gdof_violation,
    )
    return report, Table(SANDWICH_COLUMNS, "ifffff", columns)


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
