import inspect
import json
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xctin import achievability, bounds, experiments, kernels, regime
from xctin.achievability import IC_CONFIGS, IcConfig, tdma_tin_gdof, tdma_tin_rate
from xctin.bounds import (PERMUTATIONS, GenieParams, TxPermutation, gdof_ub,
                          genie_params_from_gains, sum_capacity_ub)
from xctin.channel import (DEFAULT_ALPHA_CAP, MAX_RHO, MAX_RHO_DB, AlphaMatrix, alpha_from_gain,
                           check_gains, check_rho, check_rhos, effective_inr, rho_from_db,
                           rhos_from_db, scenario_from_dict)
from xctin.cli import emit_report, main
from xctin.errors import InvalidBeta, SamplerExhausted, ValidationError
from xctin.experiments import (AUDIT_BOX, BLOCK_ROWS, SAMPLER_BLOCK_ROWS,
                               SAMPLER_EXHAUSTION_WINDOW, SANDWICH_GDOF_TOL,
                               SANDWICH_RATE_TOL_BITS, SANDWICH_RHO_RANGE,
                               SWEEP_GRID_SLACK, SWEEP_MAX_AXIS_POINTS, SWEEP_RANGE_MAX,
                               Coded, ConvergenceRow, GapReport,
                               SandwichReport, SweepRecord, Table, convergence_failure,
                               gap_audit, gap_audit_failure, gap_audit_with_rows,
                               gdof_convergence_probe, sample_in_regime,
                               sandwich_audit, sandwich_audit_failure,
                               sandwich_audit_with_rows, sweep_audit_failure,
                               sweep_regime_plane)
from xctin.kernels import first_extremum, libm_log2, libm_pow
from xctin.regime import AuxChannelPair, check_tol, classify, in_extended_regime

FIG_POINT = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))


# ---------------------------------------------------------------- sweep

def test_sweep_coarse_grid_geometry():
    records = sweep_regime_plane(0.75, 0.25, 0.75)
    assert len(records) == 16
    extended = {(r.alpha21, r.alpha12) for r in records if r.in_extended}
    want = ({(a21, a12) for a21 in (0.0, 0.25, 0.5) for a12 in (0.0, 0.25)}
            | {(a21, a12) for a21 in (0.0, 0.25) for a12 in (0.0, 0.25, 0.5)})
    assert extended == want
    assert len(extended) == 8
    gsj = {(r.alpha21, r.alpha12) for r in records if r.in_gsj}
    assert gsj == {(a21, a12) for a21 in (0.0, 0.25) for a12 in (0.0, 0.25)}


def test_sweep_contains_fig_point_record():
    records = sweep_regime_plane(0.75, 0.1, 0.75)
    by_coord = {(round(r.alpha21, 10), round(r.alpha12, 10)): r for r in records}
    rec = by_coord[(0.4, 0.2)]
    assert rec.in_extended and not rec.in_gsj
    assert rec.d_tt == pytest.approx(1.4, rel=1e-12)
    assert rec.gdof_ub == pytest.approx(1.4, rel=1e-12)
    assert rec.witness == "12312"


def test_sweep_row_major_order_and_determinism():
    a = sweep_regime_plane(0.6, 0.25, 0.75)
    b = sweep_regime_plane(0.6, 0.25, 0.75)
    assert a == b
    coords = [(r.alpha21, r.alpha12) for r in a]
    assert coords == sorted(coords)


def test_sweep_records_satisfy_invariants():
    for rec in sweep_regime_plane(0.9, 0.05, 0.75):
        assert not (rec.in_gsj and not rec.in_extended)
        if rec.in_extended:
            assert abs(rec.d_tt - rec.gdof_ub) <= 1e-12
            assert rec.witness is not None
        else:
            assert rec.witness is None


def test_sweep_beta_half_coincidence():
    for rec in sweep_regime_plane(0.5, 0.05, 0.75):
        assert rec.in_extended == rec.in_gsj


# Every beta in [0.5, 0.995] that lies on the step-0.005 grid, as parsed
# from its decimal form.
ALIGNED_BETAS = [float(f"{0.5 + 0.005 * k:.3f}") for k in range(100)]


def test_sweep_boundary_lines_match_geometry_at_aligned_betas():
    # 1 - beta sits on grid line k_beta, and k*step rounds past it for 11 of
    # these betas; the sweep's grid slack must keep those lines in the regime.
    step = 0.005
    for k, beta in enumerate(ALIGNED_BETAS):
        k_beta = 100 - k
        for line in (k_beta, k_beta + 1, 100, 101):
            for other in (0, k_beta, k_beta + 1, 100, 101, 150):
                for k21, k12 in ((line, other), (other, line)):
                    v = classify(AlphaMatrix(((1.0, k12 * step, beta), (k21 * step, 1.0, beta))),
                                 tol=SWEEP_GRID_SLACK)
                    ext = (k21 <= 100 and k12 <= k_beta) or (k21 <= k_beta and k12 <= 100)
                    gsj = k21 <= k_beta and k12 <= k_beta
                    assert (v.in_extended, v.in_gsj) == (ext, gsj), (beta, k21, k12)


def test_sweep_at_misrounded_beta_passes_geometry_audit():
    records = sweep_regime_plane(0.525, 0.005)  # 95*0.005 > 1 - 0.525 in doubles
    assert sweep_audit_failure(records, 0.525, 0.005, 0.0) is None
    assert sum(r.in_gsj for r in records) == 96 ** 2
    assert sum(r.in_extended for r in records) == 2 * 101 * 96 - 96 ** 2


@pytest.mark.parametrize("offset", [-3e-11, -3e-12, -5e-13, 5e-13, 3e-12, 3e-11])
def test_sweep_geometry_audit_agrees_near_grid_lines(offset):
    # 1 - beta just off a grid line, inside and outside the grid slack: the
    # classification and the audit must put the line on the same side.
    for k in range(10):
        beta = float(f"{0.5 + 0.05 * k:.2f}") + offset
        if 0.5 <= beta < 1.0:
            records = sweep_regime_plane(beta, 0.05)
            assert sweep_audit_failure(records, beta, 0.05, 0.0) is None, beta


def test_sweep_geometry_audit_detects_a_moved_boundary():
    records = sweep_regime_plane(0.75, 0.05)
    assert sweep_audit_failure(records, 0.75, 0.05, 0.0) is None
    assert sweep_audit_failure(records, 0.7, 0.05, 0.0) is not None


def test_sweep_audit_checks_inclusion_and_gdof_equality():
    records = sweep_regime_plane(0.75, 0.25)
    assert sweep_audit_failure(records, 0.75, 0.25, 0.0) is None
    outside = next(i for i, r in enumerate(records) if not r.in_extended)
    inside = next(i for i, r in enumerate(records) if r.in_extended)
    for idx, change, failure in (
            (outside, dict(in_gsj=True), "regime inclusion violated at (0, 0.75)"),
            (inside, dict(gdof_ub=records[inside].d_tt + 1e-11),
             "GDoF equality violated at (0, 0): d_tt 2.0, gdof_ub 2.00000000001")):
        broken = list(records)
        broken[idx] = records[idx]._replace(**change)
        broken = Table(records.names, [Coded(col, np.arange(len(broken)))
                                       for col in zip(*broken)], SweepRecord)
        assert sweep_audit_failure(broken, 0.75, 0.25, 0.0) == failure
        # Tolerance > 0 skips only the geometry, never these two checks.
        assert sweep_audit_failure(broken, 0.75, 0.25, 1e-6) == failure


def test_sweep_columns_match_scalar_gdof_on_a_289_point_plane():
    # The sweep's broadcast folds against the scalar API on every point of a
    # 17 x 17 plane, point by point.
    records = sweep_regime_plane(0.6, 0.045)
    assert len(records) == 17 ** 2
    for r in records:
        alpha = AlphaMatrix(((1.0, r.alpha12, 0.6), (r.alpha21, 1.0, 0.6)))
        assert (r.d_tt, r.gdof_ub) == (tdma_tin_gdof(alpha).value, gdof_ub(alpha).value)


def _signed(values):
    """Each value with its sign, so that 0.0 and -0.0 compare unequal."""
    return [(v, math.copysign(1.0, v)) for v in values]


@settings(max_examples=40, deadline=None)
@given(beta=st.one_of(st.sampled_from([0.5, 0.65, 0.7725, 1.0 - 2.0 ** -53]),
                      st.integers(0, 99).map(lambda k: 1.0 - 0.005 * (k + 0.5))),
       step=st.sampled_from([0.75, 0.05, 0.005]),  # 2, 16 and 151 points per axis
       tol=st.sampled_from([0.0, 0.004, 0.01]))
@example(beta=0.65, step=0.05, tol=0.0)  # a grid line that misses 1 - beta by rounding
@example(beta=1.0 - 2.0 ** -53, step=0.005, tol=0.004)
def test_sweep_broadcast_matches_the_block_kernels_on_grid_rows(beta, step, tol):
    # The regime columns are checked against the scalar classify below and
    # against the profile reductions in test_sweep_folds_match_the_profile_reductions.
    table = sweep_regime_plane(beta, step, tol=tol)
    a21, a12, _, _, d_tt, d_ub, _ = table.columns
    grids = experiments._family_grids(np.array(a21), np.array(a12), beta)
    assert _signed(a21) == _signed(grids[:, 3].tolist())
    assert _signed(a12) == _signed(grids[:, 1].tolist())
    assert _signed(d_tt) == _signed(
        first_extremum(kernels.tdma_tin_gdof_profiles(grids), lowest=False).tolist())
    assert _signed(d_ub) == _signed(
        first_extremum(kernels.gdof_ub_profiles(grids), lowest=True).tolist())


def _profile_reduction(axis, beta, tol):
    """d_tt, gdof_ub and the first extended and reference witnesses (-1 for
    none) of the sweep plane over axis, the reference for the sweep's running
    folds: filled (side, side, k) profiles of every pairing and ordering,
    reduced row by row."""
    side = len(axis)
    grid = (1.0, axis[None, :], beta, axis[:, None], 1.0, beta)
    d_tt = np.empty((side, side, len(achievability.IC_CONFIGS)))
    for k, cfg in enumerate(achievability.IC_CONFIGS):
        d_tt[..., k] = achievability._tin_gdof_links(cfg.take(grid), kernels.EXACT)
    d_ub = np.empty((side, side, len(bounds.PERMUTATIONS)))
    ext, gsj = np.empty((2, side, side, len(bounds.PERMUTATIONS)), dtype=bool)
    for k, p in enumerate(bounds.PERMUTATIONS):
        links = p.take(grid)
        d_ub[..., k] = bounds._gdof_links(links, kernels.EXACT)
        ext[..., k], gsj[..., k] = regime._witness_links(links, tol + SWEEP_GRID_SLACK,
                                                         kernels.EXACT)
    rows = side * side

    def first_true(ok):
        """Column of each row's first True, or -1 where the row has none."""
        ok = ok.reshape(rows, -1)
        k = ok.argmax(axis=1)
        return np.where(ok[np.arange(rows), k], k, -1)

    return (first_extremum(d_tt.reshape(rows, -1), lowest=False),
            first_extremum(d_ub.reshape(rows, -1), lowest=True), first_true(ext), first_true(gsj))


@settings(max_examples=60, deadline=None)
@given(beta=st.one_of(st.floats(0.5, 1.0, exclude_max=True), st.just(0.75000000003)),
       points=st.integers(2, 200),
       tol=st.one_of(st.just(0.0), st.floats(0.0, 0.01), st.sampled_from([0.5, 1.0])))
@example(beta=0.75000000003, points=16, tol=0.0)
# At tol 1 several orderings are witnesses at each point, so a witness fold
# that does not keep the least index fails; up to tol 0.3 the family's first
# witnesses are only ordering 0 and its partner 5.
@example(beta=0.6725, points=16, tol=1.0)
def test_sweep_folds_match_the_profile_reductions(beta, points, tol):
    table = sweep_regime_plane(beta, SWEEP_RANGE_MAX / (points - 1), tol=tol)
    _, a12, ext, gsj, d_tt, d_ub, witness = table.columns
    side = math.isqrt(len(table))
    want_tt, want_ub, want_ext, want_gsj = _profile_reduction(np.array(a12[:side]), beta, tol)
    assert (np.array(d_tt).view(np.int64) == want_tt.view(np.int64)).all()
    assert (np.array(d_ub).view(np.int64) == want_ub.view(np.int64)).all()
    assert (ext, gsj) == ((want_ext >= 0).tolist(), (want_gsj >= 0).tolist())
    assert witness == [experiments._WITNESS_LABELS[k] for k in want_ext.tolist()]


def test_sweep_partner_tables_are_the_1_2_relabelling():
    # Swapping Tx 1 <-> 2 and Rx 1 <-> 2 puts entry (swap j, swap i) of a
    # grid at (j, i): row-major positions 4, 3, 5, 1, 0, 2.
    flat = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    swapped = tuple(flat[x] for x in (4, 3, 5, 1, 0, 2))
    perms, configs = bounds.PERMUTATIONS, achievability.IC_CONFIGS
    orderings, pairings = experiments._SWEEP_ORDERINGS, experiments._SWEEP_PAIRINGS
    assert sorted(k for pair in orderings for k in pair) == list(range(len(perms)))
    for k, m in orderings:
        assert perms[k].take(swapped) == perms[m].take(flat)
        assert perms[m].take(swapped) == perms[k].take(flat)
    # A relabelled pairing serves the same links with the receivers' roles
    # swapped: its partner's take, rotated by two.
    takes = [cfg.take(flat) for cfg in configs]
    rotated = [cfg.take(swapped)[2:] + cfg.take(swapped)[:2] for cfg in configs]
    orbits = {frozenset((k, takes.index(t))) for k, t in enumerate(rotated)}
    assert len(pairings) == len(orbits)
    assert {frozenset(pair) for pair in pairings} == orbits
    assert all(k <= m for k, m in pairings)
    # Each partner's plane is the evaluated plane transposed, bit for bit.
    axis = np.arange(16) * 0.05
    grid = (1.0, axis[None, :], 0.7725, axis[:, None], 1.0, 0.7725)
    tol = 0.004 + SWEEP_GRID_SLACK

    def planes(p):
        links = p.take(grid)
        return (bounds._gdof_links(links, kernels.EXACT).view(np.int64),
                *regime._witness_links(links, tol, kernels.EXACT))

    for k, m in orderings:
        for mine, partner in zip(planes(perms[k]), planes(perms[m])):
            assert (partner == mine.T).all()
    for k, m in pairings:
        mine, partner = (np.broadcast_to(achievability._tin_gdof_links(
            configs[x].take(grid), kernels.EXACT), (16, 16)).view(np.int64) for x in (k, m))
        assert (partner == mine.T).all()


@pytest.mark.parametrize("tol", [0.0, 0.01])
@pytest.mark.parametrize("beta", [0.5, 0.6, 0.65, 0.75, 0.7725, 0.95])
def test_sweep_verdicts_match_scalar_classify(beta, tol):
    records = sweep_regime_plane(beta, 0.05, tol=tol)
    assert len(records) == 16 ** 2
    for r in records:
        alpha = AlphaMatrix(((1.0, r.alpha12, beta), (r.alpha21, 1.0, beta)))
        verdict = classify(alpha, tol + SWEEP_GRID_SLACK)
        witness = verdict.witness_extended
        assert (r.in_extended, r.in_gsj, r.witness) == (
            verdict.in_extended, verdict.in_gsj, witness.label() if witness else None)


def test_sweep_on_the_largest_grid_holds_no_plane_per_ordering():
    # 1001 points per axis, so a float64 plane is 7.6 MiB. Each fold holds
    # one running plane, and the peak is that of the running planes and the
    # temporaries of one formula (32.7 MiB); a fold that kept a plane per
    # ordering would pass 40 MiB.
    step = SWEEP_RANGE_MAX / (SWEEP_MAX_AXIS_POINTS - 1)
    sweep_regime_plane(0.6725, 0.05)
    tracemalloc.start()
    try:
        table = sweep_regime_plane(0.6725, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == SWEEP_MAX_AXIS_POINTS ** 2
    assert peak <= 40 * 2**20


def test_sweep_rejects_bad_parameters():
    with pytest.raises(InvalidBeta):
        sweep_regime_plane(0.4, 0.05)
    with pytest.raises(InvalidBeta):
        sweep_regime_plane(1.0, 0.05)
    with pytest.raises(ValidationError):
        sweep_regime_plane(0.75, 0.0)
    with pytest.raises(ValidationError):
        sweep_regime_plane(0.75, 0.8)  # a step above SWEEP_RANGE_MAX
    with pytest.raises(ValidationError):  # 1002 points per axis, above the cap
        sweep_regime_plane(0.75, 0.75 / 1001)
    with pytest.raises(ValidationError):
        sweep_regime_plane(0.75, 5e-324)
    for tol in (math.nan, -1.0, math.inf):
        # Each used to return a table whose audit then failed at (0, 0) or
        # (0, 0.75), as if the regime geometry were wrong.
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            sweep_regime_plane(0.75, 0.25, tol=tol)


@pytest.mark.parametrize("divisor", [1.0, 3.0, 999.0])
def test_sweep_refuses_a_range_above_the_exponent_cap(divisor):
    # At step max/3 numpy's multiply overflowed building the axis, and at
    # max/999 the plane held infinities that overflowed in the formulas; the
    # suite's error::RuntimeWarning fails on either warning.
    top = sys.float_info.max
    with pytest.raises(ValidationError, match=re.escape(
            f"range_max must be at most the exponent cap 4, got {top!r}")):
        sweep_regime_plane(0.75, top / divisor, top)


def test_sweep_takes_a_range_up_to_the_exponent_cap():
    assert len(sweep_regime_plane(0.75, 0.5, DEFAULT_ALPHA_CAP)) == 9 ** 2
    with pytest.raises(ValidationError, match="range_max must be at most the exponent cap"):
        sweep_regime_plane(0.75, 0.5, math.nextafter(DEFAULT_ALPHA_CAP, math.inf))


# ---------------------------------------------------------------- sampling

def test_sample_in_regime_is_in_regime_and_deterministic():
    rng = np.random.Generator(np.random.Philox(3))
    samples = sample_in_regime(50, rng)
    assert len(samples) == 50
    assert all(in_extended_regime(a) is not None for a in samples)
    rng2 = np.random.Generator(np.random.Philox(3))
    assert sample_in_regime(50, rng2) == samples


def _box_map(box):
    """The map from uniform draws u on [0, 1) to grids with entries
    hi - (hi - lo)*u on (lo, hi], as the audits map them on AUDIT_BOX."""
    lo, hi = box
    return lambda u: hi - (hi - lo) * u


def _block_sample(n, rng, box, window):
    """The block sampler's grids drawn on box with the exhaustion window
    set to window, as AlphaMatrix objects."""
    with mock.patch.object(experiments, "SAMPLER_EXHAUSTION_WINDOW", window):
        grids = experiments._sample_blocks(n, rng, 6, _box_map(box))
    return [AlphaMatrix((row[:3], row[3:])) for row in grids.tolist()]


def test_the_sampler_tests_only_the_extended_regime(monkeypatch):
    # The rejection sampler reads only the extended verdict, so neither the
    # gap audit nor sample_in_regime takes the two-witness path (the
    # reference regime's test, as in classify): each sampler block tests its
    # draws in one extended-only call.
    witness_links, bind = regime._witness_links, inspect.signature(regime._witness_links).bind
    calls = {True: 0, False: 0}

    def counted(*args, **kwargs):
        calls[bind(*args, **kwargs).arguments.get("reference", True)] += 1
        return witness_links(*args, **kwargs)

    for module in (regime, kernels, experiments):
        monkeypatch.setattr(module, "_witness_links", counted)
    gap_audit_with_rows(300, (1e2, 1e4), seed=3)
    gap_audit_with_rows(50, (1e2,), seed=3, beta_free=False)
    sample_in_regime(2000, np.random.Generator(np.random.Philox(3)))
    assert calls[True] == 0
    assert calls[False] >= 3  # at least one block per sampler run


def test_sample_in_regime_exhaustion_guard():
    rng = np.random.Generator(np.random.Philox(3))
    # entries confined near 2: the regime conditions can never fire
    with pytest.raises(SamplerExhausted):
        _block_sample(5, rng, (1.9, 2.0), 2000)


def _draw_alpha(rng, box):
    """One exponent grid with entries uniform on (lo, hi], drawn row-major."""
    lo, hi = box
    v = hi - (hi - lo) * rng.random(6)
    return AlphaMatrix(((v[0], v[1], v[2]), (v[3], v[4], v[5])))


def _draw_symmetric(rng):
    """One grid of the symmetric sweep family; draw order beta, a21, a12."""
    b = 0.5 + 0.5 * rng.random()
    a21 = 0.75 * rng.random()
    a12 = 0.75 * rng.random()
    return AlphaMatrix(((1.0, a12, b), (a21, 1.0, b)))


def _scalar_sample(n, draw, exhaustion_window=SAMPLER_EXHAUSTION_WINDOW):
    """The rejection sampler one draw and one in_extended_regime call at a
    time: the reference the block sampler must reproduce."""
    out = []
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


def _outcome(sample, seed):
    """(samples or the SamplerExhausted message, the next draw after it)
    of sample(rng) on a fresh generator."""
    rng = np.random.Generator(np.random.Philox(seed))
    try:
        result = sample(rng)
    except SamplerExhausted as exc:
        result = str(exc)
    return result, rng.random()


def _box_outcomes(n, seed, box, window):
    return (_outcome(lambda rng: _block_sample(n, rng, box, window), seed),
            _outcome(lambda rng: _scalar_sample(n, lambda: _draw_alpha(rng, box), window), seed))


def _symmetric_outcomes(n, seed):
    def block_sample(rng):
        grids = experiments._sample_blocks(n, rng, 3, experiments._symmetric_grids)
        assert grids.shape == (n, 6)
        return [AlphaMatrix((row[:3], row[3:])) for row in grids.tolist()]

    return (_outcome(block_sample, seed),
            _outcome(lambda rng: _scalar_sample(n, lambda: _draw_symmetric(rng)), seed))


@pytest.mark.parametrize("n", [1, SAMPLER_BLOCK_ROWS - 1, SAMPLER_BLOCK_ROWS,
                               SAMPLER_BLOCK_ROWS + 1, 10_000])
def test_block_sampler_matches_scalar_loop(n):
    # Equal samples, and the caller's generator left at the same draw.
    block = _outcome(lambda rng: sample_in_regime(n, rng), 7)
    scalar = _outcome(lambda rng: _scalar_sample(n, lambda: _draw_alpha(rng, AUDIT_BOX)), 7)
    assert len(block[0]) == n
    assert block == scalar
    block, scalar = _symmetric_outcomes(n, seed=7)
    assert len(block[0]) == n
    assert block == scalar


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600),
       lo=st.floats(0.0, 2.0, exclude_max=True), width=st.floats(0.0, 1.0, exclude_min=True),
       window=st.integers(1, 3000))
def test_block_sampler_matches_scalar_loop_on_any_box(seed, n, lo, width, window):
    box = (lo, lo + (2.0 - lo) * width)
    if box[1] > box[0]:
        block, scalar = _box_outcomes(n, seed, box, window)
        assert block == scalar


@pytest.mark.parametrize("box,seed,window,acceptance", [
    ((1.9, 2.0), 3, 1, "0/1"),
    ((1.9, 2.0), 3, 2000, "0/2000"),
    # A few accepted draws, then exhaustion in a later block.
    ((0.75, 2.0), 2, 1000, "2/2001"),
    ((0.75, 2.0), 2, 5000, "5/5001"),
    ((0.5, 1.5), 3, 5000, "6/6001"),
])
def test_block_sampler_exhausts_at_the_scalar_trial(box, seed, window, acceptance):
    block, scalar = _box_outcomes(400, seed, box, window)
    assert block == scalar
    assert block[0] == (f"acceptance {acceptance} is below 0.1%; "
                        "the draws barely intersect the extended regime")


BAD_COUNTS = [
    pytest.param(0, "n must be an integer >= 1, got 0", id="0"),
    pytest.param(-1, "n must be an integer >= 1, got -1", id="-1"),
    pytest.param(2.5, "n must be an integer, got float", id="2.5"),
    pytest.param(math.inf, "n must be an integer, got float", id="inf"),
    pytest.param(math.nan, "n must be an integer, got float", id="nan"),
    pytest.param("3", "n must be an integer, got a string", id="3"),
]


@pytest.mark.parametrize("n, message", BAD_COUNTS)
def test_sample_counts_must_be_integers_of_at_least_one(n, message):
    # 2.5 used to give 176 samples, inf never returned from the gap audit,
    # and the sandwich audit raised TypeError on 2.5.
    for call in (lambda: sample_in_regime(n, np.random.Generator(np.random.Philox(1))),
                 lambda: gap_audit(n, (100.0,), seed=1),
                 lambda: gap_audit(n, (100.0,), seed=1, beta_free=False),
                 lambda: sandwich_audit(n, seed=1)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def _audit_small_sweep(beta, step, tol):
    """sweep_audit_failure of the 4x4 sweep at beta 0.75, step 0.25, with
    the given parameters."""
    return sweep_audit_failure(sweep_regime_plane(0.75, 0.25), beta, step, tol)


@pytest.mark.parametrize("call, args, kwargs, message", [
    (gap_audit, (5, (100.0,)), {"seed": 1.5}, "seed must be an integer, got float"),
    (gap_audit, (5, (100.0,)), {"seed": None}, "seed must be an integer, got null"),
    (sandwich_audit, (5,), {"seed": "3"}, "seed must be an integer, got a string"),
    (sandwich_audit, (5,), {"seed": -1}, "seed must be >= 0, got -1"),
    (sandwich_audit, (5,), {"rho_list": 100.0}, "every rho must satisfy"),
    (sandwich_audit, (True,), {"seed": 1}, "n must be an integer, got a boolean"),
    (gap_audit, (5, (100.0,)), {"seed": True}, "seed must be an integer, got a boolean"),
    # A long list shows its length and first entries, not all 100000.
    (sandwich_audit, (5,), {"rho_list": [0.5] * 100_000},
     "got 100000 entries from (0.5, 0.5, 0.5)"),
    (rhos_from_db, ([[0.5] * 100_000],), {}, "rho_db must be a number, got an array"),
    (gap_audit, (5, (100.0, "x")), {"seed": 1}, "rho_list[1] must be a number, got a string"),
    (gap_audit, (5, (100.0, 10**400)), {"seed": 1},
     "rho_list[1] is too large for a float: 401 digits"),
    (gdof_convergence_probe, (FIG_POINT, None), {}, "every rho must satisfy"),
    (sweep_regime_plane, ("x", 0.05), {}, "beta must be a number, got a string"),
    (sweep_regime_plane, (None, 0.05), {}, "beta must be a number, got null"),
    (sweep_regime_plane, (0.75, "x"), {}, "step must be a number, got a string"),
    (sweep_regime_plane, (0.75, None), {}, "step must be a number, got null"),
    (sweep_regime_plane, (0.75, 0.05, "x"), {}, "range_max must be a number, got a string"),
    (sweep_regime_plane, (0.75, 0.05, None), {}, "range_max must be a number, got null"),
    (sweep_regime_plane, (0.75, 0.05, math.nan), {}, "range_max must be finite and > 0, got nan"),
    (sweep_regime_plane, (0.75, 0.05, math.inf), {}, "range_max must be finite and > 0, got inf"),
    (sweep_regime_plane, (0.75, 0.05, -1), {}, "range_max must be finite and > 0, got -1"),
    (sweep_regime_plane, (0.75, 0.05), {"tol": None}, "tol must be a number, got null"),
    (sweep_regime_plane, (0.75, 0.0), {}, "step must be finite and > 0, got 0.0"),
    (sweep_regime_plane, (0.75, 1.0), {}, "step must satisfy 0 < step <= range_max, got 1.0"),
    # The sweep's audit checks beta, step and tol as the sweep does; it
    # used to raise TypeError on tol None or 'x', ZeroDivisionError on
    # step 0, to run its geometry check at tol nan and to take '0.25'.
    (_audit_small_sweep, (0.75, 0.25, None), {}, "tol must be a number, got null"),
    (_audit_small_sweep, (0.75, 0.25, "x"), {}, "tol must be a number, got a string"),
    (_audit_small_sweep, (0.75, 0.25, math.nan), {}, "tol must be finite and >= 0, got nan"),
    (_audit_small_sweep, (0.75, 0.0, 0.0), {}, "step must be finite and > 0, got 0.0"),
    (_audit_small_sweep, (0.75, math.inf, 0.0), {}, "step must be finite and > 0, got inf"),
    (_audit_small_sweep, (0.75, "0.25", 0.0), {}, "step must be a number, got a string"),
    (_audit_small_sweep, ("0.75", 0.25, 0.0), {}, "beta must be a number, got a string"),
    (_audit_small_sweep, (1.5, 0.25, 0.0), {}, "beta must satisfy 0.5 <= beta < 1, got 1.5"),
    (sample_in_regime, (5, 3), {}, "rng must be a numpy.random.Generator, got 3"),
    (sample_in_regime, (5, None), {}, "rng must be a numpy.random.Generator, got None"),
    (gdof_convergence_probe, (None, (10.0, 100.0)), {}, "alpha must be a 2x3 grid"),
    (gdof_convergence_probe, (((1, 1), (1, 1)), (10.0,)), {}, "alpha must be a 2x3 grid"),
    (rho_from_db, (None,), {}, "rho_db must be a number, got null"),
    (rho_from_db, ("abc",), {}, "rho_db must be a number, got a string"),
    (effective_inr, (10.0, "x"), {}, "alpha must be a number, got a string"),
    (effective_inr, (10.0, None), {}, "alpha must be a number, got null"),
    (genie_params_from_gains, ([[1, 1], [1, 1]], PERMUTATIONS[0], 10.0), {},
     "gains must be a 2x3 grid"),
], ids=lambda v: v.__name__ if callable(v) else repr(v)[:40])
def test_malformed_library_inputs_raise_validation_error(call, args, kwargs, message):
    # Each used to raise numpy's TypeError, a comparison TypeError, a plain
    # ValueError, TypeError for a rho list that is not iterable, a dB value
    # or an exponent that is no number, IndexError for a gain grid of the
    # wrong shape, or AttributeError for an rng or an alpha of the wrong
    # type; a bad range_max named the step. True was taken as n = 1 or seed
    # 1, and the long lists were echoed whole.
    with pytest.raises(ValidationError, match=re.escape(message)) as excinfo:
        call(*args, **kwargs)
    assert len(str(excinfo.value)) < 200


# Every entry point that takes a number from its caller, with the field its
# messages name: call(x) passes x in that field.
NUMBER_TAKERS = [
    pytest.param("rho_db", rho_from_db, id="rho_from_db"),
    pytest.param("rho", check_rho, id="check_rho"),
    pytest.param("rho_list[0]", lambda x: check_rhos([x]), id="check_rhos"),
    pytest.param("alpha", lambda x: effective_inr(10.0, x), id="effective_inr"),
    pytest.param("tol", check_tol, id="check_tol"),
    pytest.param("beta", lambda x: sweep_regime_plane(x, 0.5, 1.0), id="sweep-beta"),
    pytest.param("step", lambda x: sweep_regime_plane(0.75, x, 1.0), id="sweep-step"),
    pytest.param("range_max", lambda x: sweep_regime_plane(0.75, 0.5, x), id="sweep-range_max"),
    pytest.param("rho_db", lambda x: scenario_from_dict({"rho_db": x, "alpha": [[1] * 3] * 2}),
                 id="scenario-rho_db"),
    pytest.param("alpha[2][3]",
                 lambda x: scenario_from_dict({"rho_db": 20, "alpha": [[1] * 3, [1, 1, x]]}),
                 id="scenario-alpha"),
    pytest.param("gains[1][2] imaginary part", lambda x: scenario_from_dict(
        {"rho_db": 20, "gains": [[[1, 0], [1, x], [1, 0]], [[1, 0]] * 3]}), id="scenario-gain"),
    pytest.param("alpha[1][2]", lambda x: AlphaMatrix([[1, x, 1], [1] * 3]), id="AlphaMatrix"),
    pytest.param("gains[2][1]", lambda x: check_gains([[1] * 3, [x, 1, 1]]), id="check_gains"),
    pytest.param("gain", lambda x: alpha_from_gain(x, 100.0), id="alpha_from_gain"),
    pytest.param("h3_sq", lambda x: AuxChannelPair(1.0, 1.0, x, 1.0, 10.0), id="AuxChannelPair"),
    pytest.param("rho", lambda x: AuxChannelPair(1.0, 1.0, 1.0, 1.0, x), id="AuxChannelPair-rho"),
    pytest.param("c_sq", lambda x: GenieParams(x, 0, 1), id="GenieParams"),
    pytest.param("d", lambda x: GenieParams(1.0, x, 2), id="GenieParams-d"),
    pytest.param("case_id", lambda x: GenieParams(1.0, 1, x), id="GenieParams-case_id"),
]


@pytest.mark.parametrize("field, call", NUMBER_TAKERS)
@pytest.mark.parametrize("value, kind", [("20", "a string"), (b"20", "bytes"),
                                         (True, "a boolean"), (None, "null"),
                                         (np.True_, "a boolean")])
def test_every_number_taker_refuses_what_is_no_number(field, call, value, kind):
    # "20", True and np.True_ used to be converted by float(), and the two
    # records raised TypeError on "20". The genie's flag and case are
    # integers.
    noun = "an integer" if field in ("d", "case_id") else "a number"
    with pytest.raises(ValidationError, match=f"^{re.escape(field)} must be {noun}, got {kind}$"):
        call(value)


@pytest.mark.parametrize("field, call", NUMBER_TAKERS)
def test_a_numpy_complex_is_a_number_only_where_a_gain_is(field, call):
    # A numpy complex used to pass as its real part, with only numpy's
    # ComplexWarning; a gain takes it as the equal complex.
    x = np.complex128(100 + 5j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if field in ("gains[2][1]", "gain"):
            got, want = _result_or_error(call, x), _result_or_error(call, complex(x))
            assert got == want and type(got) is type(want)
        else:
            noun = "an integer" if field in ("d", "case_id") else "a number"
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(field)} must be {noun}, got complex128$"):
                call(x)


def _result_or_error(call, x):
    try:
        return call(x)
    except ValidationError as exc:
        return type(exc)


@pytest.mark.parametrize("field, call", NUMBER_TAKERS)
def test_every_number_taker_takes_numpy_scalars_and_fractions_as_floats(field, call):
    for x in (np.float32(20), np.int64(100), Fraction(1, 2)):
        got, want = _result_or_error(call, x), _result_or_error(call, float(x))
        assert got == want and type(got) is type(want), (field, x)


def _replaced(record, at, x):
    """record's type built from its fields with the field at index at set to x."""
    fields = list(record)
    fields[at] = x
    return type(record)(*fields)


# Every entry point that takes an integer, with the field its messages name,
# a value it accepts, and call(x), which passes x in that field and returns
# what the result stores of it.
INTEGER_TAKERS = [
    pytest.param("n", 2, lambda x: gap_audit(x, (100.0,), seed=1).n_samples, id="gap_audit-n"),
    pytest.param("n", 2, lambda x: sandwich_audit(x, seed=1).n_samples, id="sandwich_audit-n"),
    pytest.param("n", 2, lambda x: len(sample_in_regime(x, np.random.default_rng(1))),
                 id="sample_in_regime-n"),
    pytest.param("seed", 3, lambda x: gap_audit(2, (100.0,), seed=x).seed, id="gap_audit-seed"),
    pytest.param("seed", 3, lambda x: sandwich_audit(2, seed=x).seed, id="sandwich_audit-seed"),
    *(pytest.param(name, want, lambda x, k=k: _replaced(PERMUTATIONS[0], k, x)[k],
                   id=f"TxPermutation-{name}")
      for k, (name, want) in enumerate(zip(TxPermutation._fields, PERMUTATIONS[0]))),
    *(pytest.param(name, want, lambda x, k=k: _replaced(IC_CONFIGS[0], k, x)[k],
                   id=f"IcConfig-{name}")
      for k, (name, want) in enumerate(zip(IcConfig._fields, IC_CONFIGS[0]))),
    pytest.param("d", 1, lambda x: GenieParams(1.0, x, 2).d, id="GenieParams-d"),
    pytest.param("case_id", 2, lambda x: GenieParams(1.0, 1, x).case_id, id="GenieParams-case_id"),
]


@pytest.mark.parametrize("field, valid, call", INTEGER_TAKERS)
@pytest.mark.parametrize("value, kind", [(True, "a boolean"), (np.True_, "a boolean"),
                                         (1.0, "float"), ("1", "a string"), (None, "null")])
def test_every_integer_taker_refuses_what_is_no_integer(field, valid, call, value, kind):
    # The orderings and pairings used to take True and 1.0 (labels True2312
    # and 1.02312), and n and the seeds named the value, not its kind.
    with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {kind}$"):
        call(value)


@pytest.mark.parametrize("field, valid, call", INTEGER_TAKERS)
def test_every_integer_taker_stores_a_numpy_integer_as_an_int(field, valid, call):
    # The orderings and pairings used to keep numpy ints, which the JSON
    # writer then refused with a bare TypeError.
    assert call(valid) == valid
    for x in (np.int64(valid), np.uint8(valid)):
        got = call(x)
        assert type(got) is int and got == valid, (field, x)


def test_an_ordering_from_numpy_ints_writes_as_json():
    doc = json.loads(emit_report({"perm": TxPermutation(*map(np.int64, (1, 2, 3, 1, 2)))}, "json"))
    assert doc == {"perm": [1, 2, 3, 1, 2]}


def test_convergence_probe_takes_a_plain_grid_through_alpha_matrix():
    grid = ((1, 0.2, 0.75), (0.4, 1, 0.75))
    assert gdof_convergence_probe(grid, (10.0, 100.0)) == \
        gdof_convergence_probe(AlphaMatrix(grid), (10.0, 100.0))


def test_audit_reports_echo_the_seed_as_an_int():
    for report in (gap_audit(5, (100.0,), seed=np.int64(3)), sandwich_audit(5, seed=np.int64(3))):
        assert type(report.seed) is int and report.seed == 3


def test_sample_in_regime_rejects_bad_arguments():
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ValidationError):
        sample_in_regime(0, rng)
    with pytest.raises(TypeError):  # the box is AUDIT_BOX, not an argument
        sample_in_regime(5, rng, (2.0, 1.0))


# ---------------------------------------------------------------- gap audit

def test_gap_audit_small_run():
    report, rows = gap_audit_with_rows(40, (1e2, 1e4), seed=7)
    assert isinstance(report, GapReport)
    assert report.n_samples == 40
    assert report.rho_list == (1e2, 1e4)
    assert report.seed == 7
    assert len(rows) == 80
    assert 0.0 < report.min_gap_bits <= report.mean_gap_bits <= report.max_gap_bits
    assert report.all_within_7
    gaps = [gap for (_, _, gap, _, _) in rows]
    assert report.max_gap_bits == max(gaps)
    assert report.min_gap_bits == min(gaps)
    for (_, rho, gap, ub, rate) in rows:
        assert gap == ub - rate
        assert rho in (1e2, 1e4)


def test_gap_audit_matches_scalar_evaluation_across_blocks():
    n, rhos = BLOCK_ROWS // 3 + 1, (1e2, 1e4, 1e6)  # just over BLOCK_ROWS evaluations: two blocks
    report, rows = gap_audit_with_rows(n, rhos, seed=5)
    samples = sample_in_regime(n, np.random.Generator(np.random.Philox(5)))
    want = []
    total = 0.0
    for idx, alpha in enumerate(samples):
        for rho in rhos:
            ub = sum_capacity_ub(rho, alpha).value
            rate = tdma_tin_rate(rho, alpha).value
            want.append((idx, rho, ub - rate, ub, rate))
            total += ub - rate
    assert list(rows) == want
    gaps = [row[2] for row in want]
    assert report.mean_gap_bits == total / len(want)
    assert report.argmax_alpha == samples[gaps.index(max(gaps)) // len(rhos)]


def test_gap_audit_symmetric_family_matches_scalar_sampler():
    n, rhos = 300, (1e2, 1e5)
    _, rows = gap_audit_with_rows(n, rhos, seed=4, beta_free=False)
    rng = np.random.Generator(np.random.Philox(4))
    want = []
    for idx, alpha in enumerate(_scalar_sample(n, lambda: _draw_symmetric(rng))):
        for rho in rhos:
            ub = sum_capacity_ub(rho, alpha).value
            rate = tdma_tin_rate(rho, alpha).value
            want.append((idx, rho, ub - rate, ub, rate))
    assert list(rows) == want


@pytest.mark.parametrize("beta_free", [True, False])
def test_gap_audit_builds_one_alpha_matrix(monkeypatch, beta_free):
    # The samples stay one array; only the reported argmax becomes an
    # AlphaMatrix. Wrapped in a plain function, as the benchmark tracer does.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return AlphaMatrix(*args, **kwargs)

    monkeypatch.setattr(experiments, "AlphaMatrix", counted)
    report = gap_audit(750, (1e2, 1e4, 1e6), seed=3, beta_free=beta_free)
    assert len(calls) == 1
    assert isinstance(report.argmax_alpha, AlphaMatrix)


def _count_libm_elements(monkeypatch) -> dict:
    """Count the elements that go through libm_pow and libm_log2 in the
    audit kernels, by function: the powers the kernels and audits take
    directly, and the c^2 and logs the formulas take through kernels.EXACT."""
    counts = {libm_pow: 0, libm_log2: 0}

    def counted(f):
        def call(*args):
            out = f(*args)
            counts[f] += out.size
            return out
        return call

    for module in (kernels, experiments):
        monkeypatch.setattr(module, "libm_pow", counted(libm_pow))
    monkeypatch.setattr(kernels, "EXACT", kernels.EXACT._replace(
        power=counted(libm_pow), log2=counted(libm_log2)))
    return counts


def test_gap_audit_takes_libm_only_for_the_candidates(monkeypatch):
    # The powers rho**a are taken once per (draw, SNR) pair, 6 pow; numpy
    # screens the orderings and pairings, and libm evaluates only the
    # candidates, about one ordering (one c^2, two logs) and one pairing
    # (two logs) per pair, and at least that. Every entry of both profiles
    # through libm took 24 pow and 36 log2 per pair.
    counts = _count_libm_elements(monkeypatch)
    gap_audit_with_rows(750, (1e2, 1e4, 1e6), 5)
    pairs = 750 * 3
    assert 6 * pairs < counts[libm_pow] <= 8 * pairs
    assert 4 * pairs <= counts[libm_log2] <= 6 * pairs


def test_sandwich_audit_takes_libm_only_for_the_candidates(monkeypatch):
    # One (draw, SNR) pair per draw: its SNR draw, 6 powers rho**a and the
    # candidates' c^2 and logs, as in the gap audit.
    counts = _count_libm_elements(monkeypatch)
    n = 3 * BLOCK_ROWS + 7
    sandwich_audit_with_rows(n, seed=5)
    assert 7 * n < counts[libm_pow] <= 9 * n
    assert 4 * n <= counts[libm_log2] <= 6 * n


def test_gap_audit_deterministic():
    a = gap_audit(25, (1e2,), seed=11)
    b = gap_audit(25, (1e2,), seed=11)
    assert a == b
    c = gap_audit(25, (1e2,), seed=12)
    assert c != a


def test_gap_audit_symmetric_family_mode():
    report = gap_audit(20, (1e4,), seed=2, beta_free=False)
    assert report.all_within_7 and report.min_gap_bits > 0.0
    # the family pins the direct links and the third-transmitter cross links
    a = report.argmax_alpha
    assert a.entry(1, 1) == 1.0 and a.entry(2, 2) == 1.0
    assert a.entry(1, 3) == a.entry(2, 3)


def test_gap_audit_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        gap_audit(0, (1e2,), seed=1)
    with pytest.raises(ValidationError):
        gap_audit(5, (), seed=1)
    with pytest.raises(ValidationError):
        gap_audit(5, (0.5,), seed=1)
    with pytest.raises(ValidationError):
        gap_audit(5, (1e2,), seed=-1)


# ---------------------------------------------------------------- sandwich audit

def test_sandwich_audit_sampled_rho_mode():
    report, rows = sandwich_audit_with_rows(400, seed=1)
    assert report.max_rate_violation_bits <= 1e-9
    assert report.max_gdof_violation <= 1e-12
    assert report.rho_list is None
    assert len(rows) == 400
    for (_, rho, rate, ub, d_tt, d_ub) in rows:
        assert 10.0 <= rho <= 1e9
        assert rate <= ub + 1e-9
        assert d_tt <= d_ub + 1e-12


def test_sandwich_audit_rho_list_mode():
    report, rows = sandwich_audit_with_rows(50, rho_list=(1e2, 1e6), seed=4)
    assert report.rho_list == (1e2, 1e6)
    assert len(rows) == 100
    assert report.max_rate_violation_bits <= 1e-9


def _sandwich_reference(n, seed, rho_list=None):
    """Rows of the sandwich audit, one draw and one scalar call at a time."""
    rng = np.random.Generator(np.random.Philox(seed))
    lg_lo, lg_hi = math.log10(10.0), math.log10(1e9)
    rows = []
    for idx in range(n):
        v = 2.0 - 2.0 * rng.random(6)
        alpha = AlphaMatrix(((v[0], v[1], v[2]), (v[3], v[4], v[5])))
        rhos = rho_list if rho_list is not None else (10.0 ** rng.uniform(lg_lo, lg_hi),)
        d_tt, d_ub = tdma_tin_gdof(alpha).value, gdof_ub(alpha).value
        for rho in rhos:
            rows.append((idx, rho, tdma_tin_rate(rho, alpha).value,
                         sum_capacity_ub(rho, alpha).value, d_tt, d_ub))
    return rows


@pytest.mark.parametrize("n,rho_list", [
    # Fixed sizes, well inside one block: one draw, a full and an overfull
    # 256-row half block, and 387 evaluations over 129 draws.
    (1, None), (256, None), (257, None), (129, (1e2, 1e5, 1e9)),
    # Sizes at the block boundary, whatever BLOCK_ROWS is.
    (BLOCK_ROWS, None), (BLOCK_ROWS + 1, None),
    (BLOCK_ROWS // 2 + 1, (1e2, 1e5, 1e9)),  # 771 evaluations over 257 draws
])
def test_sandwich_audit_matches_scalar_evaluation_across_blocks(n, rho_list):
    report, rows = sandwich_audit_with_rows(n, rho_list, seed=9)
    want = _sandwich_reference(n, 9, rho_list)
    assert list(rows) == want
    assert report.max_rate_violation_bits == max(rate - ub for _, _, rate, ub, _, _ in want)
    assert report.max_gdof_violation == max(d_tt - d_ub for *_, d_tt, d_ub in want)


@pytest.mark.parametrize("rho_range", [
    (0.5, 0.9),             # below 1: was evaluated at rho < 1
    (0.0, 10.0),            # was a math domain error
    (100.0, 10.0),          # reversed: was stopped only by numpy's uniform
    (10.0, math.inf),
    (math.nan, 10.0),
])
def test_sandwich_audit_rejects_bad_rho_range(rho_range):
    # The drawn SNRs' range is the constant SANDWICH_RHO_RANGE, checked here
    # once instead of at every call: no caller can pass a bad one.
    with pytest.raises(TypeError):
        sandwich_audit(5, seed=1, rho_range=rho_range)
    lo, hi = SANDWICH_RHO_RANGE
    assert 1.0 < lo < hi <= MAX_RHO
    assert sandwich_audit(5, seed=1).rho_range == (10.0, 1e9)


@pytest.mark.parametrize("box", [(0.0, 1000.0), (0.0, math.inf), (0.0, math.nan),
                                 (1.0, DEFAULT_ALPHA_CAP + 1e-9)])
def test_audits_reject_box_above_the_exponent_cap(box):
    # (0, 1000) used to overflow in rho ** a; (0, inf) drew NaN grids and
    # passed the sandwich audit with both violations at -inf. The box is now
    # the constant AUDIT_BOX, checked here once: no caller can pass one.
    with pytest.raises(TypeError):
        sandwich_audit(5, seed=1, box=box)
    for beta_free in (True, False):
        with pytest.raises(TypeError):
            gap_audit(5, (100.0,), seed=1, beta_free=beta_free, box=box)
    lo, hi = AUDIT_BOX
    assert 0.0 <= lo < hi <= DEFAULT_ALPHA_CAP


def test_audits_reject_snr_above_the_cap():
    # Both used to end in OverflowError from libm_pow.
    cap = MAX_RHO
    above = math.nextafter(cap, math.inf)
    for call in (lambda: gap_audit(5, (1e300,), seed=1),
                 lambda: gap_audit(5, (1e2, above), seed=1),
                 lambda: sandwich_audit(5, (above,), seed=1),
                 lambda: gdof_convergence_probe(FIG_POINT, (1e2, above))):
        with pytest.raises(ValidationError, match=f"{MAX_RHO_DB:.6g} dB"):
            call()
    # At the cap itself the audits' kernels stay finite with exponents up to
    # DEFAULT_ALPHA_CAP: 200 draws on (0, 4] and the all-4 grid, each at the
    # cap and at an SNR log-uniform up to it, and 5 in-regime grids on (0, 4].
    rng = np.random.Generator(np.random.Philox(1))
    grids = np.vstack((_box_map((0.0, DEFAULT_ALPHA_CAP))(rng.random((200, 6))),
                       np.full((1, 6), DEFAULT_ALPHA_CAP)))
    rhos = np.column_stack((np.full(len(grids), cap), cap ** (1.0 - rng.random(len(grids)))))
    rate, ub = experiments._rates_and_bounds(grids, rhos)
    assert np.isfinite(rate).all() and np.isfinite(ub).all()
    assert (rate - ub).max() <= 1e-9
    grids = experiments._sample_blocks(5, rng, 6, _box_map((0.0, DEFAULT_ALPHA_CAP)))
    rate, ub = experiments._rates_and_bounds(grids, np.full((5, 1), cap))
    assert (ub - rate).max() <= 7.0


def test_sandwich_audit_keeps_a_nan_violation(monkeypatch, capsys):
    # A NaN rate in the second block must reach the report and fail the
    # audit; builtin max(-inf or any number, nan) would drop it.
    rates_and_bounds = experiments._rates_and_bounds
    calls = []

    def nan_in_second_block(grids, rhos):
        rate, ub = rates_and_bounds(grids, rhos)
        calls.append(len(rate))
        if len(calls) == 2:
            rate[3] = math.nan
        return rate, ub

    monkeypatch.setattr(experiments, "_rates_and_bounds", nan_in_second_block)
    report = sandwich_audit(BLOCK_ROWS + 5, seed=1)
    assert math.isnan(report.max_rate_violation_bits)
    assert report.max_gdof_violation <= 1e-12
    calls.clear()
    assert main(["sandwich-audit", "--n", str(BLOCK_ROWS + 5), "--seed", "1"]) == 3
    assert capsys.readouterr().err == ("audit failure: rate exceeds the bound by nan "
                                       "bits (tolerance 1e-09)\n")


def test_sandwich_audit_keeps_a_nan_gdof_violation(monkeypatch, capsys):
    # A NaN GDoF bound in the second block must reach the report and fail
    # the audit on the GDoF check.
    gdof_ub_profiles = experiments.gdof_ub_profiles
    calls = []

    def nan_in_second_block(grids):
        profiles = gdof_ub_profiles(grids)
        calls.append(len(profiles))
        if len(calls) == 2:
            profiles[3] = math.nan
        return profiles

    monkeypatch.setattr(experiments, "gdof_ub_profiles", nan_in_second_block)
    report = sandwich_audit(BLOCK_ROWS + 5, seed=1)
    assert math.isnan(report.max_gdof_violation)
    assert report.max_rate_violation_bits <= 1e-9
    calls.clear()
    assert main(["sandwich-audit", "--n", str(BLOCK_ROWS + 5), "--seed", "1"]) == 3
    assert capsys.readouterr().err == ("audit failure: TIN GDoF exceeds the GDoF bound by nan "
                                       "(tolerance 1e-12)\n")


def test_gap_audit_keeps_a_nan_gap(monkeypatch, capsys):
    # A NaN rate in the second block must reach the report and fail the
    # audit; builtin max and min over the gaps would drop it.
    rhos = (1e2, 1e4, 1e6)
    clean = gap_audit(300, rhos, seed=1)
    assert clean.all_within_7 and clean.min_gap_bits > 0.0
    tdma_tin_rate_max = experiments.tdma_tin_rate_max
    calls = []

    def nan_in_second_block(r):
        rate = tdma_tin_rate_max(r)
        calls.append(len(rate))
        if len(calls) == 2:
            rate[3] = math.nan
        return rate

    rates_and_bounds = experiments._rates_and_bounds
    drawn = []

    def keep_grids(grids, rhos):
        drawn.append(grids)
        return rates_and_bounds(grids, rhos)

    monkeypatch.setattr(experiments, "tdma_tin_rate_max", nan_in_second_block)
    monkeypatch.setattr(experiments, "_rates_and_bounds", keep_grids)
    report, rows = gap_audit_with_rows(300, rhos, seed=1)
    nan_row = BLOCK_ROWS + 3
    assert math.isnan(rows[nan_row][2])
    assert math.isnan(report.max_gap_bits) and math.isnan(report.min_gap_bits)
    assert not report.all_within_7
    # The witness is the draw of the first NaN gap.
    worst = drawn[0][nan_row // len(rhos)].tolist()
    assert report.argmax_alpha == AlphaMatrix((worst[:3], worst[3:]))
    calls.clear()
    assert main(["gap-audit", "--n", "300", "--seed", "1"]) == 3
    assert capsys.readouterr().err == "audit failure: max gap nan bits exceeds 7 bits\n"


def test_sandwich_audit_deterministic():
    assert sandwich_audit(60, seed=5) == sandwich_audit(60, seed=5)


def test_sandwich_audit_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        sandwich_audit(0, seed=1)
    with pytest.raises(ValidationError):
        sandwich_audit(5, rho_list=(1.0,), seed=1)
    with pytest.raises(ValidationError):
        sandwich_audit(5, seed=-1)


# ---------------------------------------------------------------- convergence probe

def test_convergence_probe_fig_point():
    rows = gdof_convergence_probe(FIG_POINT, (1e4, 1e6, 1e9))
    assert [r.rho for r in rows] == [1e4, 1e6, 1e9]
    for r in rows:
        corridor = 2.0 / math.log2(r.rho)
        assert abs(r.rate_norm - r.d_tt) <= corridor
        assert r.ub_norm >= r.rate_norm
        assert r.d_tt == pytest.approx(1.4, rel=1e-12)
        assert r.d_ub == pytest.approx(1.4, rel=1e-12)


def test_convergence_probe_interference_free_limit():
    alpha = AlphaMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    rows = gdof_convergence_probe(alpha, (1e6,))
    assert rows[0].d_tt == 2.0
    assert abs(rows[0].rate_norm - 2.0) <= 2.0 / math.log2(1e6)


def test_convergence_probe_requires_increasing_rhos():
    with pytest.raises(ValidationError):
        gdof_convergence_probe(FIG_POINT, (1e6, 1e4))
    with pytest.raises(ValidationError):
        gdof_convergence_probe(FIG_POINT, (1e4, 1e4))
    with pytest.raises(ValidationError):
        gdof_convergence_probe(FIG_POINT, ())


# ---------------------------------------------------------------- audit verdicts

def test_gap_verdict_at_its_edges():
    report = GapReport(n_samples=1, rho_list=(100.0,), seed=0, max_gap_bits=7.0,
                       mean_gap_bits=4.0, min_gap_bits=1.0, all_within_7=True,
                       argmax_alpha=FIG_POINT)
    assert gap_audit_failure(report) is None
    # One double past the threshold prints as itself, not as the threshold.
    assert gap_audit_failure(report._replace(max_gap_bits=math.nextafter(7.0, math.inf))) == (
        "max gap 7.000000000000001 bits exceeds 7 bits")
    assert gap_audit_failure(report._replace(min_gap_bits=0.0)) == (
        "min gap 0.0 bits is not positive")
    assert gap_audit_failure(report._replace(min_gap_bits=math.nan)) == (
        "min gap nan bits is not positive")
    assert gap_audit_failure(report._replace(max_gap_bits=math.nan, min_gap_bits=math.nan)) == (
        "max gap nan bits exceeds 7 bits")


def test_sandwich_verdict_at_its_edges():
    report = SandwichReport(n_samples=1, seed=0, rho_list=None, rho_range=SANDWICH_RHO_RANGE,
                            max_rate_violation_bits=SANDWICH_RATE_TOL_BITS,
                            max_gdof_violation=SANDWICH_GDOF_TOL)
    assert sandwich_audit_failure(report) is None
    for rate, text in ((math.nextafter(SANDWICH_RATE_TOL_BITS, math.inf),
                        "1.0000000000000003e-09"), (math.nan, "nan")):
        assert sandwich_audit_failure(report._replace(max_rate_violation_bits=rate)) == (
            f"rate exceeds the bound by {text} bits (tolerance 1e-09)")
    for gdof, text in ((math.nextafter(SANDWICH_GDOF_TOL, math.inf), "1.0000000000000002e-12"),
                       (math.nan, "nan")):
        assert sandwich_audit_failure(report._replace(max_gdof_violation=gdof)) == (
            f"TIN GDoF exceeds the GDoF bound by {text} (tolerance 1e-12)")


def test_convergence_verdict_names_the_worst_row():
    # Corridors 0.2 and 0.1: the first row is farther from d_tt, the second
    # farther outside its corridor.
    rows = [ConvergenceRow(2.0 ** 10, 1.55, 1.6, 1.0, 1.0),
            ConvergenceRow(2.0 ** 20, 1.5, 1.6, 1.0, 1.0)]
    assert convergence_failure(rows) == (
        "normalized rate is 0.5 from d_tt at rho 1048576, outside the 2/log2(rho) corridor")
    inside = [r._replace(rate_norm=1.05) for r in rows]
    assert convergence_failure(inside) is None
    crossed = [inside[0]._replace(ub_norm=0.95), inside[1]._replace(ub_norm=0.85)]
    assert convergence_failure(crossed) == (
        "normalized bound is below the normalized rate by 0.20000000000000007 at rho 1048576")
