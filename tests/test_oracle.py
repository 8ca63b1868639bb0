"""Independent references for the library's formulas.

The scalar API and the block kernels run one formula body per quantity, so
comparing them pins the two op sets but checks no formula. The references
here do: the sum-capacity bound B(p) of every ordering, the TIN sum rate of
every pairing and the gap min_p B(p) - max R are evaluated in mpmath at 50
significant digits, and the GDoF bound D(p) and every pairing's TIN GDoF in
exact rational arithmetic on the float inputs. Each reference enumerates
the orderings and pairings and states the three-case genie rule itself,
from the paper, and calls neither libm nor any xctin formula.

The float results must lie within 1e-12 relative of the 50-digit values
and within 1e-12 of the exact GDoF values. Two gates are absolute: the gap,
which cancels, within 1e-12 * B, and a rate below one bit within 1e-12
bits, since float64 log2(1 + x) of a tiny x is accurate only absolutely.
The grids are seeded draws from [0, 2]^6 and [0, 4]^6 at SNRs up to
MAX_RHO_DB, grids sitting exactly on a genie-case boundary, the audits'
worst-gap grids and the largest gaps found, off and on a genie tie. The block kernels'
profiles of the draws are checked too, and the exact GDoF bound against the
W curve of an embedded two-user interference channel.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from xctin.achievability import (IC_CONFIGS, tdma_tin_gdof, tdma_tin_gdof_config,
                                 tdma_tin_rate, tin_sum_rate)
from xctin.bounds import PERMUTATIONS, gdof_ub, sum_capacity_ub
from xctin.channel import MAX_RHO_DB, AlphaMatrix, rho_from_db
from xctin.kernels import sum_capacity_ub_profiles, tdma_tin_rate_profiles
from xctin.regime import classify

# (i1, i2, i3, j1, j2): Tx i1 and i3 are seen by the genie at Rx j1, Tx i2
# is the cross observation at Rx j2.
ORDERINGS = [(i1, i2, i3, j1, j2)
             for i1, i2, i3 in itertools.permutations((1, 2, 3))
             for j1, j2 in itertools.permutations((1, 2))]
# (i1, i2, j1, j2): Tx i1 serves Rx j1 = 1, Tx i2 serves Rx j2 = 2.
PAIRINGS = [(i1, i2, 1, 2) for i1, i2 in itertools.permutations((1, 2, 3), 2)]

REL_TOL = 1e-12
GDOF_TOL = 1e-12

# The argmax grids of acceptance criterion 4 (gap audit, 10^3 draws, seed 7)
# and of `gap-audit --n 5000` (3.5993 bits at 20 dB), as literal floats.
CRITERION_4_ARGMAX = ((0.7812076356849718, 1.7470007960419338, 1.5234054728990407),
                      (1.023288447091461, 0.20284763136981265, 0.6618008050104036))
GAP_AUDIT_5000_ARGMAX = ((1.758098451302954, 0.49239523574631106, 0.4418296037989451),
                         (1.248643330691033, 1.8208122269310074, 1.1946977808934012))
# The largest gap a hill climb over [0, 4]^6 has found, 4.19331 bits at
# 30 dB, in both regimes with witness ordering 13212 for each.
GAP_SEARCH_ARGMAX = ((1.5092198078707204, 0.16775130103948857, 0.16775430309619654),
                     (1.3414434228109378, 1.3413897701987758, 1.5092039626187084))
# The largest gap found, 4.20420 bits at 400 dB, on the genie tie a21 = a22
# where the paper's rule takes case 1; in both regimes with witness 13212.
GAP_TIE_ARGMAX = ((3.9102953, 3.9, 3.9), (0.0102953, 0.0102953, 3.9102953))


def test_references_enumerate_the_library_orderings_and_pairings():
    assert sorted(ORDERINGS) == sorted(tuple(p) for p in PERMUTATIONS)
    assert len(set(ORDERINGS)) == 12
    assert sorted(PAIRINGS) == sorted(tuple(cfg) for cfg in IC_CONFIGS)


# --------------------------------------------------------- 50-digit reference

def oracle_bound(rho, a, p):
    """B(p) in bits at 50 digits; a[j][i] are the exponents as mpf."""
    i1, i2, i3, j1, j2 = p
    r = {(j, i): rho ** a[j][i] for j in (1, 2) for i in (1, 2, 3)}
    # Genie rule: case 1 when the third cross link is weak; otherwise mix in
    # Tx i3 (d = 1) and scale at i1 while rho |h[j2][i1]|^4 / |h[j1][i1]|^2
    # <= |h[j2][i3]|^2 / |h[j1][i3]|^2 (case 2), else at i3 (case 3).
    if a[j2][i3] <= a[j2][i1]:
        c_sq, d = rho ** (a[j2][i1] - a[j1][i1]), 0
    elif 2 * a[j2][i1] - a[j1][i1] <= a[j2][i3] - a[j1][i3]:
        c_sq, d = rho ** (a[j2][i1] - a[j1][i1]), 1
    else:
        c_sq, d = rho ** (a[j2][i3] - a[j2][i1] - a[j1][i3]), 1
    genie = r[j1, i1] + d * r[j1, i3]
    first = 1 + r[j1, i2] + (1 - d) * r[j1, i3] + genie / (1 + c_sq * genie)
    second = 1 + r[j2, i1] + r[j2, i3] + r[j2, i2] / (1 + r[j1, i2])
    return mp.log(first, 2) + mp.log(second, 2) + 1


def oracle_rate(rho, a, cfg):
    """TIN sum rate in bits of one pairing at 50 digits; log1p keeps a
    receiver's rate accurate when its interference swamps its signal."""
    i1, i2, j1, j2 = cfg
    return (mp.log1p(rho ** a[j1][i1] / (1 + rho ** a[j1][i2]))
            + mp.log1p(rho ** a[j2][i2] / (1 + rho ** a[j2][i1]))) / mp.ln2


def _mp_grid(rows):
    return {j: {i: mpf(rows[j - 1][i - 1]) for i in (1, 2, 3)} for j in (1, 2)}


def _close(value, ref, floor=0):
    """value within REL_TOL of ref, relative to max(|ref|, floor)."""
    return abs(mpf(value) - ref) <= REL_TOL * max(abs(ref), floor)


def check_against_oracle(rho: float, rows, profiles=None):
    """Every B(p), every pairing's rate and the gap of the scalar API at one
    grid and SNR, and, when given, the block kernels' (B, rate) profile rows,
    against the 50-digit values."""
    alpha = AlphaMatrix(rows)
    with mp.workdps(50):
        rho_mp, a = mpf(rho), _mp_grid(rows)
        bound = {p: oracle_bound(rho_mp, a, p) for p in ORDERINGS}
        rate = {cfg: oracle_rate(rho_mp, a, cfg) for cfg in PAIRINGS}
        ub = sum_capacity_ub(rho, alpha)
        for p, value in ub.per_perm:
            assert _close(value, bound[tuple(p)]), (rho, rows, p)
        for cfg in IC_CONFIGS:
            assert _close(tin_sum_rate(rho, alpha, cfg), rate[tuple(cfg)], 1), (rho, rows, cfg)
        if profiles is not None:
            ub_row, rate_row = profiles
            assert all(_close(v, bound[tuple(p)]) for p, v in zip(PERMUTATIONS, ub_row))
            assert all(_close(v, rate[tuple(c)], 1) for c, v in zip(IC_CONFIGS, rate_row))
        best = min(bound.values())
        gap = best - max(rate.values())
        assert abs(mpf(ub.value - tdma_tin_rate(rho, alpha).value) - gap) <= REL_TOL * best
        return float(gap)


def _draw_rhos(rng, n):
    """n SNRs uniform in dB on (0, MAX_RHO_DB], the last at MAX_RHO_DB."""
    db = rng.uniform(0.0, MAX_RHO_DB, n)
    db[-1] = MAX_RHO_DB
    return np.array([rho_from_db(x) for x in db.tolist()])


@pytest.mark.parametrize("box", [2.0, 4.0])
def test_bound_and_rates_match_the_50_digit_oracle_on_seeded_draws(box):
    rng = np.random.default_rng(11 if box == 2.0 else 12)
    a = box * rng.random((150, 6))
    rho = _draw_rhos(rng, len(a))
    profiles = zip(sum_capacity_ub_profiles(a, rho), tdma_tin_rate_profiles(a, rho))
    for row, r, prof in zip(a.tolist(), rho.tolist(), profiles):
        check_against_oracle(r, (row[:3], row[3:]), prof)


def test_bound_matches_the_50_digit_oracle_on_genie_case_boundaries():
    """Grids on multiples of 1/8 with v3 == v1 (case 1/2) or
    v1 - u1 == v3 - u3 - v1 (case 2/3) for one ordering, so both sides of
    each comparison are exact."""
    rng = np.random.default_rng(13)
    for k, rho in enumerate(_draw_rhos(rng, 96).tolist()):
        g = (rng.integers(0, 17, 6) / 8).tolist()
        u1, _, u3, v1, _, v3 = PERMUTATIONS[k % 12].take(range(6))
        tie = g[u3] + 2 * g[v1] - g[u1]
        g[v3] = tie if k % 24 >= 12 and 0.0 <= tie <= 4.0 else g[v1]
        check_against_oracle(rho, (g[:3], g[3:]))


@pytest.mark.parametrize("rows", [CRITERION_4_ARGMAX, GAP_AUDIT_5000_ARGMAX, GAP_SEARCH_ARGMAX,
                                  GAP_TIE_ARGMAX],
                         ids=["criterion-4", "gap-audit-5000", "gap-search", "gap-tie"])
def test_bound_and_rates_match_the_50_digit_oracle_at_the_audit_argmaxes(rows):
    gaps = [check_against_oracle(rho, rows) for rho in (1e2, 1e4, 1e6)]
    assert 0.0 < min(gaps) and max(gaps) <= 7.0
    if rows is GAP_AUDIT_5000_ARGMAX:
        assert round(gaps[0], 4) == 3.5993
    if rows in (GAP_SEARCH_ARGMAX, GAP_TIE_ARGMAX):
        db, gap = (30.0, 4.19331) if rows is GAP_SEARCH_ARGMAX else (400.0, 4.2042)
        assert round(check_against_oracle(rho_from_db(db), rows), 5) == gap
        verdict = classify(AlphaMatrix(rows))
        assert verdict.in_extended and verdict.in_gsj
        assert verdict.witness_extended.label() == verdict.witness_gsj.label() == "13212"


# ------------------------------------------------------ exact GDoF reference

def exact_gdof(a, p):
    """D(p) = max{v1, v3, v2 - u2} + max{u2, u1 - v1, u3 - (v3 - v1)^+},
    u = a[j1][i1, i2, i3], v = a[j2][i1, i2, i3]."""
    i1, i2, i3, j1, j2 = p
    u1, u2, u3 = a[j1][i1], a[j1][i2], a[j1][i3]
    v1, v2, v3 = a[j2][i1], a[j2][i2], a[j2][i3]
    return max(v1, v3, v2 - u2) + max(u2, u1 - v1, u3 - max(v3 - v1, 0))


def exact_tin_gdof(a, cfg):
    """(a[j1][i1] - a[j1][i2])^+ + (a[j2][i2] - a[j2][i1])^+."""
    i1, i2, j1, j2 = cfg
    return max(a[j1][i1] - a[j1][i2], 0) + max(a[j2][i2] - a[j2][i1], 0)


def test_gdof_matches_exact_rationals():
    rng = np.random.default_rng(14)
    a = 4.0 * rng.random((2000, 6))
    a[:200] = rng.integers(0, 33, (200, 6)) / 8  # ties and equal links
    for row in a.tolist():
        rows = (row[:3], row[3:])
        alpha = AlphaMatrix(rows)
        exact = {j: {i: Fraction(rows[j - 1][i - 1]) for i in (1, 2, 3)} for j in (1, 2)}
        d_ub = {p: exact_gdof(exact, p) for p in ORDERINGS}
        d_tt = {cfg: exact_tin_gdof(exact, cfg) for cfg in PAIRINGS}
        ub = gdof_ub(alpha)
        for p, value in ub.per_perm:
            assert abs(Fraction(value) - d_ub[tuple(p)]) <= GDOF_TOL, (rows, p)
        for cfg in IC_CONFIGS:
            value = tdma_tin_gdof_config(alpha, cfg)
            assert abs(Fraction(value) - d_tt[tuple(cfg)]) <= GDOF_TOL, (rows, cfg)
        assert abs(Fraction(ub.value) - min(d_ub.values())) <= GDOF_TOL
        assert abs(Fraction(tdma_tin_gdof(alpha).value) - max(d_tt.values())) <= GDOF_TOL


def w_curve(a):
    """Symmetric per-user GDoF of the two-user interference channel at cross
    exponent a (Etkin, Tse and Wang, 2008): min{1, max(a/2, 1 - a/2),
    max(a, 1 - a)}."""
    return min(1, max(a / 2, 1 - a / 2), max(a, 1 - a))


def test_gdof_bound_holds_against_the_w_curve_of_the_embedded_interference_channel():
    """a = [[1, x, 0], [x, 1, 0]] silences Tx 3 and leaves a symmetric
    two-user interference channel, whose Han-Kobayashi sum GDoF is 2 w(x):
    min_p D may not fall below it, and meets it on [0, 0.66] and at 2."""
    met = []
    for k in range(301):
        x = k / 100
        rows = ((1.0, x, 0.0), (x, 1.0, 0.0))
        exact = {j: {i: Fraction(rows[j - 1][i - 1]) for i in (1, 2, 3)} for j in (1, 2)}
        d_ub = min(exact_gdof(exact, p) for p in ORDERINGS)
        assert abs(Fraction(gdof_ub(AlphaMatrix(rows)).value) - d_ub) <= GDOF_TOL
        slack = d_ub - 2 * w_curve(Fraction(x))
        assert slack >= 0, x
        if slack == 0:
            met.append(k)
    assert met == list(range(67)) + [200]
    assert gdof_ub(AlphaMatrix(((1.0,) * 3, (1.0,) * 3))).value == 2.0
