import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from xctin.achievability import tdma_tin_gdof, tdma_tin_rate
from xctin.bounds import (PERMUTATIONS, TxPermutation, gdof_ub, gdof_ub_case1,
                          gdof_ub_case2, gdof_ub_single, genie_params,
                          genie_params_from_gains, sum_capacity_ub,
                          sum_capacity_ub_single)
from xctin.channel import AlphaMatrix, ChannelScenario, rho_from_db, validate_scenario
from xctin.errors import CaseMismatch, ValidationError

FIG_POINT = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
CASE1_POINT = AlphaMatrix(((1.0, 0.5, 0.6), (0.5, 1.0, 0.4)))
ONES = AlphaMatrix(((1.0,) * 3, (1.0,) * 3))
P0 = TxPermutation(1, 2, 3, 1, 2)

alpha_grids = st.builds(
    lambda v: AlphaMatrix((tuple(v[:3]), tuple(v[3:]))),
    st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
)
positive_grids = st.builds(
    lambda v: AlphaMatrix((tuple(v[:3]), tuple(v[3:]))),
    st.lists(st.floats(0.01, 2.0), min_size=6, max_size=6),
)
perms = st.sampled_from(PERMUTATIONS)


def test_enumerate_twelve_permutations():
    ps = PERMUTATIONS
    assert len(ps) == 12
    assert len(set(ps)) == 12
    assert TxPermutation(1, 2, 3, 1, 2) in ps
    assert all({p.i1, p.i2, p.i3} == {1, 2, 3} and {p.j1, p.j2} == {1, 2} for p in ps)
    assert [tuple(p) for p in ps] == sorted(tuple(p) for p in ps)


def test_permutation_validation():
    with pytest.raises(ValidationError):
        TxPermutation(1, 1, 3, 1, 2)
    with pytest.raises(ValidationError):
        TxPermutation(1, 2, 3, 1, 1)


# ---------------------------------------------------------------- genie parameters

def test_genie_params_case1():
    alpha = AlphaMatrix(((1.0, 0.1, 0.1), (0.5, 0.1, 0.3)))
    gp = genie_params(alpha, P0, 100.0)
    assert (gp.d, gp.case_id) == (0, 1)
    assert gp.c_sq == pytest.approx(0.1, rel=1e-12)  # 100**(0.5 - 1)


def test_genie_params_case2():
    alpha = AlphaMatrix(((1.0, 0.1, 0.2), (0.3, 0.1, 0.9)))
    gp = genie_params(alpha, P0, 100.0)
    assert (gp.d, gp.case_id) == (1, 2)
    assert gp.c_sq == pytest.approx(100.0 ** -0.7, rel=1e-12)


def test_genie_params_case3():
    alpha = AlphaMatrix(((1.0, 0.1, 0.85), (0.8, 0.1, 0.9)))
    gp = genie_params(alpha, P0, 100.0)
    assert (gp.d, gp.case_id) == (1, 3)
    assert gp.c_sq == pytest.approx(100.0 ** -0.75, rel=1e-12)


def test_genie_params_case_2_3_tie_has_matching_exponent():
    # a21 - a11 = a23 - a13 - a21 exactly: the tie goes to case 2, and the
    # case-3 exponent would give the same scaling anyway.
    alpha = AlphaMatrix(((1.0, 0.1, 0.5), (0.75, 0.1, 1.0)))
    gp = genie_params(alpha, P0, 100.0)
    assert (gp.d, gp.case_id) == (1, 2)
    case3_c_sq = 100.0 ** (1.0 - 0.75 - 0.5)
    assert gp.c_sq == pytest.approx(case3_c_sq, rel=1e-12)


def _gains_for(alpha, rho, rng=None):
    """Gains realizing the exponent grid, with random phases when rng given."""
    rows = []
    for j in (1, 2):
        row = []
        for i in (1, 2, 3):
            mag = math.sqrt(rho ** (alpha.entry(j, i) - 1.0))
            if rng is None:
                row.append(complex(mag, 0.0))
            else:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                row.append(mag * complex(math.cos(theta), math.sin(theta)))
        rows.append(tuple(row))
    return tuple(rows)


def test_genie_params_alpha_and_gain_forms_agree():
    # one physical scenario, two routes: exponents derived by validation vs
    # the raw-gain branch rule
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(200):
        v = 2.0 - 2.0 * rng.random(6)
        alpha = AlphaMatrix((tuple(v[:3]), tuple(v[3:])))
        rho = 10.0 ** rng.uniform(1.0, 9.0)
        gains = _gains_for(alpha, rho, rng)
        derived = validate_scenario(ChannelScenario(rho=rho, gains=gains))
        for p in PERMUTATIONS:
            from_alpha = genie_params(derived, p, rho)
            from_gains = genie_params_from_gains(gains, p, rho)
            assert from_gains.d == from_alpha.d
            assert from_gains.case_id == from_alpha.case_id
            assert from_gains.c_sq == pytest.approx(from_alpha.c_sq, rel=1e-9)


def test_genie_params_from_gains_rejects_zero_gain():
    gains = (((0j, 1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j, 1 + 0j)))
    with pytest.raises(ValidationError):
        genie_params_from_gains(gains, P0, 100.0)


@pytest.mark.parametrize("gains", [
    ((1e200, 1, 1), (1, 1, 1)),               # |h[1][1]|^2 overflows
    ((1, 1, 1), (1e200, 1, 1)),               # |h[2][1]|^2 overflows
    ((1, 1, 1), (1e100, 1, 1e101)),           # |h[2][1]|^4 of the case-2 test overflows
    ((complex(1e308, 1e308), 1, 1), (1, 1, 1)),  # abs(h[1][1]) overflows
])
def test_genie_params_from_gains_rejects_overflowing_gains(gains):
    with pytest.raises(ValidationError):
        genie_params_from_gains(gains, P0, 100.0)


# ---------------------------------------------------------------- finite-SNR bound

def test_bound_single_frozen_value():
    # case 1 at rho = 100 with c^2 = 0.1:
    # log2(1 + 10 + 100**0.6 + 100/11) + log2(1 + 10 + 100**0.4 + 100/11) + 1
    got = sum_capacity_ub_single(100.0, CASE1_POINT, P0)
    assert got == pytest.approx(10.890004515422845, rel=1e-12)
    expected = (math.log2(1.0 + 10.0 + 100.0 ** 0.6 + 100.0 / 11.0)
                + math.log2(1.0 + 10.0 + 100.0 ** 0.4 + 100.0 / 11.0) + 1.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_bound_single_d0_keeps_third_link_outside_fraction():
    # same point written term by term with d = 0 fixed structurally
    rho = 100.0
    a = CASE1_POINT.a
    c_sq = rho ** (a[1][0] - a[0][0])
    term1 = math.log2(1.0 + rho ** a[0][1] + rho ** a[0][2]
                      + rho ** a[0][0] / (1.0 + c_sq * rho ** a[0][0]))
    term2 = math.log2(1.0 + rho ** a[1][0] + rho ** a[1][2]
                      + rho ** a[1][1] / (1.0 + rho ** a[0][1]))
    assert sum_capacity_ub_single(rho, CASE1_POINT, P0) == pytest.approx(
        term1 + term2 + 1.0, rel=1e-14)


@given(alpha=positive_grids, rho=st.floats(10.0, 1e9), p=perms)
def test_bound_single_exceeds_one_bit(alpha, rho, p):
    assert sum_capacity_ub_single(rho, alpha, p) > 1.0


def test_bound_dominates_rate_at_regime_point():
    for rho in (1e4, 1e6):
        ub = sum_capacity_ub(rho, FIG_POINT).value
        rate = tdma_tin_rate(rho, FIG_POINT).value
        assert ub > rate
    assert sum_capacity_ub(1e4, FIG_POINT).value == pytest.approx(20.21651446099101, rel=1e-12)
    assert tdma_tin_rate(1e4, FIG_POINT).value == pytest.approx(18.361691309338678, rel=1e-12)


def test_seven_bit_gap_at_regime_point():
    for rho in (1e4, 1e6):
        gap = (sum_capacity_ub(rho, FIG_POINT).value - tdma_tin_rate(rho, FIG_POINT).value)
        assert 0.0 < gap <= 7.0


def test_sum_capacity_ub_profile_consistency():
    result = sum_capacity_ub(1e4, FIG_POINT)
    assert len(result.per_perm) == 12
    assert [tuple(p) for p, _ in result.per_perm] == [tuple(p) for p in PERMUTATIONS]
    assert result.value == min(v for _, v in result.per_perm)
    by_perm = dict(result.per_perm)
    assert by_perm[result.argmin] == result.value
    for p, v in result.per_perm:
        assert v == sum_capacity_ub_single(1e4, FIG_POINT, p), p


@given(alpha=alpha_grids, rho=st.floats(10.0, 1e9))
def test_profiles_match_single_ordering_values_exactly(alpha, rho):
    for result, single in ((sum_capacity_ub(rho, alpha),
                            lambda p: sum_capacity_ub_single(rho, alpha, p)),
                           (gdof_ub(alpha), lambda p: gdof_ub_single(alpha, p))):
        assert [p for p, _ in result.per_perm] == list(PERMUTATIONS)
        assert [v for _, v in result.per_perm] == [single(p) for p in PERMUTATIONS]
        first = next(p for p, v in result.per_perm if v == result.value)
        assert result.argmin == first and result.value == min(v for _, v in result.per_perm)


# ---------------------------------------------------------------- GDoF bound

def test_gdof_case1_value_and_mismatch():
    assert gdof_ub_case1(FIG_POINT, P0) == pytest.approx(1.4, rel=1e-12)
    # all ones except a21 = 0.5: max{0.5, 1, 0} + max{1, 0.5, 0.5}
    dented = AlphaMatrix(((1.0, 1.0, 1.0), (0.5, 1.0, 1.0)))
    assert gdof_ub_case1(dented, P0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(CaseMismatch):
        gdof_ub_case1(CASE1_POINT, P0)  # a23 = 0.4 <= a21 = 0.5


def test_gdof_case2_value_and_mismatch():
    assert gdof_ub_case2(CASE1_POINT, P0) == pytest.approx(1.1, rel=1e-12)
    assert gdof_ub_case2(ONES, P0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(CaseMismatch):
        gdof_ub_case2(FIG_POINT, P0)  # a23 = 0.75 > a21 = 0.4


def test_gdof_single_values():
    assert gdof_ub_single(FIG_POINT, P0) == pytest.approx(1.4, rel=1e-12)
    assert gdof_ub_single(FIG_POINT, P0) == gdof_ub_case1(FIG_POINT, P0)
    assert all(gdof_ub_single(ONES, p) == pytest.approx(2.0, rel=1e-15)
               for p in PERMUTATIONS)
    two_free = AlphaMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    assert gdof_ub_single(two_free, P0) == 2.0


@given(alpha=alpha_grids, p=perms)
def test_gdof_single_matches_exactly_one_case(alpha, p):
    combined = gdof_ub_single(alpha, p)
    if alpha.entry(p.j2, p.i3) > alpha.entry(p.j2, p.i1):
        assert combined == gdof_ub_case1(alpha, p)
        with pytest.raises(CaseMismatch):
            gdof_ub_case2(alpha, p)
    else:
        assert combined == gdof_ub_case2(alpha, p)
        with pytest.raises(CaseMismatch):
            gdof_ub_case1(alpha, p)


def test_gdof_ub_fig_point():
    result = gdof_ub(FIG_POINT)
    assert result.value == pytest.approx(1.4, rel=1e-12)
    assert result.argmin == P0
    assert gdof_ub(ONES).value == pytest.approx(2.0, rel=1e-15)


# ---------------------------------------------------------------- sandwich

@given(alpha=positive_grids, rho=st.floats(10.0, 1e9))
def test_finite_snr_sandwich(alpha, rho):
    assert tdma_tin_rate(rho, alpha).value <= sum_capacity_ub(rho, alpha).value + 1e-9


@given(alpha=alpha_grids)
def test_gdof_sandwich(alpha):
    assert tdma_tin_gdof(alpha).value <= gdof_ub(alpha).value + 1e-12


# ---------------------------------------------------------------- convergence

def _limit_bound_exponent(alpha, p):
    """High-SNR slope of the finite-SNR bound, derived independently from the
    saturation behaviour of each branch of the parameter rule."""
    a_j1i1 = alpha.entry(p.j1, p.i1)
    a_j1i2 = alpha.entry(p.j1, p.i2)
    a_j1i3 = alpha.entry(p.j1, p.i3)
    a_j2i1 = alpha.entry(p.j2, p.i1)
    a_j2i2 = alpha.entry(p.j2, p.i2)
    a_j2i3 = alpha.entry(p.j2, p.i3)
    term2 = max(a_j2i1, a_j2i3, a_j2i2 - a_j1i2)
    if a_j2i3 <= a_j2i1:
        term1 = max(a_j1i2, a_j1i3, a_j1i1 - a_j2i1)
    elif a_j2i1 - a_j1i1 <= a_j2i3 - a_j1i3 - a_j2i1:
        term1 = max(a_j1i2, a_j1i1 - a_j2i1)
    else:
        term1 = max(a_j1i2, a_j1i3 - (a_j2i3 - a_j2i1))
    return term1 + term2


@given(alpha=positive_grids)
def test_normalized_bound_converges_to_its_limit(alpha):
    rho = 1e9
    lg = math.log2(rho)
    for p in PERMUTATIONS:
        norm = sum_capacity_ub_single(rho, alpha, p) / lg
        limit = _limit_bound_exponent(alpha, p)
        assert norm <= gdof_ub_single(alpha, p) + 5.0 / lg + 1e-9
        assert limit - 1.0 / lg - 1e-9 <= norm <= limit + 5.0 / lg + 1e-9


@given(alpha=positive_grids)
def test_normalized_min_bound_tracks_min_limit(alpha):
    rho = 1e9
    lg = math.log2(rho)
    norm = sum_capacity_ub(rho, alpha).value / lg
    limit = min(_limit_bound_exponent(alpha, p) for p in PERMUTATIONS)
    assert abs(norm - limit) <= 5.0 / lg + 1e-9


# ---------------------------------------------------------------- SNR scaling

@given(alpha=alpha_grids, rho_db=st.floats(0.1, 90.0), k=st.sampled_from([0.5, 1.7, 3.0]))
def test_bound_and_rate_see_rho_and_alpha_only_through_the_powers(alpha, rho_db, k):
    # rho enters only as rho**a and as the genie's c^2 = rho**(linear form),
    # so (rho**(1/k), k*a) gives the B and R of (rho, a) up to rounding. B
    # jumps where the genie's case-1 test v3 <= v1 flips (d goes 0 -> 1), so
    # a draw whose scaling merges two entries of a row (5e-324 * 0.5 is 0)
    # is outside the claim.
    rho = rho_from_db(rho_db)
    scaled = AlphaMatrix(tuple(tuple(k * x for x in row) for row in alpha.a))

    def order(row):
        return [x <= y for x in row for y in row]

    assume(all(order(r) == order(s) for r, s in zip(alpha.a, scaled.a)))
    for f in (sum_capacity_ub, tdma_tin_rate):
        want = f(rho, alpha).value
        assert abs(f(rho ** (1.0 / k), scaled).value - want) <= 1e-12 * want


# ---------------------------------------------------------------- relabeling

def _relabel(alpha, tx, rx):
    """New entry (j, i) holds the old entry (rx[j-1], tx[i-1])."""
    return AlphaMatrix(tuple(tuple(alpha.entry(r, t) for t in tx) for r in rx))


@given(alpha=alpha_grids, rho=st.floats(10.0, 1e9),
       tx=st.sampled_from(list(itertools.permutations((1, 2, 3)))),
       rx=st.sampled_from(list(itertools.permutations((1, 2)))))
def test_relabeling_invariance(alpha, rho, tx, rx):
    relabeled = _relabel(alpha, tx, rx)
    assert sum_capacity_ub(rho, relabeled).value == sum_capacity_ub(rho, alpha).value
    assert gdof_ub(relabeled).value == gdof_ub(alpha).value


@given(alpha=alpha_grids, rho=st.floats(10.0, 1e9),
       tx=st.sampled_from(list(itertools.permutations((1, 2, 3)))))
def test_column_relabeling_permutes_profile(alpha, rho, tx):
    base = sorted(v for _, v in sum_capacity_ub(rho, alpha).per_perm)
    moved = sorted(v for _, v in sum_capacity_ub(rho, _relabel(alpha, tx, (1, 2))).per_perm)
    assert moved == base
