import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xctin.achievability import tdma_tin_gdof
from xctin.bounds import PERMUTATIONS, TxPermutation, gdof_ub, genie_params
from xctin.channel import AlphaMatrix
from xctin.errors import NotApplicable, ValidationError
from xctin.regime import (AuxChannelPair, classify,
                          entropy_gap_conditions_hold, genie_aux_pair,
                          genie_satisfies_entropy_gap, in_extended_regime,
                          in_gsj_regime, psi, regime_witnesses)

FIG_POINT = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
P0 = TxPermutation(1, 2, 3, 1, 2)

alpha_grids = st.builds(
    lambda v: AlphaMatrix((tuple(v[:3]), tuple(v[3:]))),
    st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
)


def _fig_alpha(a21, a12, beta=0.75):
    return AlphaMatrix(((1.0, a12, beta), (a21, 1.0, beta)))


# ---------------------------------------------------------------- psi

def test_psi_fig_point():
    assert psi(FIG_POINT, P0) == pytest.approx(0.4, rel=1e-12)  # max{0.75-0.35, 0.2}


def test_psi_weak_third_link_reduces_to_plain_max():
    alpha = AlphaMatrix(((1.0, 0.3, 0.6), (0.5, 1.0, 0.2)))  # a23 <= a21
    assert psi(alpha, P0) == max(0.6, 0.3)


def test_psi_first_argument_not_clipped():
    # first argument 0.1 - (1.9 - 0.4) = -1.4; the plain max with a12 wins
    alpha = AlphaMatrix(((1.0, 0.3, 0.1), (0.4, 1.0, 1.9)))
    assert psi(alpha, P0) == pytest.approx(0.3, abs=1e-15)
    zero_cross = AlphaMatrix(((1.0, 0.0, 0.0), (0.4, 1.0, 1.9)))
    assert psi(zero_cross, P0) == 0.0


@given(alpha=alpha_grids, p=st.sampled_from(PERMUTATIONS))
def test_psi_dominated_by_unreduced_threshold(alpha, p):
    assert psi(alpha, p) <= max(alpha.entry(p.j1, p.i3), alpha.entry(p.j1, p.i2))


# ---------------------------------------------------------------- memberships

def test_extended_witness_at_fig_point():
    assert in_extended_regime(FIG_POINT) == P0


def test_extended_absent_at_symmetric_cross_point():
    assert in_extended_regime(_fig_alpha(0.6, 0.6)) is None


def test_extended_with_zero_cross_links():
    assert in_extended_regime(AlphaMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))) == P0


def test_gsj_memberships():
    assert in_gsj_regime(_fig_alpha(0.2, 0.2)) is not None
    assert in_gsj_regime(_fig_alpha(0.4, 0.2)) is None
    assert in_gsj_regime(AlphaMatrix(((1.0,) * 3, (1.0,) * 3))) is None


def test_classification_tolerance_opens_near_boundary():
    just_out = _fig_alpha(0.501, 0.2)
    assert in_extended_regime(just_out) is None
    assert in_extended_regime(just_out, tol=0.01) is not None


def test_classify_fig_points():
    v = classify(_fig_alpha(0.4, 0.2))
    assert v.in_extended and not v.in_gsj
    assert v.gdof_value == pytest.approx(1.4, rel=1e-12)
    assert v.witness_extended == P0 and v.witness_gsj is None

    v = classify(_fig_alpha(0.2, 0.2))
    assert v.in_extended and v.in_gsj
    assert v.gdof_value == pytest.approx(1.6, rel=1e-12)

    v = classify(_fig_alpha(0.6, 0.6))
    assert not v.in_extended and not v.in_gsj
    assert v.gdof_value is None and v.witness_extended is None


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_regime_functions_reject_bad_tol(tol):
    # Each used to answer "neither" (nan, -1.0) or "both" (inf) without error.
    for check in (lambda: classify(FIG_POINT, tol),
                  lambda: in_extended_regime(FIG_POINT, tol),
                  lambda: in_gsj_regime(FIG_POINT, tol),
                  lambda: regime_witnesses(np.array([FIG_POINT.flat()]), tol)):
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            check()


def _first_witness_reference(alpha, threshold, tol):
    a = alpha.a
    for p in PERMUTATIONS:
        cross = max(a[p.j2 - 1][p.i1 - 1], a[p.j2 - 1][p.i3 - 1])
        if (a[p.j1 - 1][p.i1 - 1] - a[p.j2 - 1][p.i1 - 1] + tol >= threshold(a, p)
                and a[p.j2 - 1][p.i2 - 1] - a[p.j1 - 1][p.i2 - 1] + tol >= cross):
            return p
    return None


@given(alpha=alpha_grids, tol=st.sampled_from([0.0, 1e-12, 0.05]))
def test_regime_witnesses_match_reference(alpha, tol):
    assert in_extended_regime(alpha, tol) == _first_witness_reference(
        alpha, lambda a, p: psi(alpha, p), tol)
    assert in_gsj_regime(alpha, tol) == _first_witness_reference(
        alpha, lambda a, p: max(a[p.j1 - 1][p.i3 - 1], a[p.j1 - 1][p.i2 - 1]), tol)


@given(alpha=alpha_grids)
def test_regime_inclusion(alpha):
    if in_gsj_regime(alpha) is not None:
        assert in_extended_regime(alpha) is not None


def test_regime_inclusion_on_grid():
    for beta in (0.6, 0.75, 0.9):
        for k21 in range(16):
            for k12 in range(16):
                alpha = _fig_alpha(k21 * 0.05, k12 * 0.05, beta)
                if in_gsj_regime(alpha) is not None:
                    assert in_extended_regime(alpha) is not None


def test_equality_chain_on_sampled_regime_points():
    rng = np.random.Generator(np.random.Philox(5))
    found = 0
    while found < 300:
        v = 2.0 - 2.0 * rng.random(6)
        alpha = AlphaMatrix((tuple(v[:3]), tuple(v[3:])))
        w = in_extended_regime(alpha)
        if w is None:
            continue
        found += 1
        certified = (alpha.entry(w.j1, w.i1) - alpha.entry(w.j2, w.i1)
                     + alpha.entry(w.j2, w.i2) - alpha.entry(w.j1, w.i2))
        assert abs(tdma_tin_gdof(alpha).value - certified) <= 1e-12
        assert abs(gdof_ub(alpha).value - certified) <= 1e-12


# ---------------------------------------------------------------- entropy-gap check

def test_conditions_hold_example():
    pair = AuxChannelPair(h1_sq=1.0, h2_sq=0.01, h3_sq=1.0, h4_sq=2.0, rho=100.0)
    assert entropy_gap_conditions_hold(pair)  # 1 <= 1 <= 2, 100 > 1


def test_conditions_fail_on_first_inequality():
    pair = AuxChannelPair(h1_sq=2.0, h2_sq=0.01, h3_sq=1.0, h4_sq=2.0, rho=100.0)
    assert not entropy_gap_conditions_hold(pair)


def test_conditions_lower_bound_is_strict():
    pair = AuxChannelPair(h1_sq=0.005, h2_sq=0.001, h3_sq=0.01, h4_sq=2.0, rho=100.0)
    assert not entropy_gap_conditions_hold(pair)  # rho*h3_sq = 1 exactly


def test_conditions_handle_zero_mixing_gain():
    pair = AuxChannelPair(h1_sq=1.0, h2_sq=0.0, h3_sq=1.0, h4_sq=2.0, rho=100.0)
    assert entropy_gap_conditions_hold(pair)


def test_aux_pair_validation():
    with pytest.raises(ValidationError):
        AuxChannelPair(h1_sq=-1.0, h2_sq=0.1, h3_sq=1.0, h4_sq=1.0, rho=100.0)
    with pytest.raises(ValidationError):
        AuxChannelPair(h1_sq=1.0, h2_sq=0.1, h3_sq=1.0, h4_sq=1.0, rho=1.0)


def test_genie_satisfies_gap_case2_example():
    alpha = AlphaMatrix(((1.0, 0.1, 0.2), (0.3, 0.1, 0.9)))
    assert genie_params(alpha, P0, 100.0).case_id == 2
    assert genie_satisfies_entropy_gap(100.0, alpha, P0)


def test_genie_satisfies_gap_case3_example_with_tight_middle():
    alpha = AlphaMatrix(((1.0, 0.1, 0.85), (0.8, 0.1, 0.9)))
    assert genie_params(alpha, P0, 100.0).case_id == 3
    assert genie_satisfies_entropy_gap(100.0, alpha, P0)
    pair = genie_aux_pair(100.0, alpha, P0)
    middle = pair.h4_sq / (pair.rho * pair.h2_sq)
    assert pair.h3_sq == pytest.approx(middle, rel=1e-9)


def test_genie_gap_not_applicable_for_case1():
    alpha = AlphaMatrix(((1.0, 0.1, 0.1), (0.5, 0.1, 0.3)))
    with pytest.raises(NotApplicable):
        genie_satisfies_entropy_gap(100.0, alpha, P0)


def test_genie_gap_coverage_sampled():
    rng = np.random.Generator(np.random.Philox(9))
    checked = 0
    while checked < 2000:
        v = 2.0 - 2.0 * rng.random(6)
        alpha = AlphaMatrix((tuple(v[:3]), tuple(v[3:])))
        rho = 10.0 ** rng.uniform(1.0, 9.0)
        p = PERMUTATIONS[int(rng.integers(0, 12))]
        if genie_params(alpha, p, rho).d == 0:
            continue
        checked += 1
        assert genie_satisfies_entropy_gap(rho, alpha, p)
