import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xctin.achievability import (IC_CONFIGS, IcConfig, tdma_tin_gdof, tdma_tin_gdof_config,
                                 tdma_tin_rate, tin_sum_rate)
from xctin.channel import AlphaMatrix
from xctin.errors import ValidationError

FIG_POINT = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
ONES = AlphaMatrix(((1.0,) * 3, (1.0,) * 3))
TWO_FREE_LINKS = AlphaMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))

alpha_grids = st.builds(
    lambda v: AlphaMatrix((tuple(v[:3]), tuple(v[3:]))),
    st.lists(st.floats(0.0, 4.0), min_size=6, max_size=6),
)


def test_enumerate_six_canonical_configs():
    configs = IC_CONFIGS
    assert len(configs) == 6
    assert len(set(configs)) == 6
    assert IcConfig(1, 2, 1, 2) in configs
    assert all(c.i1 != c.i2 and (c.j1, c.j2) == (1, 2) for c in configs)
    assert [(c.i1, c.i2) for c in configs] == sorted((i1, i2) for i1 in (1, 2, 3)
                                                     for i2 in (1, 2, 3) if i1 != i2)


def test_config_validation():
    with pytest.raises(ValidationError):
        IcConfig(1, 1, 1, 2)
    with pytest.raises(ValidationError):
        IcConfig(1, 4, 1, 2)
    with pytest.raises(ValidationError):
        IcConfig(1, 2, 2, 1)  # non-canonical receiver order


def test_tin_sum_rate_frozen_values():
    # independent evaluation: both links at exponent 1 with cross exponent 0.5
    # at rho = 100 give 2*log2(1 + 100/11)
    alpha = AlphaMatrix(((1.0, 0.5, 0.6), (0.5, 1.0, 0.4)))
    got = tin_sum_rate(100.0, alpha, IcConfig(1, 2, 1, 2))
    assert got == pytest.approx(6.669968495425618, rel=1e-12)
    assert got == pytest.approx(2.0 * math.log2(1.0 + 100.0 / 11.0), rel=1e-12)


def test_tin_sum_rate_fully_symmetric():
    got = tin_sum_rate(100.0, ONES, IcConfig(1, 2, 1, 2))
    assert got == pytest.approx(1.9856804168542677, rel=1e-12)
    assert got == pytest.approx(2.0 * math.log2(1.0 + 100.0 / 101.0), rel=1e-12)


@given(alpha=alpha_grids, rho=st.floats(1.0001, 1e9))
def test_tin_sum_rate_nonnegative(alpha, rho):
    # strictly positive in exact arithmetic; rounds to 0 at double precision
    # once the post-TIN SINR drops below machine epsilon
    assert all(tin_sum_rate(rho, alpha, cfg) >= 0.0 for cfg in IC_CONFIGS)


@given(alpha=alpha_grids, rho=st.floats(1.5, 1e3))
def test_tin_sum_rate_positive_at_moderate_snr(alpha, rho):
    assert all(tin_sum_rate(rho, alpha, cfg) > 0.0 for cfg in IC_CONFIGS)


def test_tdma_tin_rate_symmetric_ties_lexicographically():
    result = tdma_tin_rate(100.0, ONES)
    assert result.argmax == IcConfig(1, 2, 1, 2)
    assert result.value == tin_sum_rate(100.0, ONES, IcConfig(1, 2, 1, 2))


def test_tdma_tin_rate_direct_links_dominate():
    result = tdma_tin_rate(1e6, FIG_POINT)
    assert result.argmax == IcConfig(1, 2, 1, 2)
    assert result.value == pytest.approx(27.81058049904292, rel=1e-12)


@given(alpha=alpha_grids, rho=st.floats(1.0001, 1e9))
def test_tdma_tin_rate_is_the_max(alpha, rho):
    result = tdma_tin_rate(rho, alpha)
    values = [tin_sum_rate(rho, alpha, cfg) for cfg in IC_CONFIGS]
    assert result.value == max(values)
    assert result.value == tin_sum_rate(rho, alpha, result.argmax)


def test_gdof_config_values():
    assert tdma_tin_gdof_config(FIG_POINT, IcConfig(1, 2, 1, 2)) == pytest.approx(1.4, abs=1e-15)
    # Tx3 -> Rx1 with Tx2 -> Rx2: (0.75 - 0.2) + (1 - 0.75)
    assert tdma_tin_gdof_config(FIG_POINT, IcConfig(3, 2, 1, 2)) == pytest.approx(0.8, abs=1e-15)
    assert tdma_tin_gdof_config(ONES, IcConfig(1, 2, 1, 2)) == 0.0


@given(alpha=alpha_grids)
def test_gdof_config_range(alpha):
    for cfg in IC_CONFIGS:
        d = tdma_tin_gdof_config(alpha, cfg)
        assert 0.0 <= d <= alpha.entry(1, cfg.i1) + alpha.entry(2, cfg.i2)


def test_tdma_tin_gdof_values():
    result = tdma_tin_gdof(FIG_POINT)
    assert result.value == pytest.approx(1.4, abs=1e-15)
    assert result.argmax == IcConfig(1, 2, 1, 2)
    assert tdma_tin_gdof(ONES).value == 0.0
    assert tdma_tin_gdof(TWO_FREE_LINKS).value == 2.0


@given(alpha=alpha_grids, rho=st.floats(1.001, 1e12))
def test_rate_gdof_corridor_per_config(alpha, rho):
    lg = math.log2(rho)
    for cfg in IC_CONFIGS:
        rate = tin_sum_rate(rho, alpha, cfg)
        slope = tdma_tin_gdof_config(alpha, cfg)
        assert rate >= slope * lg - 2.0 - 1e-9
        assert rate <= slope * lg + 2.0 + 1e-9


@given(alpha=alpha_grids, rho=st.floats(1.001, 1e12))
def test_rate_gdof_corridor_for_max(alpha, rho):
    lg = math.log2(rho)
    assert tdma_tin_rate(rho, alpha).value >= tdma_tin_gdof(alpha).value * lg - 2.0 - 1e-9


@pytest.mark.parametrize("rho", [1e4, 1e6, 1e9])
def test_normalized_rate_converges(rho):
    lg = math.log2(rho)
    rate_norm = tdma_tin_rate(rho, FIG_POINT).value / lg
    assert abs(rate_norm - tdma_tin_gdof(FIG_POINT).value) <= 2.0 / lg


def _relabel_tx(alpha, sigma):
    """New column i holds the old column sigma[i-1]."""
    return AlphaMatrix(tuple(tuple(row[s - 1] for s in sigma) for row in alpha.a))


@given(alpha=alpha_grids, rho=st.floats(1.001, 1e9),
       sigma=st.sampled_from(list(itertools.permutations((1, 2, 3)))))
def test_transmitter_relabeling_invariance(alpha, rho, sigma):
    relabeled = _relabel_tx(alpha, sigma)
    assert tdma_tin_rate(rho, relabeled).value == tdma_tin_rate(rho, alpha).value
    assert tdma_tin_gdof(relabeled).value == tdma_tin_gdof(alpha).value
