"""The block kernels against the scalar API, entry for entry with exact ==.

Each profile row must equal the scalar profile of the same grid, and its
first argmin/argmax must be the scalar argmin/argmax. Grids include ties,
zero entries and exact genie-case boundaries (v3 == v1 and
v1 - u1 == v3 - u3 - v1, on multiples of 1/8 so the arithmetic is exact),
and row counts sit on both sides of the audits' block size. A kernel that
used numpy's own power or log2 instead of libm's would fail here. The regime
kernel's witnesses must be the scalar witnesses, also on grids sitting
exactly on a regime boundary and on points of the sweep family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xctin.achievability import (IC_CONFIGS, tdma_tin_gdof,
                                 tdma_tin_gdof_config, tdma_tin_gdof_profiles,
                                 tdma_tin_rate, tdma_tin_rate_profiles,
                                 tin_sum_rate)
from xctin.bounds import (PERMUTATIONS, gdof_ub, gdof_ub_profiles,
                          sum_capacity_ub, sum_capacity_ub_profiles)
from xctin.channel import AlphaMatrix
from xctin.experiments import BLOCK_ROWS, SWEEP_GRID_SLACK
from xctin.regime import in_extended_regime, in_gsj_regime, regime_witnesses

EIGHTHS = [k / 8 for k in range(17)]
entries = st.one_of(st.sampled_from(EIGHTHS), st.floats(0.0, 2.0))


@st.composite
def boundary_grids(draw):
    """A grid on a genie-case boundary of one ordering: v3 == v1 (case 1/2)
    or v1 - u1 == v3 - u3 - v1 (case 2/3)."""
    g = draw(st.lists(st.sampled_from(EIGHTHS), min_size=6, max_size=6))
    pos = PERMUTATIONS[draw(st.integers(0, 11))].take(range(6))
    u1, u3, v1 = g[pos[0]], g[pos[2]], g[pos[3]]
    v3 = u3 + v1 + (v1 - u1)
    g[pos[5]] = v3 if draw(st.booleans()) and v3 >= 0.0 else v1
    return g


@st.composite
def regime_boundary_grids(draw):
    """A grid on both regime boundaries of one ordering, for the extended or
    the reference threshold: u1 - v1 == threshold and v2 - u2 == max(v1, v3),
    optionally with v3 == v1 where the positive-part reduction switches on."""
    g = draw(st.lists(st.sampled_from(EIGHTHS), min_size=6, max_size=6))
    u1, u2, u3, v1, v2, v3 = PERMUTATIONS[draw(st.integers(0, 11))].take(range(6))
    if draw(st.booleans()):
        g[v3] = g[v1]
    first = g[u3] - max(g[v3] - g[v1], 0.0) if draw(st.booleans()) else g[u3]
    g[u1] = g[v1] + max(first, g[u2])
    g[v2] = g[u2] + max(g[v1], g[v3])
    return g


@st.composite
def sweep_points(draw):
    """A grid of the sweep family [[1, a12, beta], [a21, 1, beta]] on the
    grid of one of the sweep's steps."""
    step = draw(st.sampled_from([0.005, 0.01, 0.05, 0.25]))
    k21, k12 = draw(st.integers(0, int(0.75 / step))), draw(st.integers(0, int(0.75 / step)))
    beta = draw(st.one_of(st.sampled_from([0.5, 0.65, 0.75, 0.7725]), st.floats(0.5, 0.999)))
    return [1.0, k12 * step, beta, k21 * step, 1.0, beta]


@st.composite
def blocks(draw, *special):
    """(a, rho): n rows of drawn grids, padded with seeded grids with ties,
    in seeded order, and one SNR per row up to 300 dB. The drawn grids come
    from the special strategies too."""
    n = draw(st.sampled_from([1, BLOCK_ROWS, BLOCK_ROWS + 1]))
    drawn = draw(st.lists(st.one_of(st.lists(entries, min_size=6, max_size=6),
                                    boundary_grids(), *special), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.where(rng.random((n, 6)) < 0.5, rng.choice(EIGHTHS, (n, 6)),
                 2.0 * rng.random((n, 6)))
    k = min(n, len(drawn))
    a[rng.permutation(n)[:k]] = drawn[:k]
    rho = 10.0 ** rng.uniform(0.01, 30.0, n)
    return a, rho


def _alpha(row) -> AlphaMatrix:
    v = row.tolist()
    return AlphaMatrix((tuple(v[:3]), tuple(v[3:])))


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_bound_profiles_match_sum_capacity_ub(case):
    a, rho = case
    for row, r, prof in zip(a, rho.tolist(), sum_capacity_ub_profiles(a, rho)):
        ref = sum_capacity_ub(r, _alpha(row))
        assert prof.tolist() == [v for _, v in ref.per_perm]
        assert PERMUTATIONS[prof.argmin()] == ref.argmin


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_gdof_profiles_match_gdof_ub(case):
    a, _ = case
    for row, prof in zip(a, gdof_ub_profiles(a)):
        ref = gdof_ub(_alpha(row))
        assert prof.tolist() == [v for _, v in ref.per_perm]
        assert PERMUTATIONS[prof.argmin()] == ref.argmin


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_tin_rate_profiles_match_tdma_tin_rate(case):
    a, rho = case
    for row, r, prof in zip(a, rho.tolist(), tdma_tin_rate_profiles(a, rho)):
        alpha = _alpha(row)
        assert prof.tolist() == [tin_sum_rate(r, alpha, cfg) for cfg in IC_CONFIGS]
        ref = tdma_tin_rate(r, alpha)
        assert prof[prof.argmax()] == ref.value
        assert IC_CONFIGS[prof.argmax()] == ref.argmax


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_tin_gdof_profiles_match_tdma_tin_gdof(case):
    a, _ = case
    for row, prof in zip(a, tdma_tin_gdof_profiles(a)):
        alpha = _alpha(row)
        assert prof.tolist() == [tdma_tin_gdof_config(alpha, cfg) for cfg in IC_CONFIGS]
        ref = tdma_tin_gdof(alpha)
        assert prof[prof.argmax()] == ref.value
        assert IC_CONFIGS[prof.argmax()] == ref.argmax


def _index(p) -> int:
    return -1 if p is None else PERMUTATIONS.index(p)


@settings(max_examples=60, deadline=None)
@given(case=blocks(regime_boundary_grids(), sweep_points()),
       tol=st.sampled_from([0.0, SWEEP_GRID_SLACK, 0.01]))
def test_regime_witnesses_match_scalar_witnesses(case, tol):
    a, _ = case
    extended, gsj = regime_witnesses(a, tol)
    assert extended.shape == gsj.shape == (len(a),)
    for row, we, wg in zip(a, extended.tolist(), gsj.tolist()):
        alpha = _alpha(row)
        assert we == _index(in_extended_regime(alpha, tol))
        assert wg == _index(in_gsj_regime(alpha, tol))
