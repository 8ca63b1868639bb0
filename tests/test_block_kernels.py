"""The block kernels against the scalar API, entry for entry with exact ==.

Both run the same link-level formula bodies, the scalar API on Python
floats with channel.scalar_where, pow and math.log2, the kernels on link
columns with np.where, libm_pow and libm_log2. These tests pin the two op
sets against each other; tests/test_oracle.py checks the formulas against
independent references.

Each profile row must equal the scalar profile of the same grid, and its
first argmin/argmax must be the scalar argmin/argmax. Grids include ties,
zero entries and exact genie-case boundaries (v3 == v1 and
v1 - u1 == v3 - u3 - v1, on multiples of 1/8 so the arithmetic is exact),
and row counts sit on both sides of the audits' block size. A kernel that
used numpy's own power or log2 instead of libm's at any site fails the
seeded corpus test; the hypothesis tests vary their draws and catch a log2
swap only now and then, as np.log2 misses libm on few arguments. The regime
kernel's witnesses must be the scalar witnesses, and the rejection
sampler's extended-only test their verdicts and those of the conditions
written out, also on grids sitting exactly on a regime boundary (with the
threshold tied to u2 and signed zeros) and on points of the sweep family.
The audits' screened kernels must return the first extremum of the libm profiles, bit
for bit, also on exact ties, at the largest SNR and on non-finite rows, and
the scalar first-extremum pick the entry the block one picks.
libm_pow itself must be builtin pow, bit for bit and in its overflow.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xctin import achievability, bounds, kernels
from xctin.achievability import (IC_CONFIGS, tdma_tin_gdof, tdma_tin_gdof_config,
                                 tdma_tin_rate, tin_sum_rate)
from xctin.bounds import PERMUTATIONS, gdof_ub, sum_capacity_ub
from xctin.channel import DEFAULT_ALPHA_CAP, MAX_RHO, AlphaMatrix, first_best
from xctin.experiments import BLOCK_ROWS, SWEEP_GRID_SLACK
from xctin.kernels import (SCREEN_MARGIN, _in_extended_rows, first_extremum, gdof_ub_profiles,
                           libm_pow, link_columns, regime_witnesses, sum_capacity_ub_min,
                           sum_capacity_ub_profiles, tdma_tin_gdof_profiles,
                           tdma_tin_rate_max, tdma_tin_rate_profiles)
from xctin.regime import in_extended_regime, in_gsj_regime, psi

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
def tie_grids(draw):
    """A grid on both extended-regime boundaries of one ordering whose
    threshold ties u2 (u3 - (v3 - v1)^+ == u2), optionally with v3 == v1,
    and each zero entry signed at random."""
    g = draw(st.lists(st.one_of(st.just(0.0), st.sampled_from(EIGHTHS)), min_size=6, max_size=6))
    u1, u2, u3, v1, v2, v3 = PERMUTATIONS[draw(st.integers(0, 11))].take(range(6))
    if draw(st.booleans()):
        g[v3] = g[v1]
    g[u3] = g[u2] + max(g[v3] - g[v1], 0.0)
    g[u1] = g[v1] + g[u2]
    g[v2] = g[u2] + max(g[v1], g[v3])
    signs = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    return [-0.0 if x == 0.0 and neg else x for x, neg in zip(g, signs)]


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


def _max_triple_grids() -> list[list[float]]:
    """Each triple of 0.0, -0.0 and 1.0 placed, for every ordering, as the
    three operands of D(p)'s first maximum, (v1, v3, v2 - u2), and of its
    second, (u2, u1 - v1, u3 - (v3 - v1)^+)."""
    grids = []
    for p in PERMUTATIONS:
        u1, u2, u3, v1, v2, v3 = p.take(range(6))
        for x, y, z in itertools.product((0.0, -0.0, 1.0), repeat=3):
            for placed in ({v1: x, v3: y, u2: 0.0, v2: z, u1: -0.0, u3: -0.0},
                           {u2: x, v1: 0.0, u1: y, v3: 0.0, u3: z, v2: -0.0}):
                grids.append([placed[k] for k in range(6)])
    return grids


@settings(max_examples=60, deadline=None)
@given(case=blocks(tie_grids()))
@example(case=(np.array(_max_triple_grids()), None))
def test_gdof_profiles_keep_the_scalar_signed_zeros(case):
    # Each maximum of D(p) gives the first of equal values in both paths,
    # builtin max in the scalar API and one swapped np.maximum pass in the
    # kernel, so -0.0 and 0.0 come out alike.
    a, _ = case
    for row, prof in zip(a, gdof_ub_profiles(a)):
        want = [v for _, v in gdof_ub(_alpha(row)).per_perm]
        assert _bits(prof).tolist() == _bits(want).tolist()


def _index(p) -> int:
    return -1 if p is None else PERMUTATIONS.index(p)


def _extended_reference(row, tol) -> bool:
    """Whether some ordering meets the extended regime's two conditions,
    written out with regime.psi and builtin max."""
    alpha = _alpha(row)
    for p in PERMUTATIONS:
        u1, u2, _, v1, v2, v3 = p.take(alpha.flat())
        if u1 - v1 + tol >= psi(alpha, p) and v2 - u2 + tol >= max(v1, v3):
            return True
    return False


# In the extended regime only through both closed boundaries of ordering
# 12312: u1 - v1 = 1.25 = max(u3, u2) and v2 - u2 = 0.5 = max(v1, v3).
CLOSED_TIE = [1.75, 1.25, 1.0, 0.5, 1.75, 0.0]


@settings(max_examples=60, deadline=None)
@given(case=blocks(regime_boundary_grids(), tie_grids(), sweep_points()),
       tol=st.sampled_from([0.0, SWEEP_GRID_SLACK, 0.01]))
@example(case=(np.array([CLOSED_TIE, CLOSED_TIE[:5] + [-0.0]]), None), tol=0.0)
def test_regime_witnesses_match_scalar_witnesses(case, tol):
    a, _ = case
    extended, gsj = regime_witnesses(a, tol)
    assert extended.shape == gsj.shape == (len(a),)
    for row, we, wg in zip(a, extended.tolist(), gsj.tolist()):
        alpha = _alpha(row)
        assert we == _index(in_extended_regime(alpha, tol))
        assert wg == _index(in_gsj_regime(alpha, tol))
    # The rejection sampler's test skips the reference regime and the
    # witness index; its verdicts are the extended witnesses' and those of
    # the conditions written out.
    ok = _in_extended_rows(a, tol)
    assert ok.dtype == bool and ok.tolist() == (extended >= 0).tolist()
    assert ok.tolist() == [_extended_reference(row, tol) for row in a]


def test_kernels_equal_the_scalar_api_on_a_seeded_corpus():
    # np.log2 rounds differently from libm on about 5 in 10^5 of these
    # arguments (np.power on about 5 in 100), too rarely for the varying
    # draws above to catch a log2 swap every run. On these fixed draws a
    # swap of np.power or np.log2 into any kernel site fails: the profiles
    # against the scalar API on 8192 rows, and the screened extrema, whose
    # exact candidates take about two logs per row, against the profiles on
    # 98304 rows.
    rng = np.random.default_rng(21)
    a = 2.0 * rng.random((8192, 6))
    rho = 10.0 ** rng.uniform(0.01, 30.0, len(a))
    alphas = [_alpha(row) for row in a]
    assert sum_capacity_ub_profiles(a, rho).tolist() == [
        [v for _, v in sum_capacity_ub(r, alpha).per_perm] for r, alpha in zip(rho.tolist(), alphas)]
    assert tdma_tin_rate_profiles(a, rho).tolist() == [
        [tin_sum_rate(r, alpha, cfg) for cfg in IC_CONFIGS] for r, alpha in zip(rho.tolist(), alphas)]
    for _ in range(12):
        a = 2.0 * rng.random((8192, 6))
        rho = 10.0 ** rng.uniform(0.01, 30.0, len(a))
        r = libm_pow(rho[:, None], a)
        np.testing.assert_array_equal(
            sum_capacity_ub_min(a, rho, r),
            first_extremum(sum_capacity_ub_profiles(a, rho), lowest=True), strict=True)
        np.testing.assert_array_equal(
            tdma_tin_rate_max(r),
            first_extremum(tdma_tin_rate_profiles(a, rho), lowest=False), strict=True)


@given(rows=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), min_size=1, max_size=12)
       .flatmap(lambda row: st.lists(st.permutations(row), min_size=1, max_size=8)))
@example(rows=[[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])
def test_scalar_and_block_first_extremum_pick_the_same_entry(rows):
    # Rows of a few values, so with ties, signed zeros side by side and
    # equal values at different positions. The first position equal to the
    # block pick is its index, and its sign is the pick's.
    for lowest in (True, False):
        for row, want in zip(rows, first_extremum(np.array(rows), lowest).tolist()):
            k, v = first_best(list(enumerate(row)), lowest)
            assert k == row.index(want)
            assert _bits(v) == _bits(want)


# Exponents at the edges of the audits' boxes and of the input cap.
EDGES = [0.0, 2.0, DEFAULT_ALPHA_CAP]


@st.composite
def tied_grids(draw):
    """A grid on which several orderings and pairings tie exactly: all six
    entries equal, or the family [[1, x, y], [x, 1, y]] with repeated
    entries."""
    x = draw(st.sampled_from(EIGHTHS + EDGES))
    if draw(st.booleans()):
        return [x] * 6
    y = draw(st.sampled_from([x, 1.0, 0.5]))
    return [1.0, x, y, x, 1.0, y]


@st.composite
def screen_blocks(draw):
    """blocks() with tied grids and grids on the EDGES, a quarter of the rows
    at the largest SNR the audits accept (where no exponent exceeds
    DEFAULT_ALPHA_CAP, the cap that SNR is derived for) and, in half the
    blocks, one NaN or infinite exponent."""
    a, rho = draw(blocks(tied_grids(), st.lists(st.sampled_from(EDGES), min_size=6,
                                                max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho[(rng.random(len(rho)) < 0.25) & (a.max(axis=1) <= DEFAULT_ALPHA_CAP)] = MAX_RHO
    if rng.random() < 0.5:
        a[rng.integers(len(a)), rng.integers(6)] = (math.nan, math.inf)[rng.integers(2)]
    return a, rho


@settings(max_examples=60, deadline=None)
@given(case=screen_blocks())
# A product of two finite powers that overflows: inf with no warning, as
# Python's float * gives it.
@example(case=(np.array([[0.0, math.inf, 2.0, 0.0, 4.0, 0.0]]), np.array([MAX_RHO])))
def test_screened_extrema_equal_the_libm_profiles(case):
    a, rho = case
    r = libm_pow(rho[:, None], a)
    with np.errstate(invalid="ignore"):  # inf * 0 on an infinite exponent
        ub = sum_capacity_ub_min(a, rho, r)
        want_ub = first_extremum(sum_capacity_ub_profiles(a, rho), lowest=True)
        rate = tdma_tin_rate_max(r)
        want_rate = first_extremum(tdma_tin_rate_profiles(a, rho), lowest=False)
    # Exact equality, with NaN equal to NaN.
    np.testing.assert_array_equal(ub, want_ub, strict=True)
    np.testing.assert_array_equal(rate, want_rate, strict=True)


@pytest.mark.parametrize("box", [2.0, DEFAULT_ALPHA_CAP])
def test_screen_misses_libm_by_far_less_than_its_margin(box):
    rng = np.random.default_rng(7)
    a = box * rng.random((4096, 6))
    rho = 10.0 ** rng.uniform(0.01, math.log10(MAX_RHO), len(a))
    rho[:256] = MAX_RHO
    r = libm_pow(rho[:, None], a)
    screened_ub = bounds._bound_links(
        link_columns(a, kernels._PERM_LINKS), link_columns(r, kernels._PERM_LINKS),
        rho[:, None], np.power, np.log2, np.where)
    ub = sum_capacity_ub_profiles(a, rho)
    screened_rate = achievability._tin_rate_links(
        link_columns(r, kernels._CONFIG_LINKS), np.log2)
    for screened, exact in ((screened_ub, ub), (screened_rate, tdma_tin_rate_profiles(a, rho))):
        # A thousandth of the margin screened_first gives each extremum.
        assert (np.abs(screened - exact) < SCREEN_MARGIN / 1000 * (1.0 + np.abs(exact))).all()


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def test_libm_pow_is_builtin_pow_bit_for_bit():
    # np.power differs from libm on a few percent of these pairs on SIMD
    # machines, so swapping it in fails here.
    rng = np.random.default_rng(14)
    n = 60_000
    lg_cap = math.log10(MAX_RHO)
    base = np.concatenate((1.0 + (MAX_RHO - 1.0) * rng.random(n),
                           10.0 ** (lg_cap * (1.0 - rng.random(n))), [MAX_RHO] * 4096))
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan]
                        + [k / 8 for k in range(-16, 33)])
    expo = rng.uniform(-2.0 * DEFAULT_ALPHA_CAP, DEFAULT_ALPHA_CAP, len(base))
    pick = rng.random(len(base)) < 0.2
    expo[pick] = rng.choice(specials, pick.sum())
    grid = expo[:60_000].reshape(1200, 50)  # a base column broadcast over rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = libm_pow(base, expo)
        got_10 = libm_pow(10.0, expo)
        got_grid = libm_pow(base[:1200, None], grid)
    np.testing.assert_array_equal(_bits(got), _bits(list(map(pow, base.tolist(), expo.tolist()))))
    np.testing.assert_array_equal(_bits(got_10), _bits([10.0 ** e for e in expo.tolist()]))
    np.testing.assert_array_equal(_bits(got_grid), _bits(
        [[b ** e for e in row] for b, row in zip(base[:1200].tolist(), grid.tolist())]))


def test_libm_pow_overflows_as_builtin_pow():
    with pytest.raises(OverflowError):
        pow(1e300, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            libm_pow(np.array([1e300]), np.array([2.0]))
        with pytest.raises(OverflowError):
            libm_pow(10.0, np.array([1.0, 309.0]))
        # An infinite exponent or base is exact, not an overflow.
        assert libm_pow(np.array([2.0, math.inf]), np.array([math.inf, 2.0])).tolist() == [
            pow(2.0, math.inf), pow(math.inf, 2.0)]
