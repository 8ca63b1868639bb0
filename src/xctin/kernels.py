"""Block kernels: the link-level formulas of bounds, achievability and regime
over every row of an (n, 6) row-major exponent array a (rows as
AlphaMatrix.flat()).

Each formula is written once, in its scalar module, on the links of one
ordering or pairing, and computes through one channel.Arithmetic: the
scalar API passes it Python floats with channel.SCALAR, the kernels here
the gathered link columns of a with EXACT, so every entry is bit-identical
to the scalar value, and the audits' screen with SCREEN (see
screened_first). A product overflows to inf unwarned, as float * does (only
libm_pow raises, as ** does), and a NaN exponent, which the scalar API
refuses, makes D(p) NaN through np.maximum.
Column k of an (n, 12) profile belongs to PERMUTATIONS[k] and of an (n, 6)
one to IC_CONFIGS[k]; first_extremum gives a row's first extremum, as
channel.first_best does. The one regime kernel, _in_extended_rows, is the
rejection sampler's extended verdict; the sweep folds _witness_links itself.

This module, the table writer and the audits are the library's numpy; the
scalar API loads none of them.
"""

from __future__ import annotations

import math

import numpy as np

from .achievability import IC_CONFIGS, _tin_gdof_links, _tin_rate_links
from .bounds import PERMUTATIONS, _bound_links, _gdof_links
from .channel import N_RX, N_TX, Arithmetic
from .regime import _witness_links


def _link_table(items) -> np.ndarray:
    """Index table of the links each item's `take` picks: row k holds the
    row-major grid positions that items[k].take reads, in take order."""
    return np.array([item.take(range(N_RX * N_TX)) for item in items])


# 12 rows of 6 and 6 rows of 4.
_PERM_LINKS = _link_table(PERMUTATIONS)
_CONFIG_LINKS = _link_table(IC_CONFIGS)


def link_columns(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """For each link column of an index table, the (n, len(table)) array of
    that link gathered from every row of the (n, 6) row-major array x, as
    the items of one take from the transpose of x."""
    return np.ascontiguousarray(x.T)[table.T].transpose(0, 2, 1)


def first_maximum(x, y):
    """builtin max(x, y) elementwise: np.maximum gives its second of equal
    values, so swapped it gives the first, signed zeros as max does."""
    return np.maximum(y, x)


def link_entries(x: np.ndarray, table: np.ndarray, rows: np.ndarray,
                 items: np.ndarray) -> np.ndarray:
    """link_columns(x, table) at the entries (rows[k], items[k]) only: for
    each link column of the table, the (m,) array of that link of item
    items[k] gathered from row rows[k] of x."""
    return x[rows[:, None], table[items]].T


# np.power and np.log2 may dispatch to SIMD approximations that round
# differently from libm on some inputs, which shows at 12 printed digits.
# The block kernels therefore take every transcendental in a returned value
# through the libm routine that the scalar API's pow and math.log2 call, so
# both paths are bit-identical; + - * / and comparisons are exact in numpy
# already. np.float_power has no SIMD loop: its float64 loop calls the C
# pow of the same libm that Python's float ** calls, so libm_pow is one C
# loop. numpy has no documented float64 log2 loop that calls libm, so
# libm_log2 maps math.log2 over the elements. The tests in
# tests/test_block_kernels.py pin both against the builtins bit for bit.

def libm_pow(base, expo: np.ndarray) -> np.ndarray:
    """base ** expo elementwise for positive bases, base broadcast against
    expo, through libm's pow as Python's float ** computes it: a finite
    result is the same double, and an infinite one from a finite base and
    exponent raises OverflowError, with no RuntimeWarning."""
    with np.errstate(all="ignore", over="raise"):
        try:
            return np.float_power(base, expo)
        except FloatingPointError:
            raise OverflowError("libm_pow result out of range") from None


def libm_log2(x: np.ndarray) -> np.ndarray:
    """math.log2 of every element of x."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


EXACT = Arithmetic(np.where, first_maximum, libm_pow, libm_log2)
SCREEN = EXACT._replace(power=np.power, log2=np.log2)


# An audit reports only each row's minimum bound and maximum rate, so the
# block kernels screen every ordering or pairing with numpy's power and log2
# and evaluate through libm only the entries within SCREEN_MARGIN *
# (1 + |extremum|) of the row's screened extremum. numpy missed libm by at
# most 1.4e-14 bits on audit draws and 2.3e-13 bits (about one unit in the
# last place of a 2000-bit bound) with exponents up to DEFAULT_ALPHA_CAP at
# MAX_RHO_DB. Every term is a sum, product or quotient of positive numbers,
# so that error cannot grow, and the margin is over 10^4 times larger:
# every exact extremum is a candidate, and the first one is found bit for
# bit.
SCREEN_MARGIN = 1e-9


def screened_first(screened: np.ndarray, exact, lowest: bool) -> np.ndarray:
    """Each row's first minimum (lowest) or first maximum of an exact (n, m)
    profile, of which screened is an approximation with an error far below
    SCREEN_MARGIN * (1 + |extremum|).

    exact(rows, items) returns the exact entries at (rows[k], items[k]); it
    is called once, on the candidates: entries within the margin of their
    row's screened extremum, and every entry of a row with a non-finite
    screened value.
    """
    sign = 1.0 if lowest else -1.0
    score = sign * screened
    best = score.min(axis=1)
    with np.errstate(invalid="ignore"):  # -inf + inf on a non-finite row
        near = score <= (best + SCREEN_MARGIN * (1.0 + np.abs(best)))[:, None]
    near |= ~np.isfinite(score).all(axis=1)[:, None]
    rows, items = near.nonzero()
    values = np.full(screened.shape, sign * np.inf)
    values[rows, items] = exact(rows, items)
    return first_extremum(values, lowest)


def first_extremum(profiles: np.ndarray, lowest: bool) -> np.ndarray:
    """Each row's first minimum (lowest) or first maximum of an (n, m)
    profile, the entry channel.first_best picks from the row's (k, value)
    pairs."""
    first = profiles.argmin(axis=1) if lowest else profiles.argmax(axis=1)
    return profiles[np.arange(len(profiles)), first]


# ---------------------------------------------------------------- bounds

@np.errstate(over="ignore")
def sum_capacity_ub_profiles(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """B(p) in bits for every ordering and every row of a at the SNRs rho
    (shape (n,)); returns (n, 12)."""
    r = libm_pow(rho[:, None], a)
    return _bound_links(link_columns(a, _PERM_LINKS), link_columns(r, _PERM_LINKS),
                        rho[:, None], EXACT)


@np.errstate(over="ignore")
def sum_capacity_ub_min(a: np.ndarray, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """min_p B(p) of every row of a at the SNRs rho (shape (n,)), given its
    powers r = libm_pow(rho[:, None], a); bit-identical to the first minimum
    of sum_capacity_ub_profiles(a, rho). numpy screens the twelve orderings
    and libm evaluates only those that can be the minimum (see
    screened_first)."""
    screened = _bound_links(link_columns(a, _PERM_LINKS), link_columns(r, _PERM_LINKS),
                            rho[:, None], SCREEN)
    return screened_first(screened, lambda rows, perms: _bound_links(
        link_entries(a, _PERM_LINKS, rows, perms), link_entries(r, _PERM_LINKS, rows, perms),
        rho[rows], EXACT), lowest=True)


def gdof_ub_profiles(a: np.ndarray) -> np.ndarray:
    """D(p) for every ordering and every row of a; returns (n, 12)."""
    return _gdof_links(link_columns(a, _PERM_LINKS), EXACT)


# ---------------------------------------------------------------- achievability

def tdma_tin_rate_profiles(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """TIN sum rate in bits of every pairing and every row of a at the SNRs
    rho (shape (n,)); returns (n, 6)."""
    return _tin_rate_links(link_columns(libm_pow(rho[:, None], a), _CONFIG_LINKS), EXACT)


def tdma_tin_rate_max(r: np.ndarray) -> np.ndarray:
    """TDMA-TIN rate of every row of the powers r = libm_pow(rho[:, None], a);
    bit-identical to the first maximum of tdma_tin_rate_profiles(a, rho).
    numpy screens the six pairings and libm evaluates only those that can be
    the maximum (see screened_first)."""
    return screened_first(
        _tin_rate_links(link_columns(r, _CONFIG_LINKS), SCREEN),
        lambda rows, cfgs: _tin_rate_links(link_entries(r, _CONFIG_LINKS, rows, cfgs), EXACT),
        lowest=False)


def tdma_tin_gdof_profiles(a: np.ndarray) -> np.ndarray:
    """TIN GDoF of every pairing and every row of a; returns (n, 6)."""
    return _tin_gdof_links(link_columns(a, _CONFIG_LINKS), EXACT)


# ---------------------------------------------------------------- regime

def _in_extended_rows(a: np.ndarray) -> np.ndarray:
    """Whether each row of a is in the extended regime, the verdict of
    in_extended_regime at tol 0 through the same link-level test (only
    subtractions, additions and comparisons) without the reference regime's
    condition: the rejection sampler's test."""
    extended, _ = _witness_links(link_columns(a, _PERM_LINKS), 0.0, EXACT, reference=False)
    return extended.any(axis=1)
