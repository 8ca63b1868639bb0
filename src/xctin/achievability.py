"""TDMA-TIN achievability for the 3x2 Gaussian X channel.

The scheme activates one embedded two-user interference channel at a time:
transmitter i1 serves receiver j1, transmitter i2 serves receiver j2
(i1 != i2, j1 != j2), the third transmitter stays silent, and each receiver
treats the one remaining cross signal as noise. Time sharing over the six
possible pairings is linear in the time fractions, so the optimal schedule
runs a single best pairing full-time. The resulting sum rate of a pairing is

    log2(1 + rho**a[j1][i1] / (1 + rho**a[j1][i2]))
      + log2(1 + rho**a[j2][i2] / (1 + rho**a[j2][i1]))

and its high-SNR slope (GDoF) is

    (a[j1][i1] - a[j1][i2])^+ + (a[j2][i2] - a[j2][i1])^+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import (AlphaMatrix, check_rho, libm_log2, libm_pow,
                      link_columns, link_entries, link_picker, link_table,
                      scalar_where, screened_first)
from .errors import ValidationError


@dataclass(frozen=True)
class IcConfig:
    """One embedded two-user pairing: Tx i1 -> Rx j1 and Tx i2 -> Rx j2.

    Canonical form fixes j1 = 1; the tuple with both pairs swapped denotes
    the same interference channel and the same sum rate, so six canonical
    configurations cover all pairings. take(x) picks each receiver's desired
    and cross link, (j1, i1), (j1, i2), (j2, i2), (j2, i1), out of a
    row-major grid such as AlphaMatrix.flat().
    """

    i1: int
    i2: int
    j1: int
    j2: int
    take: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.i1 not in (1, 2, 3) or self.i2 not in (1, 2, 3) or self.i1 == self.i2:
            raise ValidationError(f"i1, i2 must be distinct in {{1,2,3}}, got ({self.i1}, {self.i2})")
        if (self.j1, self.j2) != (1, 2):
            raise ValidationError("canonical configurations have (j1, j2) = (1, 2)")
        object.__setattr__(self, "take", link_picker(
            ((self.j1, self.i1), (self.j1, self.i2), (self.j2, self.i2), (self.j2, self.i1))))

    def label(self) -> str:
        return f"{self.i1}{self.i2}{self.j1}{self.j2}"

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.i1, self.i2, self.j1, self.j2)


@dataclass(frozen=True)
class AchievabilityResult:
    """Best value over the six pairings and the pairing attaining it."""

    value: float
    argmax: IcConfig


IC_CONFIGS: tuple[IcConfig, ...] = tuple(
    IcConfig(i1, i2, 1, 2) for i1 in (1, 2, 3) for i2 in (1, 2, 3) if i2 != i1
)
_PICKS = tuple((cfg, cfg.take) for cfg in IC_CONFIGS)
# (6, 4): row k holds the grid positions IC_CONFIGS[k].take reads.
_CONFIG_LINKS = link_table(IC_CONFIGS)


def enumerate_ic_configs() -> tuple[IcConfig, ...]:
    """The six canonical pairings, in lexicographic (i1, i2) order."""
    return IC_CONFIGS


def _first_max(kernel, grid) -> AchievabilityResult:
    """First (lexicographic) pairing with the largest kernel(take(grid))."""
    best = -math.inf
    best_cfg = IC_CONFIGS[0]
    for cfg, take in _PICKS:
        v = kernel(take(grid))
        if v > best:
            best, best_cfg = v, cfg
    return AchievabilityResult(best, best_cfg)


def tin_sum_rate(rho: float, alpha: AlphaMatrix, cfg: IcConfig) -> float:
    """Sum rate in bits of one pairing with interference treated as noise."""
    rho = check_rho(rho)
    return _tin_rate_links([rho ** x for x in cfg.take(alpha.flat())], math.log2)


def tdma_tin_rate(rho: float, alpha: AlphaMatrix) -> AchievabilityResult:
    """Best TIN sum rate over the six pairings.

    Ties break to the lexicographically first (i1, i2).
    """
    rho = check_rho(rho)
    return _first_max(lambda pw: _tin_rate_links(pw, math.log2),
                      [rho ** x for x in alpha.flat()])


def tdma_tin_gdof_config(alpha: AlphaMatrix, cfg: IcConfig) -> float:
    """GDoF of one pairing: (a[j1][i1]-a[j1][i2])^+ + (a[j2][i2]-a[j2][i1])^+."""
    return _tin_gdof_links(cfg.take(alpha.flat()), scalar_where)


def tdma_tin_gdof(alpha: AlphaMatrix) -> AchievabilityResult:
    """Best pairing GDoF; ties break to the lexicographically first (i1, i2)."""
    return _first_max(lambda links: _tin_gdof_links(links, scalar_where), alpha.flat())


# ------------------------------------------- link-level formulas, block kernels
#
# Each formula is written once, on the links of one pairing, with its
# selections and logarithms taken as arguments. The scalar API passes
# Python floats with channel.scalar_where and math.log2; the block kernels
# pass the gathered link columns of an (n, 6) row-major exponent array a
# (rows as AlphaMatrix.flat()) with np.where and libm's logarithm (numpy's
# only in the audits' screen, see channel.screened_first), so every entry
# is bit-identical to the scalar value. Column k of a returned (n, 6)
# profile belongs to IC_CONFIGS[k]; argmax along a row gives the first
# maximum, as _first_max does.


def _tin_rate_links(powers, log2):
    """TIN sum rate from the powers rho**a of each receiver's desired and
    cross link, (j1, i1), (j1, i2), (j2, i2), (j2, i1); log2 takes the
    logs."""
    des1, cross1, des2, cross2 = powers
    return log2(1.0 + des1 / (1.0 + cross1)) + log2(1.0 + des2 / (1.0 + cross2))


def tdma_tin_rate_profiles(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """TIN sum rate in bits of every pairing and every row of a at the SNRs
    rho (shape (n,)); returns (n, 6)."""
    return _tin_rate_links(link_columns(libm_pow(rho[:, None], a), _CONFIG_LINKS), libm_log2)


def tdma_tin_rate_max(r: np.ndarray) -> np.ndarray:
    """TDMA-TIN rate of every row of the powers r = libm_pow(rho[:, None], a);
    bit-identical to the first maximum of tdma_tin_rate_profiles(a, rho).
    numpy screens the six pairings and libm evaluates only those that can be
    the maximum (see channel.screened_first)."""
    return screened_first(
        _tin_rate_links(link_columns(r, _CONFIG_LINKS), np.log2),
        lambda rows, cfgs: _tin_rate_links(link_entries(r, _CONFIG_LINKS, rows, cfgs), libm_log2),
        lowest=False)


def _tin_gdof_links(links, where=np.where):
    """TIN GDoF from the exponents of each receiver's desired and cross link,
    (j1, i1), (j1, i2), (j2, i2), (j2, i1), as floats, gathered columns or
    any broadcastable operands."""
    des1, cross1, des2, cross2 = links
    x = des1 - cross1
    y = des2 - cross2
    return where(x > 0.0, x, 0.0) + where(y > 0.0, y, 0.0)


def tdma_tin_gdof_profiles(a: np.ndarray) -> np.ndarray:
    """TIN GDoF of every pairing and every row of a; returns (n, 6)."""
    return _tin_gdof_links(link_columns(a, _CONFIG_LINKS))
