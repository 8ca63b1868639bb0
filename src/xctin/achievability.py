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

import functools
import operator
from typing import NamedTuple

from .channel import (SCALAR, AlphaMatrix, ValidatedRecord, as_alpha, check_snr, first_best,
                      link_picker, number)
from .errors import ValidationError


class _IcConfig(NamedTuple):
    i1: int
    i2: int
    j1: int
    j2: int


class IcConfig(ValidatedRecord, _IcConfig):
    """One embedded two-user pairing of integers: Tx i1 -> Rx j1 and Tx i2 -> Rx j2.

    Canonical form fixes j1 = 1; the tuple with both pairs swapped denotes
    the same interference channel and the same sum rate, so six canonical
    configurations cover all pairings. take(x) picks each receiver's desired
    and cross link, (j1, i1), (j1, i2), (j2, i2), (j2, i1), out of a
    row-major grid such as AlphaMatrix.flat().
    """

    __slots__ = ()

    def __new__(cls, i1, i2, j1, j2):
        i1, i2, j1, j2 = (number(x, name, convert=operator.index)
                          for x, name in zip((i1, i2, j1, j2), cls._fields))
        if i1 not in (1, 2, 3) or i2 not in (1, 2, 3) or i1 == i2:
            raise ValidationError(f"i1, i2 must be distinct in {{1,2,3}}, got ({i1}, {i2})")
        if (j1, j2) != (1, 2):
            raise ValidationError("canonical configurations have (j1, j2) = (1, 2)")
        return tuple.__new__(cls, (i1, i2, j1, j2))

    @property
    def take(self) -> operator.itemgetter:
        return _config_picker(self)

    def label(self) -> str:
        return f"{self.i1}{self.i2}{self.j1}{self.j2}"


@functools.cache
def _config_picker(cfg: IcConfig) -> operator.itemgetter:
    """IcConfig.take, made once per pairing."""
    return link_picker(((cfg.j1, cfg.i1), (cfg.j1, cfg.i2), (cfg.j2, cfg.i2), (cfg.j2, cfg.i1)))


class AchievabilityResult(NamedTuple):
    """Best value over the six pairings and the pairing attaining it."""

    value: float
    argmax: IcConfig


# The six canonical pairings, in lexicographic (i1, i2) order.
IC_CONFIGS: tuple[IcConfig, ...] = tuple(
    IcConfig(i1, i2, 1, 2) for i1 in (1, 2, 3) for i2 in (1, 2, 3) if i2 != i1
)
_PICKS = tuple((cfg, cfg.take) for cfg in IC_CONFIGS)


def _first_max(kernel, grid) -> AchievabilityResult:
    """First (lexicographic) pairing with the largest kernel(take(grid))."""
    best_cfg, best = first_best([(cfg, kernel(take(grid))) for cfg, take in _PICKS],
                                lowest=False)
    return AchievabilityResult(best, best_cfg)


def tin_sum_rate(rho: float, alpha: AlphaMatrix, cfg: IcConfig) -> float:
    """Sum rate in bits of one pairing with interference treated as noise."""
    links = cfg.take(as_alpha(alpha).flat())
    rho = check_snr(rho, links)
    return _tin_rate_links([rho ** x for x in links], SCALAR)


def tdma_tin_rate(rho: float, alpha: AlphaMatrix) -> AchievabilityResult:
    """Best TIN sum rate over the six pairings.

    Ties break to the lexicographically first (i1, i2).
    """
    a = as_alpha(alpha).flat()
    rho = check_snr(rho, a)
    return _first_max(lambda pw: _tin_rate_links(pw, SCALAR), [rho ** x for x in a])


def tdma_tin_gdof_config(alpha: AlphaMatrix, cfg: IcConfig) -> float:
    """GDoF of one pairing: (a[j1][i1]-a[j1][i2])^+ + (a[j2][i2]-a[j2][i1])^+."""
    return _tin_gdof_links(cfg.take(as_alpha(alpha).flat()), SCALAR)


def tdma_tin_gdof(alpha: AlphaMatrix) -> AchievabilityResult:
    """Best pairing GDoF; ties break to the lexicographically first (i1, i2)."""
    return _first_max(lambda links: _tin_gdof_links(links, SCALAR), as_alpha(alpha).flat())


# ---------------------------------------------------------- link-level formulas
# Each formula is written once, on the links of one pairing, and computes
# through one channel.Arithmetic ar, on floats or link columns (see kernels).


def _tin_rate_links(powers, ar):
    """TIN sum rate from the powers rho**a of each receiver's desired and
    cross link, (j1, i1), (j1, i2), (j2, i2), (j2, i1)."""
    des1, cross1, des2, cross2 = powers
    return ar.log2(1.0 + des1 / (1.0 + cross1)) + ar.log2(1.0 + des2 / (1.0 + cross2))


def _tin_gdof_links(links, ar):
    """TIN GDoF from the exponents of each receiver's desired and cross link,
    (j1, i1), (j1, i2), (j2, i2), (j2, i1), as floats, gathered columns or
    any broadcastable operands."""
    des1, cross1, des2, cross2 = links
    x = des1 - cross1
    y = des2 - cross2
    return ar.where(x > 0.0, x, 0.0) + ar.where(y > 0.0, y, 0.0)
