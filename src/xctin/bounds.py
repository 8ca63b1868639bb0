"""Genie-aided sum-capacity and GDoF upper bounds for the 3x2 X channel.

Each bound is indexed by an ordering p = (i1, i2, i3, j1, j2) of the three
transmitters and the two receivers. Receiver j1 is granted a noise-corrupted,
scaled observation of transmitter i1 (optionally mixed with transmitter i3),
receiver j2 is granted the cross observation of transmitter i2, and the
scaling power gain c^2 together with the mixing flag d is chosen by a
three-case rule on the exponents so that the side-information terms
telescope. Writing r[j][i] = rho**a[j][i], the finite-SNR sum-capacity bound
for one ordering is

  B(p) = log2(1 + r[j1][i2] + (1-d)*r[j1][i3]
              + (r[j1][i1] + d*r[j1][i3]) / (1 + c^2*(r[j1][i1] + d*r[j1][i3])))
       + log2(1 + r[j2][i1] + r[j2][i3] + r[j2][i2] / (1 + r[j1][i2]))
       + 1

and the sum capacity is at most the minimum of B over the twelve orderings.
Normalizing by log2(rho) and letting rho grow turns B(p) into the GDoF bound

  D(p) = max{a[j2][i1], a[j2][i3], a[j2][i2] - a[j1][i2]}
       + max{a[j1][i2], a[j1][i1] - a[j2][i1],
             a[j1][i3] - (a[j2][i3] - a[j2][i1])^+},

whose two case-specific forms (split on the sign of a[j2][i3] - a[j2][i1])
are exposed separately for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

from .channel import (AlphaMatrix, ValidatedRecord, check_rho, check_snr, first_best,
                      link_picker, scalar_where)
from .errors import CaseMismatch, ValidationError


class _TxPermutation(NamedTuple):
    i1: int
    i2: int
    i3: int
    j1: int
    j2: int


class TxPermutation(ValidatedRecord, _TxPermutation):
    """Ordering (i1, i2, i3, j1, j2): all transmitters and receivers, distinct.

    take(x) picks the links (j1, i1), (j1, i2), (j1, i3), (j2, i1), (j2, i2),
    (j2, i3), in that order, out of a row-major grid such as AlphaMatrix.flat().
    """

    __slots__ = ()

    def __new__(cls, i1, i2, i3, j1, j2):
        if {i1, i2, i3} != {1, 2, 3}:
            raise ValidationError(f"(i1, i2, i3) must enumerate {{1,2,3}}, got "
                                  f"({i1}, {i2}, {i3})")
        if {j1, j2} != {1, 2}:
            raise ValidationError(f"(j1, j2) must enumerate {{1,2}}, got ({j1}, {j2})")
        return tuple.__new__(cls, (i1, i2, i3, j1, j2))

    @property
    def take(self) -> operator.itemgetter:
        return _perm_picker(self)

    def label(self) -> str:
        return f"{self.i1}{self.i2}{self.i3}{self.j1}{self.j2}"

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.i1, self.i2, self.i3, self.j1, self.j2)


@functools.cache
def _perm_picker(p: TxPermutation) -> operator.itemgetter:
    """TxPermutation.take, made once per ordering."""
    return link_picker((j, i) for j in (p.j1, p.j2) for i in (p.i1, p.i2, p.i3))


class _GenieParams(NamedTuple):
    c_sq: float
    d: int
    case_id: int


class GenieParams(ValidatedRecord, _GenieParams):
    """Side-information scaling power c^2, mixing flag d, and the branch taken."""

    __slots__ = ()

    def __new__(cls, c_sq, d, case_id):
        if d not in (0, 1) or case_id not in (1, 2, 3):
            raise ValidationError("d must be 0/1 and case_id one of 1, 2, 3")
        if (d == 0) != (case_id == 1):
            raise ValidationError("d = 0 exactly in case 1")
        if not (math.isfinite(c_sq) and c_sq > 0.0):
            raise ValidationError(f"c_sq must be finite and > 0, got {c_sq!r}")
        return tuple.__new__(cls, (c_sq, d, case_id))


class BoundResult(NamedTuple):
    """Minimum over the twelve orderings, its argmin, and the full profile."""

    value: float
    argmin: TxPermutation
    per_perm: tuple[tuple[TxPermutation, float], ...]


# All twelve orderings, lexicographic in (i1, i2, i3, j1, j2).
PERMUTATIONS: tuple[TxPermutation, ...] = tuple(
    TxPermutation(i1, i2, i3, j1, j2)
    for (i1, i2, i3) in itertools.permutations((1, 2, 3))
    for (j1, j2) in ((1, 2), (2, 1))
)
_PICKS = tuple((p, p.take) for p in PERMUTATIONS)


def genie_params(alpha: AlphaMatrix, p: TxPermutation, rho: float) -> GenieParams:
    """Pick the side-information parameters (c^2, d) for ordering p.

    Case 1, weak third cross link (a[j2][i3] <= a[j2][i1]):
        c^2 = rho**(a[j2][i1] - a[j1][i1]), d = 0.
    Case 2, strong third cross link with the scaling still anchored at i1:
        same c^2 with d = 1, taken when
        a[j2][i1] - a[j1][i1] <= a[j2][i3] - a[j1][i3] - a[j2][i1].
    Case 3, otherwise: c^2 = rho**(a[j2][i3] - a[j2][i1] - a[j1][i3]), d = 1.

    Boundary ties resolve in this order (both comparisons are <=); at the
    case-2/case-3 tie the two exponents coincide anyway.
    """
    a = alpha.flat()
    c_sq, case1, at_i1 = _genie_links(p.take(a), check_snr(rho, a), pow, scalar_where)
    return GenieParams(c_sq, 1 - case1, 3 - case1 - at_i1)


def genie_params_from_gains(gains, p: TxPermutation, rho: float) -> GenieParams:
    """Side-information parameters computed directly from complex gains.

    Same three-branch rule stated on the raw gains:
        case 1: |h[j2][i3]| <= |h[j2][i1]|, c = h[j2][i1]/h[j1][i1];
        case 2: rho*|h[j2][i1]|^4/|h[j1][i1]|^2 <= |h[j2][i3]|^2/|h[j1][i3]|^2,
                same c;
        case 3: otherwise, c = h[j2][i3] / (h[j2][i1] * sqrt(rho) * h[j1][i3]).
    Only |c|^2 matters downstream, so the phases drop out here. Under the
    exponent parametrization this agrees with `genie_params` up to floating-
    point rounding.
    """
    rho = check_rho(rho)
    try:
        h_j1i1_sq, _, h_j1i3_sq, h_j2i1_sq, _, h_j2i3_sq = (
            abs(h) ** 2 for h in p.take(tuple(gains[0]) + tuple(gains[1])))
        if min(h_j1i1_sq, h_j1i3_sq, h_j2i1_sq, h_j2i3_sq) <= 0.0:
            raise ValidationError("gains must be nonzero")
        if h_j2i3_sq <= h_j2i1_sq:
            return GenieParams(h_j2i1_sq / h_j1i1_sq, 0, 1)
        case2 = rho * h_j2i1_sq ** 2 / h_j1i1_sq <= h_j2i3_sq / h_j1i3_sq
    except OverflowError:
        raise ValidationError(f"powers of the gains overflow: {gains!r}") from None
    if case2:
        return GenieParams(h_j2i1_sq / h_j1i1_sq, 1, 2)
    return GenieParams(h_j2i3_sq / (rho * h_j2i1_sq * h_j1i3_sq), 1, 3)


def _first_min(per_perm) -> BoundResult:
    """The profile with its first (lexicographic) minimum."""
    best_p, best = first_best(per_perm, lowest=True)
    return BoundResult(best, best_p, per_perm)


def sum_capacity_ub_single(rho: float, alpha: AlphaMatrix, p: TxPermutation) -> float:
    """Sum-capacity bound B(p) in bits for one ordering (always > 1)."""
    a = alpha.flat()
    rho = check_snr(rho, a)
    return _bound_links(p.take(a), p.take([rho ** x for x in a]), rho, pow, math.log2,
                        scalar_where)


def sum_capacity_ub(rho: float, alpha: AlphaMatrix) -> BoundResult:
    """min_p B(p) with the full twelve-entry profile.

    Ties break to the lexicographically first ordering; the profile is always
    materialized so audits can report per-ordering diagnostics.
    """
    a = alpha.flat()
    rho = check_snr(rho, a)
    pw = [rho ** x for x in a]
    return _first_min(tuple([(p, _bound_links(take(a), take(pw), rho, pow, math.log2,
                                              scalar_where)) for p, take in _PICKS]))


def gdof_ub_case1(alpha: AlphaMatrix, p: TxPermutation) -> float:
    """GDoF bound branch for a strong third cross link (a[j2][i3] > a[j2][i1])."""
    u1, u2, u3, v1, v2, v3 = p.take(alpha.flat())
    if not v3 > v1:
        raise CaseMismatch(f"case 1 needs a[j2][i3] > a[j2][i1], got {v3!r} <= {v1!r}")
    return max(v1, v3, v2 - u2) + max(u2, u1 - v1, u3 - (v3 - v1))


def gdof_ub_case2(alpha: AlphaMatrix, p: TxPermutation) -> float:
    """GDoF bound branch for a weak third cross link (a[j2][i3] <= a[j2][i1])."""
    u1, u2, u3, v1, v2, v3 = p.take(alpha.flat())
    if not v3 <= v1:
        raise CaseMismatch(f"case 2 needs a[j2][i3] <= a[j2][i1], got {v3!r} > {v1!r}")
    return max(v1, v3, v2 - u2) + max(u2, u3, u1 - v1)


def gdof_ub_single(alpha: AlphaMatrix, p: TxPermutation) -> float:
    """Combined GDoF bound D(p); the positive part unifies the two branches."""
    return _gdof_links(p.take(alpha.flat()), scalar_where, max)


def gdof_ub(alpha: AlphaMatrix) -> BoundResult:
    """min_p D(p) with the full profile; ties break lexicographically."""
    a = alpha.flat()
    return _first_min(tuple([(p, _gdof_links(take(a), scalar_where, max)) for p, take in _PICKS]))


# ---------------------------------------------------------- link-level formulas
#
# Each formula is written once, on the links of one ordering, with its
# selections, maxima, powers and logarithms taken as arguments: the scalar
# API passes Python floats with channel.scalar_where, max, pow and
# math.log2, and the block kernels (see kernels) gathered link columns with
# numpy's.


def _genie_links(links, rho, power, where):
    """The genie rule of genie_params on the exponents of (j1, i1), (j1, i2),
    (j1, i3), (j2, i1), (j2, i2), (j2, i3): returns c^2, whether case 1
    holds (d = 0) and whether c^2 is scaled at i1 (cases 1 and 2; case 3
    scales it at i3)."""
    u1, _, u3, v1, _, v3 = links
    case1 = v3 <= v1
    at_i1 = case1 | (v1 - u1 <= v3 - u3 - v1)
    return power(rho, where(at_i1, v1 - u1, v3 - v1 - u3)), case1, at_i1


def _bound_links(links, powers, rho, power, log2, where):
    """B(p) from the links' exponents and their powers rho**a, in
    _genie_links order, with rho broadcastable to them; power and log2 take
    c^2 and the logs."""
    c_sq, case1, _ = _genie_links(links, rho, power, where)
    d = where(case1, 0.0, 1.0)
    r_j1i1, r_j1i2, r_j1i3, r_j2i1, r_j2i2, r_j2i3 = powers
    genie_power = r_j1i1 + d * r_j1i3
    term1 = log2(1.0 + r_j1i2 + (1.0 - d) * r_j1i3
                 + genie_power / (1.0 + c_sq * genie_power))
    term2 = log2(1.0 + r_j2i1 + r_j2i3 + r_j2i2 / (1.0 + r_j1i2))
    return term1 + term2 + 1.0


def _gdof_links(links, where, maximum):
    """D(p) from the exponents of (j1, i1), (j1, i2), (j1, i3), (j2, i1),
    (j2, i2), (j2, i3), as floats, gathered columns or any broadcastable
    operands; the positive part unifies the two case forms. maximum(x, y)
    gives the first of equal values, as builtin max does, signed zeros too."""
    u1, u2, u3, v1, v2, v3 = links
    diff = v3 - v1
    return (maximum(maximum(v1, v3), v2 - u2)
            + maximum(maximum(u2, u1 - v1), u3 - where(diff > 0.0, diff, 0.0)))
