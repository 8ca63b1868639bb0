"""Noisy-interference regime classification for the 3x2 X channel.

An exponent grid sits in the extended noisy-interference regime when some
ordering p = (i1, i2, i3, j1, j2) of transmitters and receivers satisfies

    a[j1][i1] - a[j2][i1] >= psi(alpha, p)
    a[j2][i2] - a[j1][i2] >= max{a[j2][i1], a[j2][i3]}

with the threshold psi = max{a[j1][i3] - (a[j2][i3] - a[j2][i1])^+,
a[j1][i2]}. Inside the regime TDMA-TIN attains the channel's GDoF,

    a[j1][i1] - a[j2][i1] + a[j2][i2] - a[j1][i2],

and the sum capacity within a constant gap. The stricter reference regime
of Geng, Sun and Jafar (IEEE Trans. Inf. Theory, 2015; tagged ``gsj`` in all
outputs) replaces psi by max{a[j1][i3], a[j1][i2]}, which is never smaller,
so it is contained in the extended regime.

Swapping ordering (i1, i2, i3, j1, j2) for (i2, i1, i3, j2, j1) trades the
reference regime's two conditions, so six of the twelve orderings decide
it; the extended regime's reduced threshold breaks that symmetry. Both
witnesses are still the first of all twelve orderings.

This module also hosts the hypothesis checker for the one-bit entropy-gap
side condition that underpins the mixing (d = 1) branches of the
side-information bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import _PICKS, TxPermutation, _genie_links, genie_params
from .channel import SCALAR, AlphaMatrix, ValidatedRecord, as_alpha, check_rho, check_snr, number
from .errors import NotApplicable, ValidationError


class RegimeVerdict(NamedTuple):
    """Memberships, their witness orderings, and the certified GDoF.

    in_gsj implies in_extended (regime inclusion). gdof_value is present
    exactly when in_extended holds and is evaluated at the extended witness.
    """

    in_extended: bool
    in_gsj: bool
    witness_extended: TxPermutation | None
    witness_gsj: TxPermutation | None
    gdof_value: float | None


class _AuxChannelPair(NamedTuple):
    h1_sq: float
    h2_sq: float
    h3_sq: float
    h4_sq: float
    rho: float


class AuxChannelPair(ValidatedRecord, _AuxChannelPair):
    """Power gains of two noisy observations of one transmit pair.

    Models Y_A = h1*X_A + h2*X_B + Z_A and Y_B = h3*X_A + h4*X_B + Z_B with
    unit-variance noises and per-symbol power rho on each input; only the
    squared magnitudes matter.
    """

    __slots__ = ()

    def __new__(cls, h1_sq, h2_sq, h3_sq, h4_sq, rho):
        given = (h1_sq, h2_sq, h3_sq, h4_sq)
        powers = tuple(map(number, given, cls._fields))
        for name, v, x in zip(cls._fields, given, powers):
            if not (math.isfinite(x) and x >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
        return tuple.__new__(cls, (*powers, check_rho(rho)))


def psi(alpha: AlphaMatrix, p: TxPermutation) -> float:
    """Threshold max{a[j1][i3] - (a[j2][i3] - a[j2][i1])^+, a[j1][i2]}.

    The first argument can go negative and is deliberately not clipped; the
    outer max with a[j1][i2] >= 0 makes clipping immaterial.
    """
    _, u2, u3, v1, _, v3 = p.take(as_alpha(alpha).flat())
    diff = v3 - v1
    first = u3 - (diff if diff > 0.0 else 0.0)
    return first if first > u2 else u2


def check_tol(tol: float) -> float:
    """tol as a float when it is finite and >= 0; a NaN, negative or infinite
    slack would silently put every grid outside or inside the regimes."""
    t = number(tol, "tol")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    return t


def _first_witnesses(alpha: AlphaMatrix, tol: float) -> tuple[TxPermutation | None, ...]:
    """First orderings (lexicographic) meeting both conditions of the
    extended and of the reference regime, each or None, in one pass that
    ends at the first reference witness, which is an extended one too."""
    tol = check_tol(tol)
    a = as_alpha(alpha).flat()
    pe = None
    for p, take in _PICKS:
        extended, gsj = _witness_links(take(a), tol, SCALAR)
        if extended and pe is None:
            pe = p
        if gsj:
            return pe, p
    return pe, None


def in_extended_regime(alpha: AlphaMatrix, tol: float = 0.0) -> TxPermutation | None:
    """First ordering (lexicographic) meeting both regime conditions, or None.

    Boundaries are closed (>=); tol adds slack for classifying near-boundary
    floating-point points consistently (default 0: take the conditions
    literally); it must be finite and >= 0.
    """
    return _first_witnesses(alpha, tol)[0]


def in_gsj_regime(alpha: AlphaMatrix, tol: float = 0.0) -> TxPermutation | None:
    """Witness for the stricter reference regime (threshold without the
    positive-part reduction), or None."""
    return _first_witnesses(alpha, tol)[1]


def classify(alpha: AlphaMatrix, tol: float = 0.0) -> RegimeVerdict:
    """Full verdict: both memberships, witnesses, and the certified GDoF."""
    pe, pg = _first_witnesses(alpha, tol)
    gdof = None
    if pe is not None:
        u1, u2, _, v1, v2, _ = pe.take(as_alpha(alpha).flat())
        gdof = u1 - v1 + v2 - u2
    return RegimeVerdict(pe is not None, pg is not None, pe, pg, gdof)


def _witness_links(links, tol: float, ar, reference=True):
    """Whether the extended and (when reference, else None) the reference
    regime conditions hold at slack tol, from the exponents of (j1, i1),
    (j1, i2), (j1, i3), (j2, i1), (j2, i2), (j2, i3), as floats, gathered
    columns or any broadcastable operands, through the channel.Arithmetic ar.
    The two thresholds differ only in the (v3 - v1)^+ reduction."""
    u1, u2, u3, v1, v2, v3 = links
    where, maximum = ar.where, ar.maximum
    cross = v2 - u2 + tol >= maximum(v1, v3)
    direct = u1 - v1 + tol
    first = where(v3 > v1, u3 - (v3 - v1), u3)
    extended = (direct >= maximum(first, u2)) & cross
    return extended, ((direct >= maximum(u3, u2)) & cross if reference else None)


def entropy_gap_conditions_hold(pair: AuxChannelPair, rel_tol: float = 0.0) -> bool:
    """Whether |h1|^2 <= |h3|^2 <= |h4|^2/(rho*|h2|^2) and 1 < rho*|h3|^2.

    The chained inequalities are non-strict and accept a relative slack
    rel_tol; the lower bound on rho*|h3|^2 is strict, as required for the
    noise-rescaling step behind the condition.
    """
    if pair.h2_sq == 0.0:
        mix_bound = math.inf
    else:
        mix_bound = pair.h4_sq / (pair.rho * pair.h2_sq)
    return (pair.h1_sq <= pair.h3_sq * (1.0 + rel_tol)
            and pair.h3_sq <= mix_bound * (1.0 + rel_tol)
            and pair.rho * pair.h3_sq > 1.0)


def genie_aux_pair(rho: float, alpha: AlphaMatrix, p: TxPermutation) -> AuxChannelPair:
    """Map the side-information construction for ordering p onto the
    two-observation template.

    The granted observation is c*(h[j1][i1]*X_{i1} + d*h[j1][i3]*X_{i3}) plus
    fresh noise, compared against the cross observation at receiver j2, so
    h1 = c*h[j1][i1], h2 = c*h[j1][i3], h3 = h[j2][i1], h4 = h[j2][i3] with
    |h[j][i]|^2 = rho**(a[j][i] - 1).
    """
    a = as_alpha(alpha).flat()
    rho = check_snr(rho, a)
    links = p.take(a)
    u1, _, u3, v1, _, v3 = links
    c_sq, _, _ = _genie_links(links, rho, SCALAR)
    return AuxChannelPair(
        h1_sq=c_sq * rho ** (u1 - 1.0),
        h2_sq=c_sq * rho ** (u3 - 1.0),
        h3_sq=rho ** (v1 - 1.0),
        h4_sq=rho ** (v3 - 1.0),
        rho=rho,
    )


def genie_satisfies_entropy_gap(rho: float, alpha: AlphaMatrix, p: TxPermutation,
                                rel_tol: float = 1e-9) -> bool:
    """Check the entropy-gap side condition for the mixing branches.

    Only the d = 1 branches of the parameter rule invoke the condition;
    raises NotApplicable for d = 0. Two of the mapped inequalities hold with
    exact equality in real arithmetic (always in case 3, and the first one
    in case 2), so the default slack absorbs floating-point rounding.
    """
    gp = genie_params(alpha, p, rho)
    if gp.d == 0:
        raise NotApplicable("the side condition is only invoked on the d = 1 branches")
    return entropy_gap_conditions_hold(genie_aux_pair(rho, alpha, p), rel_tol=rel_tol)
