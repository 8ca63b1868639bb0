"""Channel parametrization for the 3x2 Gaussian X channel.

Three transmitters send to two receivers over static complex gains h[j][i]
(receiver j in {1,2}, transmitter i in {1,2,3}) with a common transmit SNR
rho > 1 and unit-variance noise. In the interference-limited setting every
received power ratio rho*|h[j][i]|^2 exceeds 1 and is summarized by the
link-strength exponent

    alpha[j][i] = log2(rho * |h[j][i]|^2) / log2(rho),

so that rho**alpha[j][i] recovers rho*|h[j][i]|^2 exactly. All rates in this
package are in bits (base-2 logarithms throughout).
"""

from __future__ import annotations

import json
import math
import operator
import sys
from typing import Callable, NamedTuple

from .errors import DegenerateSnr, NotInterferenceLimited, ValidationError

N_RX = 2
N_TX = 3

# rho**alpha must stay finite in double precision at the audit SNRs, so
# scenario ingestion rejects exponents above this cap.
DEFAULT_ALPHA_CAP = 4.0

# Largest SNR whose powers rho**alpha, alpha <= DEFAULT_ALPHA_CAP, keep every
# sum in the rate and the bound finite. The largest such sum, in B(p), is
# 1 + r + r + r/(1 + r) < 4*r with r = rho**DEFAULT_ALPHA_CAP, hence the
# factor 4 of headroom below sys.float_info.max (about 769 dB).
MAX_RHO_DB = 10.0 * math.log10(sys.float_info.max / 4.0) / DEFAULT_ALPHA_CAP


def rho_from_db(rho_db: float) -> float:
    """Convert an SNR in dB, finite and at most MAX_RHO_DB, to linear scale:
    rho = 10**(dB/10)."""
    try:
        db = float(rho_db)
    except OverflowError:
        db = math.inf
    if not (math.isfinite(db) and db <= MAX_RHO_DB):
        raise ValidationError(
            f"rho_db must be finite and at most {MAX_RHO_DB:.6g}, got {rho_db!r}")
    return 10.0 ** (db / 10.0)


def float_or_nan(x) -> float:
    """float(x), or nan, which every range check rejects, when x is no
    number or an int too large for a float."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_rho(rho) -> float:
    """rho as a float when it is a finite number > 1, the transmit SNRs the
    exponent parametrization admits; anything else raises DegenerateSnr."""
    r = float_or_nan(rho)
    if not 1.0 < r < math.inf:
        raise DegenerateSnr(f"rho must be finite and > 1, got {rho!r}")
    return r


# Largest SNR any layer accepts, as rho_from_db(MAX_RHO_DB) admits it.
MAX_RHO = rho_from_db(MAX_RHO_DB)
# Largest power rho**alpha the scalar API takes: that of the largest SNR and
# exponent the CLI accepts. Every sum in the rate and the bound is at most
# 1 + 3 times it, which stays finite.
_MAX_POWER = MAX_RHO ** DEFAULT_ALPHA_CAP


def check_snr(rho, exponents) -> float:
    """check_rho(rho) for an evaluation at the given exponents (finite and
    >= 0): rho**x for the largest of them, x, must also be at most the power
    of MAX_RHO_DB at DEFAULT_ALPHA_CAP, so that no sum of the rate or the
    bound overflows; a larger one raises ValidationError naming rho and x."""
    r = check_rho(rho)
    x = max(exponents)
    try:
        within = r ** x <= _MAX_POWER
    except OverflowError:
        within = False
    if not within:
        raise ValidationError(f"rho = {rho!r} with exponent {x!r} overflows: rho**alpha "
                              f"must be at most {_MAX_POWER:.6g}")
    return r


def check_rhos(rho_list) -> tuple[float, ...]:
    """A non-empty SNR list as floats, each with 1 < rho <= MAX_RHO, the
    SNRs the audits evaluate at any exponent up to DEFAULT_ALPHA_CAP;
    anything else, a list that is not iterable or holds a non-number too,
    raises ValidationError."""
    try:
        rhos = tuple(map(float_or_nan, rho_list))
    except TypeError:  # not iterable
        rhos = ()
    if not rhos or any(not 1.0 < r <= MAX_RHO for r in rhos):
        raise ValidationError(f"every rho must satisfy 1 < rho <= {MAX_RHO!r} "
                              f"(MAX_RHO_DB = {MAX_RHO_DB:.6g} dB), got {rho_list!r}")
    return rhos


def rhos_from_db(values) -> tuple[float, ...]:
    """rho_from_db of every SNR in dB; one whose rho is not above 1 raises
    DegenerateSnr naming it."""
    rhos = tuple(rho_from_db(db) for db in values)
    for db, rho in zip(values, rhos):
        if rho <= 1.0:
            raise DegenerateSnr(f"rho = 10**(rho_db/10) must exceed 1, got {rho!r} "
                                f"at rho_db {db!r}")
    return rhos


class ValidatedRecord:
    """Mixin, listed first, of a NamedTuple subclass whose __new__ validates
    and normalizes its fields: _make, and with it _replace, build through
    that __new__, where NamedTuple's own would skip it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _AlphaMatrix(NamedTuple):
    a: tuple[tuple[float, float, float], tuple[float, float, float]]


class AlphaMatrix(ValidatedRecord, _AlphaMatrix):
    """2x3 grid of link-strength exponents; rows = receivers, columns = transmitters.

    Entries must be finite and nonnegative. Zero entries are admissible here
    because GDoF-domain work (regime sweeps, limit cases) needs the closed
    boundary; the strict positivity of physical scenarios is enforced by
    `validate_scenario`, not by this container.
    """

    __slots__ = ()

    def __new__(cls, a):
        try:
            rows = tuple(tuple(float(x) for x in row) for row in a)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"alpha entries must be numbers: {exc}") from None
        if len(rows) != N_RX or any(len(row) != N_TX for row in rows):
            raise ValidationError(f"alpha must be a {N_RX}x{N_TX} grid")
        for j, row in enumerate(rows, start=1):
            for i, x in enumerate(row, start=1):
                if not math.isfinite(x):
                    raise ValidationError(f"alpha[{j}][{i}] is not finite: {x!r}")
                if x < 0.0:
                    raise ValidationError(f"alpha[{j}][{i}] must be >= 0, got {x!r}")
        return tuple.__new__(cls, (rows,))

    def entry(self, j: int, i: int) -> float:
        """Exponent of the link from transmitter i to receiver j (1-based)."""
        return self.a[j - 1][i - 1]

    def flat(self) -> tuple[float, ...]:
        """Row-major (a11, a12, a13, a21, a22, a23)."""
        return self.a[0] + self.a[1]


def as_alpha(alpha) -> AlphaMatrix:
    """alpha if it is an AlphaMatrix, else AlphaMatrix(alpha)."""
    return alpha if isinstance(alpha, AlphaMatrix) else AlphaMatrix(alpha)


def link_picker(links) -> operator.itemgetter:
    """Picker for the 1-based (receiver, transmitter) links, in order, out of
    any row-major 2x3 sequence such as `AlphaMatrix.flat()`."""
    return operator.itemgetter(*((j - 1) * N_TX + i - 1 for j, i in links))


class Arithmetic(NamedTuple):
    """What a link-level formula computes with besides its operators: where as
    np.where, and maximum giving the first of equal values, as max does."""

    where: Callable
    maximum: Callable
    power: Callable
    log2: Callable


SCALAR = Arithmetic(lambda cond, x, y: x if cond else y, max, pow, math.log2)


def first_best(per_item, lowest: bool):
    """The first (item, value) pair of per_item with the least (lowest) or
    the greatest value: a later equal value, -0.0 after 0.0 among them,
    does not replace it, as kernels.first_extremum picks in a row."""
    return (min if lowest else max)(per_item, key=operator.itemgetter(1))


class _ChannelScenario(NamedTuple):
    rho: float
    gains: tuple[tuple[complex, ...], ...] | None = None
    alpha: AlphaMatrix | None = None


class ChannelScenario(ValidatedRecord, _ChannelScenario):
    """Transmit SNR plus either raw complex gains or a ready exponent grid.

    Exactly one of `gains`/`alpha` is set at construction; an `alpha` that
    is no AlphaMatrix goes through AlphaMatrix, so a nested 2x3 sequence is
    converted and anything else raises ValidationError. Gain phases are
    retained but unused: every downstream formula depends on a gain only
    through rho*|h|^2.
    """

    __slots__ = ()

    def __new__(cls, rho, gains=None, alpha=None):
        rho = check_rho(rho)
        if (gains is None) == (alpha is None):
            raise ValidationError("scenario needs exactly one of gains/alpha")
        if gains is not None:
            try:
                gains = tuple(tuple(complex(h) for h in row) for row in gains)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"gain entries must be complex numbers: {exc}") from None
            if len(gains) != N_RX or any(len(row) != N_TX for row in gains):
                raise ValidationError(f"gains must be a {N_RX}x{N_TX} grid")
            for row in gains:
                for h in row:
                    if not (math.isfinite(h.real) and math.isfinite(h.imag)):
                        raise ValidationError("gains must be finite")
        return tuple.__new__(cls, (rho, gains, None if alpha is None else as_alpha(alpha)))


def alpha_from_gain(h: complex, rho: float) -> float:
    """Link-strength exponent log2(rho*|h|^2)/log2(rho) of a single gain.

    Requires rho > 1 and rho*|h|^2 > 1. The boundary rho*|h|^2 = 1
    (exponent exactly 0) is rejected rather than mapped to 0.
    """
    rho = check_rho(rho)
    try:
        h = complex(h)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad gain: {exc}") from None
    try:
        inr = rho * abs(h) ** 2
    except OverflowError:
        raise ValidationError(f"rho*|h|^2 overflows for gain {h!r}") from None
    if not inr > 1.0:
        raise NotInterferenceLimited(
            f"rho*|h|^2 = {inr!r} must exceed 1 (interference-limited assumption)"
        )
    return math.log2(inr) / math.log2(rho)


def effective_inr(rho: float, alpha: float) -> float:
    """Received power ratio rho**alpha; inverts `alpha_from_gain`."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    return check_snr(rho, (alpha,)) ** alpha


def validate_scenario(scenario: ChannelScenario) -> AlphaMatrix:
    """Materialize and check the exponent grid of a scenario.

    Gains convert entry-wise via `alpha_from_gain` (failures name the
    offending (receiver, transmitter) entry); a direct grid passes through
    unchanged. Every exponent must be strictly positive and at most
    DEFAULT_ALPHA_CAP.
    """
    if scenario.gains is not None:
        rows = []
        for j, row in enumerate(scenario.gains, start=1):
            out = []
            for i, h in enumerate(row, start=1):
                try:
                    out.append(alpha_from_gain(h, scenario.rho))
                except NotInterferenceLimited as exc:
                    raise NotInterferenceLimited(f"link ({j},{i}): {exc}", j=j, i=i) from None
            rows.append(tuple(out))
        alpha = AlphaMatrix(tuple(rows))
    else:
        alpha = scenario.alpha
    check_exponent_range(alpha)
    check_snr(scenario.rho, alpha.flat())
    return alpha


def check_exponent_range(alpha: AlphaMatrix) -> None:
    """Require every exponent of a physical channel to satisfy
    0 < x <= DEFAULT_ALPHA_CAP."""
    for j in (1, 2):
        for i in (1, 2, 3):
            x = alpha.entry(j, i)
            if x <= 0.0:
                raise NotInterferenceLimited(
                    f"link ({j},{i}): exponent {x!r} is not > 0", j=j, i=i)
            if x > DEFAULT_ALPHA_CAP:
                raise ValidationError(
                    f"alpha[{j}][{i}] = {x!r} exceeds the cap {DEFAULT_ALPHA_CAP}")


# The JSON names of the types json.load returns for values that are no number.
_JSON_TYPE_NAMES = {bool: "a boolean", str: "a string", list: "an array",
                    dict: "an object", type(None): "null"}


def _wire_number(value, field: str):
    """value if it is a JSON number (int or float, not bool); anything else
    raises ValidationError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = _JSON_TYPE_NAMES.get(type(value), type(value).__name__)
        raise ValidationError(f"{field} must be a number, got {kind}")
    return value


def scenario_from_dict(payload) -> ChannelScenario:
    """Build a scenario from its JSON wire format.

    Accepted shapes (exactly one of gains/alpha):
        {"rho_db": <num>, "gains": [[[re, im] x3] x2]}
        {"rho_db": <num>, "alpha": [[a11, a12, a13], [a21, a22, a23]]}
    Row 1 is receiver 1. Every <num>, exponent and gain part must be a JSON
    number: strings and booleans are rejected, not converted.
    """
    if not isinstance(payload, dict):
        raise ValidationError("scenario must be a JSON object")
    if "rho_db" not in payload:
        raise ValidationError("scenario is missing rho_db")
    rho_db = _wire_number(payload["rho_db"], "rho_db")
    try:
        rho = rho_from_db(float(rho_db))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad rho_db: {exc}") from None
    has_gains = "gains" in payload
    has_alpha = "alpha" in payload
    if has_gains == has_alpha:
        raise ValidationError("scenario needs exactly one of gains/alpha")
    if has_gains:
        try:
            gains = tuple(
                tuple(complex(float(_wire_number(re, f"gains[{j}][{i}] real part")),
                              float(_wire_number(im, f"gains[{j}][{i}] imaginary part")))
                      for i, (re, im) in enumerate(row, start=1))
                for j, row in enumerate(payload["gains"], start=1)
            )
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed gains grid: {exc}") from None
        return ChannelScenario(rho=rho, gains=gains)
    # A list first: AlphaMatrix would wrap _wire_number's ValidationError.
    try:
        rows = [[_wire_number(x, f"alpha[{j}][{i}]") for i, x in enumerate(row, start=1)]
                for j, row in enumerate(payload["alpha"], start=1)]
    except TypeError as exc:
        raise ValidationError(f"malformed alpha grid: {exc}") from None
    return ChannelScenario(rho=rho, alpha=AlphaMatrix(rows))


def load_scenario(path) -> ChannelScenario:
    """Read a scenario JSON file (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"invalid scenario JSON: {exc}") from None
    return scenario_from_dict(payload)
