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
    db = number(rho_db, "rho_db")
    if not (math.isfinite(db) and db <= MAX_RHO_DB):
        raise ValidationError(
            f"rho_db must be finite and at most {MAX_RHO_DB:.6g}, got {rho_db!r}")
    return 10.0 ** (db / 10.0)


# The kinds of value that are no number, by their JSON names; number names
# any other type by its own name.
_JSON_TYPE_NAMES = {bool: "a boolean", str: "a string", list: "an array",
                    dict: "an object", type(None): "null"}


def number(value, field: str, *where, convert=float):
    """convert(value), a float by default and an int with operator.index, for
    anything convert takes but a bool, str or bytes, or a numpy boolean or
    (unless convert is complex) complex by dtype kind. Anything else raises
    ValidationError naming the field, field.format(*where), and the kind of
    value; an int too large for a float is named by its digit count. The one
    rule by which every input of the package is a number."""
    plain = type(value) in (float, int, complex)  # no kind to check
    np_kind = "" if plain else getattr(getattr(value, "dtype", None), "kind", "")
    if plain or not (isinstance(value, (bool, str, bytes, bytearray)) or np_kind == "b"
                     or np_kind == "c" and convert is not complex):
        try:
            return convert(value)
        except (TypeError, ValueError):
            pass
        except OverflowError:  # an int, or a ratio of ints, past the floats
            n = abs(int(value))
            digits = int(n.bit_length() * 0.30102999566398120)  # log10(2): n's digits, or one less
            digits += n >= 10 ** digits
            raise ValidationError(f"{field.format(*where)} is too large for a float: "
                                  f"{digits} digits") from None
    kind = _JSON_TYPE_NAMES.get(bool if np_kind == "b" else type(value), type(value).__name__)
    noun = "an integer" if convert is operator.index else "a number"
    raise ValidationError(f"{field.format(*where)} must be {noun}, got {kind}")


def check_rho(rho) -> float:
    """rho as a float when it is a finite number > 1, the transmit SNRs the
    exponent parametrization admits; another number raises DegenerateSnr."""
    r = number(rho, "rho")
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
    SNRs the audits evaluate at any exponent up to DEFAULT_ALPHA_CAP; an
    entry <= 1 or NaN raises DegenerateSnr, anything else ValidationError,
    which shows a long list by its first entries."""
    try:
        given = tuple(rho_list)
    except TypeError:  # not iterable
        given = ()
    rhos = tuple(number(r, "rho_list[{}]", k) for k, r in enumerate(given))
    if not rhos or any(not 1.0 < r <= MAX_RHO for r in rhos):
        shown = (f"{len(given)} entries from {given[:3]!r}" if len(given) > 3
                 else repr(rho_list))
        error = DegenerateSnr if any(not r > 1.0 for r in rhos) else ValidationError
        raise error(f"every rho must satisfy 1 < rho <= {MAX_RHO!r} "
                    f"(MAX_RHO_DB = {MAX_RHO_DB:.6g} dB), got {shown}")
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


def check_record(value, cls: type, field: str):
    """value when it is a cls; anything else, a plain tuple of the same
    fields too, raises ValidationError naming the field, cls and the kind
    of value as number does."""
    if isinstance(value, cls):
        return value
    kind = _JSON_TYPE_NAMES.get(type(value), type(value).__name__)
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise ValidationError(f"{field} must be {article} {cls.__name__}, got {kind}")


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
        rows = _grid(a, "alpha", float)
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


def _grid(rows, field: str, convert) -> tuple[tuple, ...]:
    """rows as a 2x3 tuple grid of numbers, entry [j][i] through
    number(..., convert=convert) as field[j][i]; a grid of another shape
    raises ValidationError."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:  # not a grid of rows
        rows = ()
    if len(rows) != N_RX or any(len(row) != N_TX for row in rows):
        raise ValidationError(f"{field} must be a {N_RX}x{N_TX} grid")
    entry = field + "[{}][{}]"
    return tuple(tuple(number(x, entry, j, i, convert=convert) for i, x in enumerate(row, start=1))
                 for j, row in enumerate(rows, start=1))


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
        return tuple.__new__(cls, (rho, None if gains is None else check_gains(gains),
                                   None if alpha is None else as_alpha(alpha)))


def check_gains(gains) -> tuple[tuple[complex, ...], ...]:
    """gains as a 2x3 tuple grid of finite complex numbers; anything else
    raises ValidationError."""
    gains = _grid(gains, "gains", complex)
    if not all(math.isfinite(h.real) and math.isfinite(h.imag) for row in gains for h in row):
        raise ValidationError("gains must be finite")
    return gains


def alpha_from_gain(h: complex, rho: float) -> float:
    """Link-strength exponent log2(rho*|h|^2)/log2(rho) of a single gain.

    Requires rho > 1 and rho*|h|^2 > 1. The boundary rho*|h|^2 = 1
    (exponent exactly 0) is rejected rather than mapped to 0.
    """
    rho = check_rho(rho)
    h = number(h, "gain", convert=complex)
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
    x = number(alpha, "alpha")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    return check_snr(rho, (x,)) ** x


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
    0 < x <= DEFAULT_ALPHA_CAP; alpha goes through as_alpha."""
    for j, row in enumerate(as_alpha(alpha).a, start=1):
        for i, x in enumerate(row, start=1):
            if x <= 0.0:
                raise NotInterferenceLimited(
                    f"link ({j},{i}): exponent {x!r} is not > 0", j=j, i=i)
            if x > DEFAULT_ALPHA_CAP:
                raise ValidationError(
                    f"alpha[{j}][{i}] = {x!r} exceeds the cap {DEFAULT_ALPHA_CAP}")


def scenario_from_dict(payload) -> ChannelScenario:
    """Build a scenario from its JSON wire format.

    Accepted shapes (exactly one of gains/alpha):
        {"rho_db": <num>, "gains": [[[re, im] x3] x2]}
        {"rho_db": <num>, "alpha": [[a11, a12, a13], [a21, a22, a23]]}
    Row 1 is receiver 1. Every <num>, exponent and gain part is a number
    as `number` takes it: strings and booleans are rejected, not converted.
    """
    if not isinstance(payload, dict):
        raise ValidationError("scenario must be a JSON object")
    if "rho_db" not in payload:
        raise ValidationError("scenario is missing rho_db")
    rho = rhos_from_db((payload["rho_db"],))[0]
    has_gains = "gains" in payload
    has_alpha = "alpha" in payload
    if has_gains == has_alpha:
        raise ValidationError("scenario needs exactly one of gains/alpha")
    if has_alpha:
        return ChannelScenario(rho=rho, alpha=payload["alpha"])
    try:
        gains = [[complex(number(re, "gains[{}][{}] real part", j, i),
                          number(im, "gains[{}][{}] imaginary part", j, i))
                  for i, (re, im) in enumerate(row, start=1)]
                 for j, row in enumerate(payload["gains"], start=1)]
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:  # a row or a gain of the wrong shape
        raise ValidationError(f"malformed gains grid: {exc}") from None
    return ChannelScenario(rho=rho, gains=gains)


def load_scenario(path) -> ChannelScenario:
    """Read a scenario JSON file (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        # ValueError: JSONDecodeError, UnicodeDecodeError or an int past the digit limit.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid scenario JSON: {exc}") from None
    return scenario_from_dict(payload)
