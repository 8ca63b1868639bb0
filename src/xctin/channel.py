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
from dataclasses import dataclass

import numpy as np

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


def check_rho(rho) -> float:
    """rho as a float when it is a finite number > 1, the transmit SNRs the
    exponent parametrization admits; anything else raises DegenerateSnr."""
    try:
        r = float(rho)
    except (TypeError, ValueError, OverflowError):
        r = math.nan
    if not 1.0 < r < math.inf:
        raise DegenerateSnr(f"rho must be finite and > 1, got {rho!r}")
    return r


@dataclass(frozen=True)
class AlphaMatrix:
    """2x3 grid of link-strength exponents; rows = receivers, columns = transmitters.

    Entries must be finite and nonnegative. Zero entries are admissible here
    because GDoF-domain work (regime sweeps, limit cases) needs the closed
    boundary; the strict positivity of physical scenarios is enforced by
    `validate_scenario`, not by this container.
    """

    a: tuple[tuple[float, float, float], tuple[float, float, float]]

    def __post_init__(self):
        try:
            rows = tuple(tuple(float(x) for x in row) for row in self.a)
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
        object.__setattr__(self, "a", rows)

    @classmethod
    def from_rows(cls, rows) -> "AlphaMatrix":
        return cls(tuple(tuple(row) for row in rows))

    def entry(self, j: int, i: int) -> float:
        """Exponent of the link from transmitter i to receiver j (1-based)."""
        return self.a[j - 1][i - 1]

    def flat(self) -> tuple[float, ...]:
        """Row-major (a11, a12, a13, a21, a22, a23)."""
        return self.a[0] + self.a[1]


def link_picker(links) -> operator.itemgetter:
    """Picker for the 1-based (receiver, transmitter) links, in order, out of
    any row-major 2x3 sequence such as `AlphaMatrix.flat()`."""
    return operator.itemgetter(*((j - 1) * N_TX + i - 1 for j, i in links))


def link_table(items) -> np.ndarray:
    """Index table of the links each item's `take` picks: row k holds the
    row-major grid positions that items[k].take reads, in take order."""
    return np.array([item.take(range(N_RX * N_TX)) for item in items])


def link_columns(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """For each link column of an index table, the (n, len(table)) array of
    that link gathered from every row of the (n, 6) row-major array x, as
    the items of one take from the transpose of x."""
    return np.ascontiguousarray(x.T)[table.T].transpose(0, 2, 1)


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

def scalar_where(cond, x, y):
    """np.where for one Python condition: x if cond else y. The scalar API
    passes it to the link-level formulas in place of np.where."""
    return x if cond else y


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
    first = values.argmin(axis=1) if lowest else values.argmax(axis=1)
    return values[np.arange(len(values)), first]


@dataclass(frozen=True)
class ChannelScenario:
    """Transmit SNR plus either raw complex gains or a ready exponent grid.

    Exactly one of `gains`/`alpha` is set at construction. Gain phases are
    retained but unused: every downstream formula depends on a gain only
    through rho*|h|^2.
    """

    rho: float
    gains: tuple[tuple[complex, ...], ...] | None = None
    alpha: AlphaMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho", check_rho(self.rho))
        if (self.gains is None) == (self.alpha is None):
            raise ValidationError("scenario needs exactly one of gains/alpha")
        if self.gains is not None:
            try:
                g = tuple(tuple(complex(h) for h in row) for row in self.gains)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"gain entries must be complex numbers: {exc}") from None
            if len(g) != N_RX or any(len(row) != N_TX for row in g):
                raise ValidationError(f"gains must be a {N_RX}x{N_TX} grid")
            for row in g:
                for h in row:
                    if not (math.isfinite(h.real) and math.isfinite(h.imag)):
                        raise ValidationError("gains must be finite")
            object.__setattr__(self, "gains", g)


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
    rho = check_rho(rho)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    return rho ** alpha


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
    try:
        alpha = AlphaMatrix.from_rows(
            [_wire_number(x, f"alpha[{j}][{i}]") for i, x in enumerate(row, start=1)]
            for j, row in enumerate(payload["alpha"], start=1))
    except TypeError as exc:
        raise ValidationError(f"malformed alpha grid: {exc}") from None
    return ChannelScenario(rho=rho, alpha=alpha)


def load_scenario(path) -> ChannelScenario:
    """Read a scenario JSON file (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"invalid scenario JSON: {exc}") from None
    return scenario_from_dict(payload)
