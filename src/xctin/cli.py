"""Command-line front end; COMMANDS lists each command with its flags.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 audit property
failure. Data go to stdout or --out; diagnostics go to stderr only, never
into the data stream. Reals are serialized with 12 significant digits, so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple

from .achievability import IcConfig, tdma_tin_gdof, tdma_tin_rate
from .bounds import TxPermutation, gdof_ub, sum_capacity_ub
from .channel import (AlphaMatrix, check_exponent_range, load_scenario, rhos_from_db,
                      validate_scenario)
from .errors import UnsupportedFormat, ValidationError
from .regime import classify
from .tables import Coded, Table

if TYPE_CHECKING:
    import numpy as np


class CliInvocation(NamedTuple):
    """One parsed command invocation; the parser gives each command only
    the flags it reads, so the other fields keep their defaults."""

    command: str
    scenario_path: str | None = None
    rho_db: tuple[float, ...] | None = None
    alpha: tuple[float, ...] | None = None
    beta: float = 0.75
    step: float = 0.005
    n: int | None = None
    seed: int = 0
    fixed_family: bool = False
    out: str | None = None
    format: str | None = None
    tolerance: float = 0.0


class Report(NamedTuple):
    """A command's result: head is a point command's JSON document or a table
    command's summary; table holds the csv records; failure names the audit
    check that failed, if any."""

    head: dict
    table: Table
    failure: str | None = None


# ---------------------------------------------------------------- serialization

def _round12(x: float) -> float:
    return float(format(x, ".12g"))


def _jsonify(value):
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, AlphaMatrix):
        return [[_round12(x) for x in row] for row in value.a]
    if isinstance(value, (TxPermutation, IcConfig)):
        return list(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    # exact types: a record is a tuple too, but no JSON array
    if type(value) in (list, tuple):
        return [_jsonify(v) for v in value]
    raise UnsupportedFormat(f"cannot serialize {type(value).__name__} to JSON")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (TxPermutation, IcConfig)):
        return v.label()
    return str(v)


def _json_cell(v) -> str:
    return json.dumps(_jsonify(v))


# Rows per piece of a table's text.
_JOIN_ROWS = 1024


# The table writer from here to _json_records imports numpy when called; a
# point command's JSON document never reaches it.

class _Layout(NamedTuple):
    """The lookup tables of _float_texts. A text lies in uint64 words,
    little-endian: its first character is the low byte."""

    groups: np.ndarray    # g < 10**4 as four ASCII digits, and 10**4 as 1000
    reach: np.ndarray     # [k, g]: how many of the 12 digits of n reach its
                          # last nonzero one when g is n's group k of four
                          # (0 if g is 0)
    low: np.ndarray       # by byte count 0 < b <= 16, the low word of a
                          # b-byte mask (and no mask at 0)
    high: np.ndarray      # and its high word
    point_lo: np.ndarray  # by byte 0 < b < 16, the low word of a "." at byte b
    point_hi: np.ndarray  # and its high word
    heads: np.ndarray     # by e + 4 + 16 * negative: "-" if negative, then
                          # "0." and -e - 1 zeros if e < 0
    shifts: np.ndarray    # and the bit length of that text
    pow10: np.ndarray     # 10**k for k = 0..15, each exact in float64
    u64: type             # np.uint64, the type of the words and their shifts


@functools.cache
def _layout() -> _Layout:
    import numpy as np
    u64 = np.uint64
    # the digits a, b, c, d of g = 1000a + 100b + 10c + d on an open grid,
    # so that no temporary is larger than a table
    a, b, c, d = np.ix_(*[np.arange(10, dtype=u64)] * 4)
    groups = np.empty(10**4 + 1, dtype=u64)
    groups[:-1] = ((a + 48) | (b + 48) << u64(8)
                   | (c + 48) << u64(16) | (d + 48) << u64(24)).ravel()
    reach = np.zeros((3, 10**4 + 1), dtype=np.int8)
    reach[0, :-1] = np.maximum(np.maximum(a > 0, (b > 0) * np.int8(2)),
                               np.maximum((c > 0) * np.int8(3), (d > 0) * np.int8(4))).ravel()
    reach[1:, :-1] = np.where(reach[0, :-1] > 0, reach[0, :-1] + np.int8([[4], [8]]), 0)
    groups[-1], reach[0, -1] = groups[1000], 1  # a carried n = 10**12 has 10**4 on top
    heads = [sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
             for sign in (b"", b"-") for e in range(-4, 12)]
    return _Layout(
        groups,
        reach,
        np.array([(1 << 8 * min(k or 8, 8)) - 1 for k in range(17)], dtype=u64),
        np.array([(1 << 8 * max(k or 16, 8) - 64) - 1 for k in range(17)], dtype=u64),
        np.array([46 << 8 * k if 0 < k < 8 else 0 for k in range(16)], dtype=u64),
        np.array([46 << 8 * (k - 8) if 8 <= k else 0 for k in range(16)], dtype=u64),
        np.array([int.from_bytes(h, "little") for h in heads], dtype=u64),
        np.array([8 * len(h) for h in heads], dtype=u64),
        np.array([float(10**k) for k in range(16)]),
        u64)


def _python_floats(x: np.ndarray, as_json: np.ndarray) -> list[bytes]:
    """The texts of the cells that _float_texts leaves to Python's own
    formatting: _csv_cell's, or where as_json holds, _json_cell's."""
    return [(_json_cell if j else _csv_cell)(v).encode()
            for v, j in zip(x.tolist(), as_json.tolist())]


def _digits(ax: np.ndarray):
    """For |v| in ax: the decimal exponent e of its 12-digit rounding, where
    _float_texts writes it, the 12 digits of that rounding and a "0" in
    ASCII, as the (low, high) words of a word pair, and how many of the 12
    reach the last nonzero one. Zeros have e = 0 and digits "0"; the other
    cells left to Python have e = 0 and any digits."""
    import numpy as np
    t = _layout()
    zero = ax == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmax(np.fmin(np.floor(np.log10(ax)), 11.0), -4.0)  # nan to 11
        m = ax * t.pow10[(11.0 - e).astype(np.intp)]
        n = np.rint(m)
        fast = np.abs(m - n) < 0.5  # not a tie
        # e judged one too high, or too low, by log10 next to a power of ten
        fast &= m >= 1e11
        fast &= n <= 1e12
        # below 10**12 - 0.5, so that the rounding does not reach exponent form
        fast &= ax < 999999999999.5
        e += n == 1e12  # a carry, whose n = 10**12 the tables read as 10**11
        n = np.fmin(n * fast, 1e12).astype(np.int64)
    e *= fast
    fast |= zero
    groups, (r0, r1, r2) = t.groups, t.reach
    top = n // 10**4
    first = top // 10**4
    n -= top * 10**4
    top -= first * 10**4
    digits = np.maximum(np.maximum(r0[first], r1[top]), r2[n])
    lo = groups[first]
    lo |= groups[top] << t.u64(32)
    hi = groups[n]
    hi |= t.u64(ord("0") << 32)
    return e.astype(np.intp), fast, lo, hi, digits.astype(np.intp)


def _with_point(lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> None:
    """Puts a "." into the word pairs at byte at, in place, moving the
    bytes from there on up one (no point where at is 0)."""
    t = _layout()
    keep = t.low[at]
    moved = lo & ~keep
    lo &= keep
    lo |= moved << t.u64(8)
    lo |= t.point_lo[at]
    keep = t.high[at]
    spill = hi & ~keep
    hi &= keep
    hi |= spill << t.u64(8)
    hi |= moved >> t.u64(56)
    hi |= t.point_hi[at]


def _float_texts(x: np.ndarray, as_json) -> np.ndarray:
    """The cells of the float array x as an S array of its shape, each text
    NUL-padded: '%.12g' % v (as _csv_cell writes it), or where as_json (a
    bool, or bools broadcast against x; False is csv throughout)
    holds, json.dumps(_round12(v)) (as _json_cell writes it).

    Both write a finite v whose 12-digit rounding has a decimal exponent e
    in [-4, 11] positionally: the digits of the 12-digit integer
    n = round(|v| * 10**(11 - e)) less its trailing zeros, with a point
    after digit e when a digit follows it, "0." and -e - 1 zeros before
    them when e < 0, and in json ".0" after an integral value (the repr of
    the nearest double to a decimal of at most 12 digits is that decimal).
    Here e is floor(log10|v|), and n is the nearest integer to the product
    by the exact power of ten; n = 10**12 carries into e + 1. The product is
    correctly rounded and every half-integer below 2**52 is a double, so it
    lies on the same side of each half-integer as the exact product, or on
    it: n is the correct rounding unless the product is a half-integer. A
    cell's digits come in a pair of words from a table of 4-digit groups,
    the point is put in by a shift, and the sign and "0.0…" go before them
    by another. A cell whose product is a half-integer (a tie, or within
    half an ulp of one), whose e is out of range or misjudged by log10, or
    that is nan or infinite goes to _python_floats, so every text is
    Python's by construction. The steps hold few arrays at a time: on a
    piece of rows, fresh pages cost more than the arithmetic."""
    import numpy as np
    flat = np.asarray(x, dtype=float).ravel()
    e, fast, lo, hi, digits = _digits(np.abs(flat))
    e += 1
    # An integral value keeps its e + 1 digits, and in json one more for ".0".
    if as_json is False:
        np.maximum(digits, e, out=digits)
    else:
        np.maximum(digits, (e.reshape(np.shape(x)) + as_json).ravel(), out=digits)
    point = (e > 0) & (digits > e)
    _with_point(lo, hi, e * point)
    digits += point
    t = _layout()
    lo &= t.low[digits]
    hi &= t.high[digits]
    e += 3 + 16 * np.signbit(flat)
    shift = t.shifts[e]
    # a bound on the longest text
    width = (int(np.maximum.reduce(shift, initial=0)) // 8
             + int(np.maximum.reduce(digits, initial=1)))
    words = np.empty((len(flat), (width + 7) // 8), dtype="<u8")
    np.bitwise_or(t.heads[e], lo << shift, out=words[:, 0])
    if width > 8:
        back = t.u64(64) - shift
        np.bitwise_or(hi << shift, lo >> back, out=words[:, 1])
        if width > 16:
            np.right_shift(hi, back, out=words[:, 2])
    texts = words.view(np.dtype((np.bytes_, words.shape[1] * 8))).ravel()
    if not fast.all():
        slow = ~fast
        as_json = (np.zeros(np.shape(x), dtype=bool) | as_json).ravel()[slow]
        python = np.array(_python_floats(flat[slow], as_json), dtype=bytes)
        texts = texts.astype(np.promote_types(texts.dtype, python.dtype), copy=False)
        texts[slow] = python
    return texts.reshape(np.shape(x))


def _cell_texts(cells, cell) -> np.ndarray:
    """The cells as an S array of their texts by cell."""
    import numpy as np
    return np.array([cell(v).encode() for v in cells], dtype=bytes)


def _join(texts, leads, close: str, buffers: dict) -> bytes:
    """One piece of rows, row i the texts[j][i] each after leads[j], then
    close, less the NUL padding of the texts. The rows are one structured
    array, kept in buffers by the widths of the texts, so that its leads
    and closes are written once; the first piece is the longest."""
    import numpy as np
    key = tuple(t.dtype for t in texts)
    if key not in buffers:
        fixed, fields = {}, []
        for j, (lead, t) in enumerate(zip(leads, texts)):
            if lead:
                fixed[f"l{j}"] = lead.encode()
                fields.append((f"l{j}", f"S{len(fixed[f'l{j}'])}"))
            fields.append((f"t{j}", t.dtype))
        fixed["close"] = close.encode()
        fields.append(("close", f"S{len(fixed['close'])}"))
        buffers[key] = np.empty(len(texts[0]), dtype=fields)  # no later piece is longer
        for name, text in fixed.items():
            buffers[key][name] = text
    rows = buffers[key][:len(texts[0])]
    for j, t in enumerate(texts):
        rows[f"t{j}"] = t
    return rows.tobytes().translate(None, b"\0")


def _records(table: Table, leads, close: str, cell, as_json: bool):
    """The rows of a typed table as bytes pieces of _JOIN_ROWS rows, each
    cell after its column's lead and each row ending in close. Every column
    gives each piece its cells as NUL-padded texts, so no text may hold a
    NUL (JSON texts never do, nor do the csv texts of numbers, bools and
    digit labels). A column's type picks its path: a Coded column's values
    are formatted once by cell and taken by its codes; the float arrays,
    and the int arrays of cells all below 10**12 in magnitude (exact as
    floats, which _float_texts writes as str does), together by
    _float_texts, floats in json as json does when as_json; any other
    column (a list, such as a point command's, or a larger int array) cell
    by cell."""
    import numpy as np
    n = len(table)
    coded, plain, numbers, layouts = {}, {}, {}, []
    for j, col in enumerate(table.columns):
        kind = col.dtype.kind if isinstance(col, np.ndarray) else None
        if isinstance(col, Coded):
            coded[j] = _cell_texts(col.values, cell), col.codes
        # compared as floats, since np.abs of int64 -2**63 wraps to itself
        elif kind == "f" or (kind == "i" and (np.abs(col.astype(float)) < 1e12).all()):
            numbers[j] = col
            layouts.append(as_json and kind == "f")
        else:
            plain[j] = col.tolist() if isinstance(col, np.ndarray) else col
    # row-major, so that a piece's numbers are one contiguous block
    values = np.stack(list(numbers.values()), axis=1) if numbers else None
    layouts = layouts if any(layouts) else False
    buffers = {}
    for start in range(0, n, _JOIN_ROWS):
        stop = min(start + _JOIN_ROWS, n)
        texts = {j: np.take(t, codes[start:stop]) for j, (t, codes) in coded.items()}
        texts.update((j, _cell_texts(col[start:stop], cell)) for j, col in plain.items())
        if numbers:
            texts.update(zip(numbers, _float_texts(values[start:stop], layouts).T))
        yield _join([texts[j] for j in range(len(leads))], leads, close, buffers)


def _json_records(table: Table) -> list[bytes]:
    """A typed table as bytes pieces of the records list of a top-level JSON
    document, in the indent=2 layout."""
    if not len(table):
        return [b"[]"]
    leads = [f"{',' if k else '    {'}\n      {json.dumps(name)}: "
             for k, name in enumerate(table.names)]
    *pieces, last = _records(table, leads, "\n    },\n", _json_cell, True)
    return [b"[\n", *pieces, last[:-2], b"\n  ]"]  # no ",\n" after the last record


def _json_bytes(doc) -> bytes:
    """json.dumps(_jsonify(doc), indent=2) and a newline in UTF-8, each
    Table value of a top-level dict written by _json_records."""
    if not (isinstance(doc, dict) and any(isinstance(v, Table) for v in doc.values())):
        return (json.dumps(_jsonify(doc), indent=2) + "\n").encode("utf-8")
    pieces = []
    for key, value in doc.items():
        pieces.append(f"{',' if pieces else '{'}\n  {json.dumps(key)}: ".encode("utf-8"))
        pieces += _json_records(value) if isinstance(value, Table) else [
            json.dumps(_jsonify(value), indent=2).replace("\n", "\n  ").encode("utf-8")]
    return b"".join(pieces + [b"\n}\n"])


def emit_report(results, format: str) -> bytes:
    """Serialize a results payload to bytes.

    "csv" renders a Table row by row (see _records), or the "columns" and
    "rows" of a dict cell by cell; "json" renders the whole payload with its
    construction field order, a Table value as its list of records. Reals
    carry 12 significant digits in both formats, so equal results serialize
    to equal bytes.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if isinstance(results, Table):
            writer.writerow(results.names)
            # Written a piece at a time, so no list of pieces is held.
            out = io.BytesIO()
            leads = [""] + [","] * (len(results.names) - 1)
            out.writelines(chain((buf.getvalue().encode("utf-8"),),
                                 _records(results, leads, "\n", _csv_cell, False)))
            return out.getvalue()
        if isinstance(results, dict) and "columns" in results and "rows" in results:
            writer.writerow(results["columns"])
            writer.writerows([_csv_cell(v) for v in row] for row in results["rows"])
        else:
            raise UnsupportedFormat("csv serialization needs a Table, or 'columns' and 'rows'")
        return buf.getvalue().encode("utf-8")
    if format == "json":
        return _json_bytes(results)
    raise UnsupportedFormat(f"unsupported format: {format!r}")


# ---------------------------------------------------------------- input resolution

def _resolve_alpha(inv: CliInvocation):
    """Exponent grid from --scenario or --alpha; returns (alpha, scenario_rho)."""
    if inv.scenario_path is not None and inv.alpha is not None:
        raise ValidationError("give either --scenario or --alpha, not both")
    if inv.scenario_path is not None:
        scenario = load_scenario(inv.scenario_path)
        return validate_scenario(scenario), scenario.rho
    if inv.alpha is None:
        raise ValidationError("this command needs --scenario or --alpha")
    alpha = AlphaMatrix((inv.alpha[:3], inv.alpha[3:]))
    check_exponent_range(alpha)
    return alpha, None


def _single_rho(inv: CliInvocation, scenario_rho: float | None) -> float:
    if scenario_rho is not None:
        if inv.rho_db is not None:
            raise ValidationError("--rho-db conflicts with --scenario (the file carries rho_db)")
        return scenario_rho
    if inv.rho_db is None or len(inv.rho_db) != 1:
        raise ValidationError("this command needs exactly one --rho-db value")
    return rhos_from_db(inv.rho_db)[0]


# ---------------------------------------------------------------- command handlers

def _point_report(doc: dict) -> Report:
    """A point command's report: its JSON document, and as its table the
    document's "per_perm" records when it has a profile, otherwise one row
    of the fields after "command"."""
    records = doc.get("per_perm")
    if records is None:
        _, *names = doc
        records = [{name: doc[name] for name in names}]
    return Report(doc, Table.from_rows(records[0], [r.values() for r in records]))


def _cmd_eval(inv: CliInvocation):
    alpha, scenario_rho = _resolve_alpha(inv)
    rho = _single_rho(inv, scenario_rho)
    rate = tdma_tin_rate(rho, alpha)
    ub = sum_capacity_ub(rho, alpha)
    return _point_report({
        "command": "eval", "rho": rho, "rate_bits": rate.value, "rate_argmax": rate.argmax,
        "ub_bits": ub.value, "ub_argmin": ub.argmin, "gap_bits": ub.value - rate.value})


def _cmd_classify(inv: CliInvocation):
    alpha, _ = _resolve_alpha(inv)
    verdict = classify(alpha, tol=inv.tolerance)
    return _point_report({
        "command": "classify", "extended": verdict.in_extended, "gsj": verdict.in_gsj,
        "gdof": verdict.gdof_value, "witness_extended": verdict.witness_extended,
        "witness_gsj": verdict.witness_gsj})


def _cmd_bound(inv: CliInvocation):
    alpha, scenario_rho = _resolve_alpha(inv)
    rho = _single_rho(inv, scenario_rho)
    result = sum_capacity_ub(rho, alpha)
    return _point_report({
        "command": "bound", "rho": rho, "min_bits": result.value, "argmin": result.argmin,
        "per_perm": [{"perm": p, "bound_bits": v} for p, v in result.per_perm]})


def _cmd_gdof(inv: CliInvocation):
    alpha, _ = _resolve_alpha(inv)
    ub = gdof_ub(alpha)
    ach = tdma_tin_gdof(alpha)
    return _point_report({
        "command": "gdof", "tdma_tin_gdof": ach.value, "tdma_tin_argmax": ach.argmax,
        "gdof_ub": ub.value, "argmin": ub.argmin,
        "per_perm": [{"perm": p, "gdof_ub": v} for p, v in ub.per_perm]})


# The table commands import experiments, and with it numpy, when called, and
# look its functions up on the module, where the benchmark tracer rebinds
# them; each passes its audit's verdict through.

def _cmd_sweep(inv: CliInvocation):
    from . import experiments
    table = experiments.sweep_regime_plane(inv.beta, inv.step, tol=inv.tolerance)
    _, _, extended, gsj, _, _, _ = table.columns
    summary = {
        "command": "sweep",
        "beta": inv.beta,
        "step": inv.step,
        "range_max": experiments.SWEEP_RANGE_MAX,
        "tolerance": inv.tolerance,
        "n_records": len(table),
        "n_extended": extended.count(True),
        "n_gsj": gsj.count(True),
    }
    return Report(summary, table, experiments.sweep_audit_failure(
        table, inv.beta, inv.step, inv.tolerance))


def _cmd_gap_audit(inv: CliInvocation):
    from . import experiments
    n = inv.n if inv.n is not None else 1000
    rhos = rhos_from_db(inv.rho_db if inv.rho_db is not None else (20.0, 40.0, 60.0))
    report, rows = experiments.gap_audit_with_rows(n, rhos, inv.seed,
                                                   beta_free=not inv.fixed_family)
    summary = {"command": "gap-audit", "generator": experiments.GENERATOR_ID,
               **report._asdict()}
    return Report(summary, rows, experiments.gap_audit_failure(report))


def _cmd_sandwich_audit(inv: CliInvocation):
    from . import experiments
    n = inv.n if inv.n is not None else 10000
    rhos = rhos_from_db(inv.rho_db) if inv.rho_db is not None else None
    report, rows = experiments.sandwich_audit_with_rows(n, rhos, inv.seed)
    summary = {"command": "sandwich-audit", "generator": experiments.GENERATOR_ID,
               **report._asdict(), "rate_tol_bits": experiments.SANDWICH_RATE_TOL_BITS,
               "gdof_tol": experiments.SANDWICH_GDOF_TOL}
    return Report(summary, rows, experiments.sandwich_audit_failure(report))


def _cmd_converge(inv: CliInvocation):
    from . import experiments
    alpha, _ = _resolve_alpha(inv)
    rhos = rhos_from_db(inv.rho_db if inv.rho_db is not None else (40.0, 60.0, 90.0))
    probe = experiments.gdof_convergence_probe(alpha, rhos)
    summary = {"command": "converge", "rho_list": list(rhos), "d_tt": probe[0].d_tt,
               "d_ub": probe[0].d_ub}
    return Report(summary, Table.from_rows(experiments.ConvergenceRow._fields, probe),
                  experiments.convergence_failure(probe))


class Command(NamedTuple):
    """One CLI command: its handler, help text, own flags and output shape.

    A table command (sweep, audits, converge) streams records, csv by
    default; its JSON document is {"summary", "records"}. A point command's
    JSON document is the head of its report, and json is its default.
    """

    handler: Callable[[CliInvocation], Report]
    help: str
    flags: tuple[str, ...]
    table: bool = False


# argparse keyword arguments of every flag; --out and --format go to every
# command, the others only to the commands that list them.
_FLAGS = {
    "--scenario": dict(dest="scenario_path", metavar="PATH",
                       help="scenario JSON file ({rho_db, gains|alpha})"),
    "--rho-db": dict(metavar="DB[,DB...]",
                     help="SNR in dB; comma-separated list for audits/converge "
                          "(defaults: gap-audit 20,40,60; converge 40,60,90; "
                          "sandwich-audit samples log-uniform over [10, 90] dB)"),
    "--alpha": dict(metavar="A11,A12,A13,A21,A22,A23",
                    help="exponent grid, row-major (receiver 1 first)"),
    "--beta": dict(type=float,
                   help="sweep family cross exponent, 0.5 <= beta < 1 (default 0.75)"),
    "--step": dict(type=float, help="sweep grid step (default 0.005)"),
    "--n": dict(type=int, help="audit sample count (default: 1000 gap-audit, "
                               "10000 sandwich-audit)"),
    "--seed": dict(type=int, help="audit PRNG seed, >= 0 (default 0)"),
    "--fixed-family": dict(action="store_true",
                           help="draw from the symmetric sweep family instead of the free box"),
    "--tolerance": dict(type=float,
                        help="closed-boundary slack for regime classification, "
                             "finite and >= 0 (default 0)"),
    "--out": dict(metavar="PATH",
                  help="write data to PATH instead of stdout; with csv, the "
                       "JSON summary then goes to stdout"),
    "--format": dict(choices=("csv", "json"),
                     help="output format (default: json for point commands, "
                          "csv for sweep/audits/converge)"),
}

_POINT = ("--scenario", "--alpha")
_AUDIT = ("--n", "--rho-db", "--seed")

COMMANDS = {
    "eval": Command(_cmd_eval, "rate, bound, and gap at one channel point",
                    _POINT + ("--rho-db",)),
    "classify": Command(_cmd_classify, "regime memberships and certified GDoF",
                        _POINT + ("--tolerance",)),
    "bound": Command(_cmd_bound, "per-ordering sum-capacity bound profile",
                     _POINT + ("--rho-db",)),
    "gdof": Command(_cmd_gdof, "per-ordering GDoF bound profile", _POINT),
    "sweep": Command(_cmd_sweep, "regime sweep over the symmetric (alpha21, alpha12) plane",
                     ("--beta", "--step", "--tolerance"), table=True),
    "gap-audit": Command(_cmd_gap_audit, "seeded constant-gap (7-bit) audit",
                         _AUDIT + ("--fixed-family",), table=True),
    "sandwich-audit": Command(_cmd_sandwich_audit, "seeded rate-vs-bound sandwich audit",
                              _AUDIT, table=True),
    "converge": Command(_cmd_converge, "normalized rate/bound table along an SNR list",
                        _POINT + ("--rho-db",), table=True),
}


# ---------------------------------------------------------------- driver

def _write(data: bytes, out_path: str | None, stream) -> None:
    if out_path is None:
        stream.write(data.decode("utf-8"))
    else:
        with open(out_path, "wb") as fh:
            fh.write(data)


def run(inv: CliInvocation, stdout=None, stderr=None) -> int:
    """Execute one invocation; returns the process exit code.

    With --format csv and --out, the record stream goes to the file and the
    JSON summary (when the command has one) goes to stdout; csv on stdout
    stays pure records. --format json emits one document holding summary and
    records together.
    """
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    command = COMMANDS.get(inv.command)
    if command is None:
        print(f"error: unknown command {inv.command!r}", file=err_stream)
        return 2
    fmt = inv.format if inv.format is not None else ("csv" if command.table else "json")
    try:
        report = command.handler(inv)
        data = report.head
        if fmt == "csv":
            data = report.table
        elif command.table:
            data = {"summary": report.head, "records": report.table}
        _write(emit_report(data, fmt), inv.out, out_stream)
        if fmt == "csv" and inv.out is not None and command.table:
            _write(emit_report(report.head, "json"), None, out_stream)
    except ValidationError as exc:
        print(f"error: {exc}", file=err_stream)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=err_stream)
        return 1
    if report.failure is not None:
        print(f"audit failure: {report.failure}", file=err_stream)
        return 3
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which adds its flags when it first parses: a run
    builds the flags of the one command it parses, while the top-level
    help, command choices and error texts stay those of a full tree."""

    def __init__(self, *, flags: tuple[str, ...], **kwargs):
        super().__init__(**kwargs)
        self._pending_flags = flags

    def parse_known_args(self, args=None, namespace=None):
        for flag in self._pending_flags:
            self.add_argument(flag, **_FLAGS[flag])
        self._pending_flags = ()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xctin",
        description="TDMA-TIN rates, genie-aided capacity bounds, and "
                    "noisy-interference regime audits for the 3x2 Gaussian X channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        # Absent flags stay out of the namespace, so CliInvocation holds
        # the only defaults.
        sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS,
                       flags=command.flags + ("--out", "--format"))
    return parser


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    return values


def _invocation_from_namespace(ns: argparse.Namespace) -> CliInvocation:
    fields = dict(vars(ns))
    if "rho_db" in fields:
        fields["rho_db"] = _parse_float_list(fields["rho_db"], "--rho-db")
    if "alpha" in fields:
        fields["alpha"] = _parse_float_list(fields["alpha"], "--alpha")
    return CliInvocation(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        inv = _invocation_from_namespace(ns)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(inv)


if __name__ == "__main__":
    sys.exit(main())
