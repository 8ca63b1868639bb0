"""The table writer: a Table's records as bytes, csv rows or the records list
of a JSON document, with numpy; given only the format, it knows the layout.

cli.emit_report imports this module, and so numpy, only when it writes a
Table; every text is the one cli._csv_cell or cli._json_cell gives the cell.
"""

from __future__ import annotations

import json

import numpy as np

from .cli import _csv_cell, _json_cell
from .tables import Coded, Table

# Rows per piece of a table's text.
_JOIN_ROWS = 1024

# The lookup tables of _float_texts. A text lies in uint64 words,
# little-endian: its first character is the low byte.
_U64 = np.uint64  # the type of the words and their shifts


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit groups g < 10**4 as four ASCII digits, and 10**4 as 1000;
    and [k, g], how many of the 12 digits of n reach its last nonzero one
    when g is n's group k of four (0 if g is 0)."""
    # the digits a, b, c, d of g = 1000a + 100b + 10c + d on an open grid,
    # so that no temporary is larger than a table
    a, b, c, d = np.ix_(*[np.arange(10, dtype=_U64)] * 4)
    groups = np.empty(10**4 + 1, dtype=_U64)
    groups[:-1] = ((a + 48) | (b + 48) << _U64(8)
                   | (c + 48) << _U64(16) | (d + 48) << _U64(24)).ravel()
    reach = np.zeros((3, 10**4 + 1), dtype=np.int8)
    reach[0, :-1] = np.maximum(np.maximum(a > 0, (b > 0) * np.int8(2)),
                               np.maximum((c > 0) * np.int8(3), (d > 0) * np.int8(4))).ravel()
    reach[1:, :-1] = np.where(reach[0, :-1] > 0, reach[0, :-1] + np.int8([[4], [8]]), 0)
    groups[-1], reach[0, -1] = groups[1000], 1  # a carried n = 10**12 has 10**4 on top
    return groups, reach


_GROUPS, _REACH = _group_tables()
# By byte count 0 < b <= 16, the low and the high word of a b-byte mask (and
# no mask at 0).
_LOW = np.array([(1 << 8 * min(k or 8, 8)) - 1 for k in range(17)], dtype=_U64)
_HIGH = np.array([(1 << 8 * max(k or 16, 8) - 64) - 1 for k in range(17)], dtype=_U64)
# By byte 0 < b < 16, the low and the high word of a "." at byte b.
_POINT_LO = np.array([46 << 8 * k if 0 < k < 8 else 0 for k in range(16)], dtype=_U64)
_POINT_HI = np.array([46 << 8 * (k - 8) if 8 <= k else 0 for k in range(16)], dtype=_U64)
# By e + 4 + 16 * negative: "-" if negative, then "0." and -e - 1 zeros if
# e < 0; and the bit length of that text.
_HEAD_TEXTS = [sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
               for sign in (b"", b"-") for e in range(-4, 12)]
_HEADS = np.array([int.from_bytes(h, "little") for h in _HEAD_TEXTS], dtype=_U64)
_SHIFTS = np.array([8 * len(h) for h in _HEAD_TEXTS], dtype=_U64)
# 10**k for k = 0..15, each exact in float64.
_POW10 = np.array([float(10**k) for k in range(16)])


def _digits(ax: np.ndarray):
    """For |v| in ax: the decimal exponent e of its 12-digit rounding, where
    _float_texts writes it, the 12 digits of that rounding and a "0" in
    ASCII, as the (low, high) words of a word pair, and how many of the 12
    reach the last nonzero one. Zeros have e = 0 and digits "0"; the other
    cells left to Python have e = 0 and any digits."""
    zero = ax == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.fmax(np.fmin(np.floor(np.log10(ax)), 11.0), -4.0)  # nan to 11
        m = ax * _POW10[(11.0 - e).astype(np.intp)]
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
    r0, r1, r2 = _REACH
    top = n // 10**4
    first = top // 10**4
    n -= top * 10**4
    top -= first * 10**4
    digits = np.maximum(np.maximum(r0[first], r1[top]), r2[n])
    lo = _GROUPS[first]
    lo |= _GROUPS[top] << _U64(32)
    hi = _GROUPS[n]
    hi |= _U64(ord("0") << 32)
    return e.astype(np.intp), fast, lo, hi, digits.astype(np.intp)


def _with_point(lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> None:
    """Puts a "." into the word pairs at byte at, in place, moving the
    bytes from there on up one (no point where at is 0)."""
    keep = _LOW[at]
    moved = lo & ~keep
    lo &= keep
    lo |= moved << _U64(8)
    lo |= _POINT_LO[at]
    keep = _HIGH[at]
    spill = hi & ~keep
    hi &= keep
    hi |= spill << _U64(8)
    hi |= moved >> _U64(56)
    hi |= _POINT_HI[at]


def _float_texts(x: np.ndarray, as_json: bool) -> np.ndarray:
    """The cells of the float array x as an S array of its shape, each text
    NUL-padded: '%.12g' % v (as _csv_cell writes it), or when as_json,
    json.dumps(_round12(v)) (as _json_cell writes it).

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
    that is nan or infinite goes to _cell_texts with _csv_cell or
    _json_cell, so every text is Python's by construction. The steps hold
    few arrays at a time: on a piece of rows, fresh pages cost more than
    the arithmetic."""
    flat = np.asarray(x, dtype=float).ravel()
    e, fast, lo, hi, digits = _digits(np.abs(flat))
    e += 1
    # An integral value keeps its e + 1 digits, and in json one more for ".0".
    np.maximum(digits, e + 1 if as_json else e, out=digits)
    point = (e > 0) & (digits > e)
    _with_point(lo, hi, e * point)
    digits += point
    lo &= _LOW[digits]
    hi &= _HIGH[digits]
    e += 3 + 16 * np.signbit(flat)
    shift = _SHIFTS[e]
    # a bound on the longest text
    width = (int(np.maximum.reduce(shift, initial=0)) // 8
             + int(np.maximum.reduce(digits, initial=1)))
    words = np.empty((len(flat), (width + 7) // 8), dtype="<u8")
    np.bitwise_or(_HEADS[e], lo << shift, out=words[:, 0])
    if width > 8:
        back = _U64(64) - shift
        np.bitwise_or(hi << shift, lo >> back, out=words[:, 1])
        if width > 16:
            np.right_shift(hi, back, out=words[:, 2])
    texts = words.view(np.dtype((np.bytes_, words.shape[1] * 8))).ravel()
    if not fast.all():
        slow = ~fast
        python = _cell_texts(flat[slow].tolist(), _json_cell if as_json else _csv_cell)
        texts = texts.astype(np.promote_types(texts.dtype, python.dtype), copy=False)
        texts[slow] = python
    return texts.reshape(np.shape(x))


def _cell_texts(cells, cell) -> np.ndarray:
    """The cells as an S array of their texts by cell."""
    return np.array([cell(v).encode() for v in cells], dtype=bytes)


def _join(texts, leads, close: str, buffers: dict) -> bytes:
    """One piece of rows, row i the texts[j][i] each after leads[j], then
    close, less the NUL padding of the texts. The rows are one structured
    array, kept in buffers by the widths of the texts, so that its leads
    and closes are written once; the first piece is the longest."""
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


def _records(table: Table, as_json: bool):
    """The rows of a table as bytes pieces of _JOIN_ROWS rows: csv rows, or
    when as_json, the records of a JSON list in the indent=2 layout, each
    closed by "},". A piece of a column is NUL-padded texts of _csv_cell
    or _json_cell, so no text may hold a NUL (JSON texts never do, nor do
    the csv texts of numbers, bools and digit labels). A column's type picks
    its path: a Coded column's values are formatted once and taken by its
    codes, Python floats by one _float_texts call per table (once per values
    object: the sweep's axes share one), others by cell; the float arrays,
    and the int arrays of cells all below 10**12 in magnitude (exact as
    floats), by one _float_texts call per piece and layout, the ints in csv
    (as str writes them) and the floats in the table's format; any other
    array (a larger int array) cell by cell."""
    if as_json:
        leads = [f"{',' if k else '    {'}\n      {json.dumps(name)}: "
                 for k, name in enumerate(table.names)]
        close, cell = "\n    },\n", _json_cell
    else:
        leads, close, cell = [""] + [","] * (len(table.names) - 1), "\n", _csv_cell
    shared = {id(c.values): c.values for c in table.columns
              if isinstance(c, Coded) and set(map(type, c.values)) <= {float}}
    if shared:  # each S array as wide as its longest text, as _cell_texts makes it
        floats = [np.asarray(v, dtype=float) for v in shared.values()]
        split = np.split(_float_texts(np.concatenate(floats), as_json),
                         np.cumsum([len(v) for v in floats])[:-1])
        shared = {key: t.astype(f"S{max(map(len, t.tolist()), default=1)}")
                  for key, t in zip(shared, split)}
    coded, plain, numbers = {}, {}, {}
    for j, col in enumerate(table.columns):
        if isinstance(col, Coded):
            texts = shared.get(id(col.values))
            coded[j] = _cell_texts(col.values, cell) if texts is None else texts, col.codes
        # compared as floats, since np.abs of int64 -2**63 wraps to itself
        elif col.dtype.kind == "f" or (
                col.dtype.kind == "i" and (np.abs(col.astype(float)) < 1e12).all()):
            numbers.setdefault(as_json and col.dtype.kind == "f", {})[j] = col
        else:
            plain[j] = col.tolist()
    # row-major, so that a piece's numbers in one layout are one contiguous block
    blocks = {layout: (list(cols), np.stack(list(cols.values()), axis=1))
              for layout, cols in numbers.items()}
    buffers = {}
    for start in range(0, len(table), _JOIN_ROWS):
        stop = min(start + _JOIN_ROWS, len(table))
        texts = {j: np.take(t, codes[start:stop]) for j, (t, codes) in coded.items()}
        texts.update((j, _cell_texts(col[start:stop], cell)) for j, col in plain.items())
        for layout, (columns, block) in blocks.items():
            texts.update(zip(columns, _float_texts(block[start:stop], layout).T))
        yield _join([texts[j] for j in range(len(leads))], leads, close, buffers)


def _json_records(table: Table) -> list[bytes]:
    """A table as bytes pieces of the records list of a top-level JSON
    document, in the indent=2 layout."""
    if not len(table):
        return [b"[]"]
    *pieces, last = _records(table, True)
    return [b"[\n", *pieces, last[:-2], b"\n  ]"]  # no ",\n" after the last record
