"""Typed tables: the byte-row writer and its float formatter against the
generic paths and Python's own formatting, and the array-expression sweep
audit against the per-record loop it replaced."""

import functools
import inspect
import io
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xctin import cli, experiments, writer
from xctin.achievability import IcConfig
from xctin.bounds import TxPermutation
from xctin.channel import AlphaMatrix
from xctin.cli import CliInvocation, emit_report
from xctin.experiments import (BLOCK_ROWS, SWEEP_GRID_SLACK, Coded, SweepRecord, Table,
                               _coded_floats, sweep_audit_failure, sweep_regime_plane)

FIG_ALPHA = (1.0, 0.2, 0.75, 0.4, 1.0, 0.75)

# One small invocation of every command; the records of their reports (a
# Table, or a list of record dicts) give each schema's column names, and the
# cell types of the first row a generator letter per column (below).
_INVOCATIONS = (
    CliInvocation("eval", alpha=FIG_ALPHA, rho_db=(40.0,)),
    CliInvocation("classify", alpha=FIG_ALPHA),
    CliInvocation("bound", alpha=FIG_ALPHA, rho_db=(40.0,)),
    CliInvocation("gdof", alpha=FIG_ALPHA),
    CliInvocation("sweep", step=0.25),
    CliInvocation("gap-audit", n=2, rho_db=(20.0, 40.0)),
    CliInvocation("sandwich-audit", n=2),
    CliInvocation("converge", alpha=FIG_ALPHA, rho_db=(40.0, 60.0)),
)
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  1.0 / 3.0, 1e308, 12345678901234.5, 1e-300)
CELLS = {
    "f": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
    "i": st.one_of(st.integers(-2**70, 2**70), st.sampled_from([0, -1, 2**63])),
    "b": st.booleans(),
    "s": st.one_of(st.none(), st.from_regex(r"[0-9]{1,6}", fullmatch=True)),
    "g": st.one_of(st.none(), st.sampled_from(SPECIAL_FLOATS), st.floats()),
}
# The letter of a first-row cell's type: "i" int, "f" float, "b" bool, "s" a
# digit-only label or None (an ordering or pairing, which csv writes as its
# label), and "g" a float or None for a None cell (a certified GDoF outside
# a regime is one, so is a missing witness).
_LETTERS = {int: "i", float: "f", bool: "b", str: "s", TxPermutation: "s", IcConfig: "s",
            type(None): "g"}


def _schema(records) -> tuple:
    """The column names of a report's records and the letters of their first
    row."""
    if isinstance(records, Table):
        names, row = records.names, records[0]
    else:
        names, row = tuple(records[0]), records[0].values()
    return names, "".join(_LETTERS[type(v)] for v in row)


SCHEMAS = sorted({_schema(cli.COMMANDS[inv.command].handler(inv).records)
                  for inv in _INVOCATIONS})
SUMMARIES = (
    {},
    {"command": "sweep", "beta": 0.75, "n_records": 3, "range_max": 1.0 / 3.0},
    {"rho_list": [1e2, math.inf], "argmax_alpha": AlphaMatrix(
        (FIG_ALPHA[:3], FIG_ALPHA[3:])), "rho_range": None, "ok": True, "text": "a\nb"},
)


# int64 cells below 10**12 in magnitude, which the writer formats with
# numpy, and from there to the int64 extremes, which it writes cell by cell.
INT64_CELLS = st.one_of(st.integers(-10**12 + 1, 10**12 - 1), st.integers(-2**63, 2**63 - 1),
                        st.sampled_from([-2**63, 2**63 - 1, -10**12, 10**12]))


@st.composite
def tables(draw):
    """A table of one command's schema. Each column either repeats a few
    drawn cells or, for floats, holds distinct values mixed with them. A
    column is Coded with one value per cell, or for letters f and i either
    that or a float64 or int64 array."""
    names, kinds = draw(st.sampled_from(SCHEMAS))
    n = draw(st.sampled_from([0, 1, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS + 1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = []
    for kind in kinds:
        array = kind in "fi" and draw(st.booleans())
        pool = draw(st.lists(INT64_CELLS if array and kind == "i" else CELLS[kind],
                             min_size=1, max_size=6))
        if kind == "f" and draw(st.booleans()):
            col = [rng.choice(pool) if rng.random() < 0.2 else rng.uniform(-1e9, 1e9)
                   for _ in range(n)]
        else:
            col = [rng.choice(pool) for _ in range(n)]
        columns.append(np.array(col, dtype=float if kind == "f" else np.int64) if array
                       else Coded(col, np.arange(n)))
    return Table(names, columns)


@st.composite
def all_text_tables(draw):
    """A table of Coded float columns next to bool and label columns, each
    Coded over a few values, as in the sweep, or over one value per cell.
    The values of each column are a few drawn cells, None among them, and
    the float cells include signed zeros, NaNs, infinities and subnormals;
    up to more than two pieces of writer._JOIN_ROWS rows, all columns over a
    few values in some tables of that size."""
    n = draw(st.sampled_from([0, 1, 2, BLOCK_ROWS + 1, 2 * writer._JOIN_ROWS + 1]))
    all_coded = n > 2 * writer._JOIN_ROWS and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    columns = []
    for kind in "bsff":
        pool = draw(st.lists(st.one_of(st.none(), CELLS[kind]), min_size=1, max_size=6))
        col = Coded(pool, rng.integers(len(pool), size=n))
        columns.append(col if kind == "f" or all_coded or draw(st.booleans())
                       else Coded(list(col), np.arange(n)))
    return Table(("flag", "label", "x", "y"), columns)


@settings(max_examples=150, deadline=None)
@given(table=st.one_of(tables(), all_text_tables()))
def test_csv_row_template_matches_cell_by_cell_path(table):
    generic = emit_report({"columns": table.names, "rows": list(table)}, "csv")
    assert emit_report(table, "csv") == generic


@settings(max_examples=150, deadline=None)
@given(table=st.one_of(tables(), all_text_tables()), head=st.sampled_from(SUMMARIES),
       records_first=st.booleans())
def test_json_record_template_matches_json_dumps(table, head, records_first):
    records = [dict(zip(table.names, row)) for row in table]
    items = [("summary", head), ("records", table)]
    want_items = [("summary", head), ("records", records)]
    if records_first:
        items.reverse()
        want_items.reverse()
    want = json.dumps(cli._jsonify(dict(want_items)), indent=2) + "\n"
    assert emit_report(dict(items), "json") == want.encode("utf-8")


# Float cells that _float_texts writes positionally with a point, and cells
# at its edges: integral values and zeros (no point in csv, ".0" in json),
# exponents (from 1e12 up, below 1e-4, subnormals), nan and inf, which it
# leaves to Python.
POSITIONAL = st.builds(math.copysign, st.floats(1e-4, 1e10), st.sampled_from([1.0, -1.0]))
REWRITTEN = st.one_of(
    st.integers(-10**15, 10**15).map(float),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(1e12, 1e16, exclude_max=True),
    st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cells=st.lists(POSITIONAL, max_size=40),
       rewritten=st.lists(REWRITTEN, max_size=3))
def test_json_floats_match_the_three_call_path(data, cells, rewritten):
    col = data.draw(st.permutations(cells + rewritten))
    assert writer._float_texts(np.array(col, dtype=float), True).tolist() == \
        [json.dumps(float(format(x, ".12g"))).encode() for x in col]


@settings(max_examples=150, deadline=None)
@given(cells=st.lists(st.floats(), min_size=1, max_size=30), as_json=st.booleans())
def test_float_texts_match_python_formatting(cells, as_json):
    want = [(cli._json_cell if as_json else cli._csv_cell)(x).encode() for x in cells]
    assert writer._float_texts(np.array(cells), as_json).tolist() == want


def _float_corpus(n: int, m: int) -> np.ndarray:
    """Seeded doubles: n each of uniform bit patterns (nan, inf and
    subnormals among them), 13-digit integers ending in 5 (a tie at 12
    digits) scaled by 10**-k, and integers up to 1e15, most of which Python
    writes; m each of uniform on [0, 200), log-uniform on 1e-8..1e14 with
    either sign, values rounded to 0-13 decimals, and values within 1e-12
    (relative) or an ulp of a power of ten, whose 12-digit rounding carries
    or whose log10 rounds up; and the specials."""
    rng = np.random.default_rng(20241019)
    sign = rng.choice([-1.0, 1.0], m)
    k = rng.integers(0, 14, m)
    tens = 10.0 ** rng.integers(-5, 14, m)
    near = np.where(rng.random(m) < 0.5, tens * (1.0 - 1e-12 * rng.random(m)),
                    np.nextafter(tens, tens * rng.choice([0.0, 2.0], m)))
    return np.concatenate([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(float),
        (rng.integers(10**11, 10**12, n) * 10 + 5) / 10.0 ** rng.integers(0, 21, n),
        rng.integers(-10**15, 10**15, n, endpoint=True).astype(float),
        rng.uniform(0.0, 200.0, m),
        sign * 10.0 ** rng.uniform(-8.0, 14.0, m),
        np.rint(rng.uniform(-1e3, 1e3, m) * 10.0**k) / 10.0**k,
        sign * near,
        SPECIAL_FLOATS])


def test_float_texts_match_python_on_a_seeded_corpus():
    x = _float_corpus(10_000, 242_500)
    assert len(x) >= 10**6
    # '%.12g' % v for every cell in one template
    csv_texts = (("%.12g\n" * len(x)) % tuple(x.tolist())).split()
    # json.dumps(_round12(v)) is the repr of the csv text's parse, nan and
    # inf named; a text with a point and no exponent has at most 12 digits
    # and is already that repr (decimals of up to 15 digits read back to
    # distinct doubles), as a sample of them checks
    names = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    json_texts = [t if "." in t and "e" not in t else names.get(t) or repr(float(t))
                  for t in csv_texts]
    sample = random.Random(5).sample(range(len(x)), 20_000)
    assert [json_texts[i] for i in sample] == \
        [names.get(csv_texts[i]) or repr(float(csv_texts[i])) for i in sample]
    for as_json, want in ((False, csv_texts), (True, json_texts)):
        got = writer._float_texts(x, as_json).tolist()
        if got != [t.encode() for t in want]:
            bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w.encode()]
            pytest.fail(f"{len(bad)} mismatches, first {bad[:5]}")


def test_bench_sized_tables_rarely_leave_the_fast_path(monkeypatch):
    # the benchmark's sandwich and gap op sizes; a cell goes to Python, the
    # cells _float_texts hands to _cell_texts, only when its scaled product
    # is a half-integer
    cell_texts, slow = writer._cell_texts, []

    def counted(cells, cell):
        if inspect.currentframe().f_back.f_code is writer._float_texts.__code__:
            slow.append(len(cells))
        return cell_texts(cells, cell)

    monkeypatch.setattr(writer, "_cell_texts", counted)
    writer._float_texts(np.array([0.5, math.nan, math.inf]), True)
    assert slow == [2]
    _, sandwich = experiments.sandwich_audit_with_rows(2500, None, 5)
    _, gap = experiments.gap_audit_with_rows(750, (1e2, 1e4, 1e6), 5)
    for table, fmt in ((sandwich, "csv"), (gap, "json")):
        floats = sum(len(col) for col in table.columns
                     if isinstance(col, np.ndarray) and col.dtype.kind == "f")
        slow.clear()
        emit_report(table if fmt == "csv" else {"records": table}, fmt)
        assert floats >= 6750 and sum(slow) <= floats / 1000


@pytest.mark.parametrize("cells", [[0, -2**63], [2**63 - 1, 5], [1, 10**12], [-10**12, 2],
                                   [10**12 - 1, 1 - 10**12]])
def test_int_arrays_match_the_generic_paths_at_the_int64_extremes(cells):
    # np.abs(-2**63) wraps to itself, below 10**12: the formatter would
    # write it as a float.
    table = Table(("sample", "x"), (np.array(cells), np.array([0.5, -1.0])))
    rows = list(table)
    assert emit_report(table, "csv") == emit_report({"columns": table.names, "rows": rows}, "csv")
    want = json.dumps({"records": [dict(zip(table.names, row)) for row in rows]}, indent=2)
    assert emit_report({"records": table}, "json") == (want + "\n").encode()


def _audit_tables(seed: int):
    """The tables of both audits, the sandwich with drawn and with listed
    SNRs."""
    return (experiments.gap_audit_with_rows(30, (1e2, 1e4), seed)[1],
            experiments.sandwich_audit_with_rows(30, None, seed)[1],
            experiments.sandwich_audit_with_rows(30, (1e2, 1e4), seed)[1])


def test_audit_tables_hand_over_arrays_and_give_plain_rows():
    for table, again, other in zip(_audit_tables(3), _audit_tables(3), _audit_tables(4)):
        assert all(isinstance(col, np.ndarray)
                   for name, col in zip(table.names, table.columns) if name != "rho")
        want = tuple(int if np.asarray(col).dtype.kind == "i" else float
                     for col in table.columns)
        rows, indexed = list(table), [table[i] for i in range(-len(table), len(table))]
        assert indexed == rows + rows
        assert all(tuple(map(type, row)) == want for row in indexed)
        assert json.loads(json.dumps([list(row) for row in table])) == [list(r) for r in rows]
        assert table == again and not table != again and table != other
        columns = [col.copy() if isinstance(col, np.ndarray) else col for col in table.columns]
        columns[2][5] = np.nextafter(columns[2][5], math.inf)
        changed = Table(table.names, columns)
        assert changed != table and table != changed


# Cells whose list.count goes by identity or by an equality across types:
# a NaN equals only itself, 0.0 == -0.0, True == 1 == 1.0, and None.
_COUNTED = (math.nan, 0.0, -0.0, None, True, 1, 1.0)
_SLICES = (slice(-1, None), slice(None, None, -1), slice(1, None, 2), slice(-2, -9, -3),
           slice(3, 1), slice(-400, 400, 7))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from("fbs"), data=st.data(), seed=st.integers(0, 2**32),
       n=st.sampled_from([0, 1, 5, 300]))
def test_coded_column_acts_as_its_list(kind, data, seed, n):
    pool = data.draw(st.lists(CELLS[kind], min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    codes = rng.integers(len(pool), size=n).astype(np.int8)
    col, plain = Coded(pool, codes), [pool[c] for c in codes]
    assert col == plain and plain == col and len(col) == len(plain)
    assert col == Coded(pool, codes.astype(np.uint16)) and not col != plain
    assert col != plain + [None] and plain + [None] != col
    assert all(col[s] == plain[s] for s in _SLICES)
    assert all(a is b for a, b in zip(col, plain))
    assert all(col[i] is plain[i] for i in range(-n, n))
    # count on values that repeat and that hold the cells of _COUNTED
    values = pool + data.draw(st.lists(st.sampled_from(pool + list(_COUNTED)), max_size=4))
    mixed = rng.integers(len(values), size=n)
    cells, queries = [values[c] for c in mixed], values + [float("nan"), *_COUNTED]
    assert [Coded(values, mixed).count(v) for v in queries] == [cells.count(v) for v in queries]
    want = np.array(plain, dtype=object if kind == "s" else None)
    got = np.asarray(col)
    assert got.shape == (n,)
    if kind == "f":
        assert got.dtype == float and (got.view(np.int64) == want.view(np.int64)).all()
    else:
        assert got.tolist() == want.tolist()


def test_coded_column_allocates_no_cell_list():
    codes = np.zeros(10**6, dtype=np.int8)
    tracemalloc.start()
    try:
        col = Coded((False, True), codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(col) == 10**6 and peak < 2**20


# Each column with the number of values the csv writer formats: one per
# distinct bit pattern, as the sweep codes its GDoF columns.
_REPEATING_COLUMNS = [
    ([0.0, -0.0] * 600, 2),             # both zeros in a column that repeats
    ([-0.0] * 3 + [0.0] * 1200, 2),
    ([math.nan, 1.5] * 600, 2),
    ([float(k % 7) for k in range(BLOCK_ROWS + 1)], 7),
    ([-0.0] * 1200, 1),
    ([math.nan, -math.nan, math.inf, -math.inf, 5e-324] * 300, 5),  # nan and -nan
]


@pytest.mark.parametrize("col,formatted", _REPEATING_COLUMNS,
                         ids=[f"col{k}" for k in range(len(_REPEATING_COLUMNS))])
def test_repeating_float_columns_keep_every_cell(monkeypatch, col, formatted):
    coded = _coded_floats(np.array(col))
    assert len(coded.values) == formatted
    table = Table(("x", "k"), (coded, np.arange(len(col))))
    want_csv = emit_report({"columns": table.names, "rows": list(zip(col, table.columns[1]))},
                           "csv")
    want = json.dumps(cli._jsonify({"records": [{"x": x, "k": k} for k, x in enumerate(col)]}),
                      indent=2)
    float_texts, calls = writer._float_texts, []
    monkeypatch.setattr(writer, "_float_texts",
                        lambda x, as_json: calls.append(x) or float_texts(x, as_json))
    for fmt, expected in (("csv", want_csv), ("json", (want + "\n").encode("utf-8"))):
        calls.clear()
        assert emit_report(table if fmt == "csv" else {"records": table}, fmt) == expected
        # The k column goes by pieces of (rows, 1); the Coded values in one
        # call, each distinct bit pattern once.
        values = [x for x in calls if x.ndim == 1]
        assert len(values) == 1 and len(values[0]) == formatted
        assert sorted(values[0].view(np.int64).tolist()) == \
            sorted(set(np.array(col).view(np.int64).tolist()))


# Doubles whose texts take every path of the float formatter: signed zeros,
# NaN payloads, infinities, the least subnormal, exponent form, a sum that
# is not its decimal, and 12-digit ties (13 exact digits ending in 5, on
# either side of exponent form).
_NAN_PAYLOAD = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(float)
_CODED_FLOATS = [0.0, -0.0, math.nan, -math.nan, *_NAN_PAYLOAD.tolist(), math.inf, -math.inf,
                 5e-324, -5e-324, 1e16, 0.1 + 0.2, 12345678901.25, -98765432109.75,
                 1234567890125.0, 999999999999.5, 1e-5, 123456.0]


def test_coded_float_values_take_the_cell_texts(monkeypatch):
    coded = _coded_floats(np.array(_CODED_FLOATS * 3))
    assert len(coded.values) == len(_CODED_FLOATS)
    # Two columns that share their values, as the sweep's axes do, and one
    # with values of its own.
    table = Table(("x", "y", "z"), (coded, Coded(coded.values, coded.codes[::-1].copy()),
                                    Coded(list(coded.values), coded.codes)))
    join, pieces = writer._join, []
    monkeypatch.setattr(writer, "_join", lambda texts, *args: pieces.append(texts) or join(
        texts, *args))
    for as_json, cell in ((False, cli._csv_cell), (True, cli._json_cell)):
        pieces.clear()
        list(writer._records(table, as_json))
        # Each column's texts, as wide as the cell texts' S array.
        want = writer._cell_texts(coded.values, cell)
        for texts, col in zip(pieces[0], table.columns):
            assert texts.dtype == want.dtype
            assert texts.tolist() == [cell(v).encode() for v in col]
    rows = list(table)
    want_csv = emit_report({"columns": table.names, "rows": rows}, "csv")
    assert emit_report(table, "csv") == want_csv
    want = json.dumps(cli._jsonify({"records": [dict(zip(table.names, r)) for r in rows]}),
                      indent=2)
    assert emit_report({"records": table}, "json") == (want + "\n").encode("utf-8")


def test_every_table_goes_through_one_byte_row_path(monkeypatch):
    # Every audit table, in csv and json, is joined by _join; the records of
    # a point command and of converge are Python values, which never reach
    # the writer.
    join, calls = writer._join, []
    monkeypatch.setattr(writer, "_join", lambda *args: calls.append(args) or join(*args))
    reached = set()
    for inv, fmt in ((inv, fmt) for inv in _INVOCATIONS for fmt in ("csv", "json")):
        before = len(calls)
        assert cli.run(inv._replace(format=fmt), stdout=io.StringIO(),
                       stderr=io.StringIO()) == 0
        if len(calls) > before:
            reached.add((inv.command, fmt))
    assert reached == {(command, fmt) for command in ("sweep", "gap-audit", "sandwich-audit")
                       for fmt in ("csv", "json")}
    for module in (cli, writer):
        assert re.search(r"__mod__|%[%sd]", inspect.getsource(module)) is None


def test_classify_outside_the_regime_writes_empty_cells(capsys):
    # The certified GDoF is None outside the regime, so its column is not
    # all floats.
    assert cli.main(["classify", "--alpha", "1,1,1,1,1,1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == \
        "extended,gsj,gdof,witness_extended,witness_gsj\nfalse,false,,,\n"


def test_empty_table_renders_header_and_empty_records():
    table = Table(("a", "b"), (np.array([]), np.arange(0)))
    assert emit_report(table, "csv") == b"a,b\n"
    assert emit_report({"summary": {"n": 0}, "records": table}, "json") == \
        b'{\n  "summary": {\n    "n": 0\n  },\n  "records": []\n}\n'


# ---------------------------------------------------------------- sweep audit

def _reference_audit(records, beta, step, tol):
    """The per-record loop that sweep_audit_failure replaced, naming the
    GDoF pair by repr as the audit now does."""
    def coords(r):
        return f"({r.alpha21:.12g}, {r.alpha12:.12g})"

    for r in records:
        if r.in_gsj and not r.in_extended:
            return f"regime inclusion violated at {coords(r)}"
        if r.in_extended and abs(r.d_tt - r.gdof_ub) > 1e-12:
            return (f"GDoF equality violated at {coords(r)}: "
                    f"d_tt {r.d_tt!r}, gdof_ub {r.gdof_ub!r}")
    if tol > 0.0:
        return None
    s = float(step)
    k_half = int((0.5 + SWEEP_GRID_SLACK) / s)
    k_beta = int((1.0 - float(beta) + SWEEP_GRID_SLACK) / s)
    for r in records:
        k21, k12 = round(r.alpha21 / s), round(r.alpha12 / s)
        if (r.in_extended != ((k21 <= k_half and k12 <= k_beta)
                              or (k21 <= k_beta and k12 <= k_half))
                or r.in_gsj != (k21 <= k_beta and k12 <= k_beta)):
            return f"regime geometry violated at {coords(r)}"
    return None


@functools.lru_cache(maxsize=None)
def _sweep(beta, step):
    return sweep_regime_plane(beta, step)


# (record index, field, delta): a flag is flipped, a GDoF is moved by delta
# from d_tt, and "pair" sets d_tt = 0 and gdof_ub = delta, so that a delta
# of exactly 1e-12 sits on the equality tolerance.
_BREAKS = st.tuples(
    st.integers(0, 17 ** 2 - 1),
    st.sampled_from(["in_extended", "in_gsj", "d_tt", "gdof_ub", "pair"]),
    st.sampled_from([1e-11, -1e-11, 1e-12, 5e-13, math.nan, math.inf]))


@settings(max_examples=200, deadline=None)
@given(beta=st.sampled_from([0.5, 0.6, 0.65, 0.75, 0.9]),
       step=st.sampled_from([0.25, 0.05, 0.045]),
       audit_beta=st.sampled_from([None, 0.7]),
       tol=st.sampled_from([0.0, 1e-6]),
       breaks=st.lists(_BREAKS, max_size=3))
def test_sweep_audit_names_the_same_first_offender_as_the_record_loop(
        beta, step, audit_beta, tol, breaks):
    records = list(_sweep(beta, step))
    for idx, field, delta in breaks:
        r = records[idx % len(records)]
        if field == "pair":
            change = {"d_tt": 0.0, "gdof_ub": delta}
        elif field.startswith("in_"):
            change = {field: not getattr(r, field)}
        else:
            change = {field: r.d_tt + delta}
        records[idx % len(records)] = r._replace(**change)
    table = Table(_sweep(beta, step).names,
                  [Coded(col, np.arange(len(records))) for col in zip(*records)], SweepRecord)
    beta_audited = beta if audit_beta is None else audit_beta
    assert sweep_audit_failure(table, beta_audited, step, tol) == \
        _reference_audit(records, beta_audited, step, tol)
