"""The record types are immutable named tuples.

Each keeps its field names, order and defaults; no field can be assigned.
The six that validate their inputs validate on every way a caller can
build or copy one, and the JSON writer still refuses records it has no
format for.
"""

import copy
import json
import math
import pickle
import re

import pytest

from xctin import cli
from xctin.achievability import AchievabilityResult, IcConfig, tdma_tin_gdof_config, tin_sum_rate
from xctin.bounds import (BoundResult, GenieParams, TxPermutation, gdof_ub_case1, gdof_ub_case2,
                          gdof_ub_single, genie_params, genie_params_from_gains, sum_capacity_ub,
                          sum_capacity_ub_single)
from xctin.channel import AlphaMatrix, ChannelScenario
from xctin.cli import CliInvocation, Command, emit_report, main
from xctin.errors import DegenerateSnr, UnsupportedFormat, ValidationError
from xctin.experiments import ConvergenceRow, GapReport, SandwichReport
from xctin.regime import (AuxChannelPair, RegimeVerdict, genie_aux_pair,
                          genie_satisfies_entropy_gap, psi)

GRID = ((1.0, 0.2, 0.75), (0.4, 1.0, 0.75))
ALPHA = AlphaMatrix(GRID)
PERM = TxPermutation(1, 2, 3, 1, 2)
CFG = IcConfig(1, 2, 1, 2)

# Each record type: its fields in order, its defaults, and the arguments of
# one valid instance.
RECORDS = {
    CliInvocation: (
        ("command", "scenario_path", "rho_db", "alpha", "beta", "step", "n", "seed",
         "fixed_family", "out", "format", "tolerance"),
        {"scenario_path": None, "rho_db": None, "alpha": None, "beta": 0.75, "step": 0.005,
         "n": None, "seed": 0, "fixed_family": False, "out": None, "format": None,
         "tolerance": 0.0},
        ("eval",)),
    Command: (("handler", "help", "flags", "table"), {"table": False}, (print, "help", ())),
    AlphaMatrix: (("a",), {}, (GRID,)),
    ChannelScenario: (("rho", "gains", "alpha"), {"gains": None, "alpha": None},
                      (100.0, None, ALPHA)),
    TxPermutation: (("i1", "i2", "i3", "j1", "j2"), {}, (1, 2, 3, 1, 2)),
    GenieParams: (("c_sq", "d", "case_id"), {}, (0.5, 1, 2)),
    BoundResult: (("value", "argmin", "per_perm"), {}, (3.0, PERM, ((PERM, 3.0),))),
    IcConfig: (("i1", "i2", "j1", "j2"), {}, (1, 2, 1, 2)),
    AchievabilityResult: (("value", "argmax"), {}, (2.0, CFG)),
    RegimeVerdict: (("in_extended", "in_gsj", "witness_extended", "witness_gsj",
                     "gdof_value"), {}, (True, False, PERM, None, 1.4)),
    AuxChannelPair: (("h1_sq", "h2_sq", "h3_sq", "h4_sq", "rho"), {},
                     (1.0, 0.5, 0.25, 2.0, 10.0)),
    GapReport: (("n_samples", "rho_list", "seed", "max_gap_bits", "mean_gap_bits",
                 "min_gap_bits", "all_within_7", "argmax_alpha"), {},
                (3, (100.0,), 7, 2.0, 1.5, 1.0, True, ALPHA)),
    SandwichReport: (("n_samples", "seed", "rho_list", "rho_range",
                      "max_rate_violation_bits", "max_gdof_violation"), {},
                     (3, 1, None, (10.0, 1e9), -4.0, -0.25)),
    ConvergenceRow: (("rho", "rate_norm", "ub_norm", "d_tt", "d_ub"), {},
                     (1e4, 1.3, 1.6, 1.4, 1.4)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_defaults_and_immutability(cls):
    fields, defaults, args = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*args)
    assert isinstance(record, tuple) and list(record._asdict()) == list(fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    for same in (record._replace(), cls._make(record), copy.copy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(same) is cls and same == record


# A change to a valid instance of each validated type that makes it invalid.
BAD_CHANGES = [
    (AlphaMatrix, {"a": ((1.0, 1.0, -1.0), (1.0, 1.0, 1.0))}),
    (AlphaMatrix, {"a": ((1.0, 1.0), (1.0, 1.0))}),
    (ChannelScenario, {"rho": 1.0}),
    (ChannelScenario, {"alpha": None}),
    (ChannelScenario, {"gains": ((1,) * 3, (1,) * 3)}),
    (ChannelScenario, {"alpha": None, "gains": ((1,) * 3, (1, 1, math.inf))}),
    (TxPermutation, {"i3": 2}),
    (TxPermutation, {"j2": 1}),
    (GenieParams, {"c_sq": -1.0}),
    (GenieParams, {"d": 0}),
    (IcConfig, {"i2": 1}),
    (IcConfig, {"j1": 2, "j2": 1}),
    (AuxChannelPair, {"h2_sq": math.nan}),
    (AuxChannelPair, {"rho": 0.5}),
]


@pytest.mark.parametrize("cls, change", BAD_CHANGES,
                         ids=[f"{cls.__name__}-{'-'.join(c)}" for cls, c in BAD_CHANGES])
def test_every_way_to_build_a_validated_record_validates(cls, change):
    valid = cls(*RECORDS[cls][2])
    fields = dict(valid._asdict(), **change)
    with pytest.raises(ValidationError) as constructed:
        cls(**fields)
    error = type(constructed.value)
    assert error is (DegenerateSnr if "rho" in change else ValidationError)
    for build in (lambda: valid._replace(**change), lambda: cls._make(fields.values()),
                  lambda: cls(*fields.values())):
        with pytest.raises(error, match=f"^{re.escape(str(constructed.value))}$"):
            build()


def test_validated_records_normalize_their_fields():
    assert AlphaMatrix(((1, 0, 0), (0, 1, 0))).a == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    scenario = ChannelScenario(rho=100, gains=[[1, 2j, 3], [4, 5, 6]])
    assert scenario.rho == 100.0 and type(scenario.rho) is float
    assert scenario.gains == ((1 + 0j, 2j, 3 + 0j), (4 + 0j, 5 + 0j, 6 + 0j))
    assert scenario._replace(rho=1000).rho == 1000.0


def test_records_equal_plain_tuples_of_their_fields():
    assert PERM == (1, 2, 3, 1, 2) and hash(PERM) == hash((1, 2, 3, 1, 2))
    assert CFG.take is IcConfig(1, 2, 1, 2).take


# Every entry point that takes an ordering or a pairing, with the message
# head it refuses a non-record with and a record it takes: call(x) passes x.
WEAK_PERM = TxPermutation(1, 2, 3, 2, 1)  # a[j2][i3] <= a[j2][i1] on GRID, as case 2 needs
RECORD_TAKERS = [
    pytest.param("p must be a TxPermutation", PERM,
                 lambda p: sum_capacity_ub_single(100.0, GRID, p), id="sum_capacity_ub_single"),
    pytest.param("p must be a TxPermutation", PERM, lambda p: gdof_ub_single(GRID, p),
                 id="gdof_ub_single"),
    pytest.param("p must be a TxPermutation", PERM, lambda p: gdof_ub_case1(GRID, p),
                 id="gdof_ub_case1"),
    pytest.param("p must be a TxPermutation", WEAK_PERM, lambda p: gdof_ub_case2(GRID, p),
                 id="gdof_ub_case2"),
    pytest.param("p must be a TxPermutation", PERM, lambda p: genie_params(GRID, p, 100.0),
                 id="genie_params"),
    pytest.param("p must be a TxPermutation", PERM,
                 lambda p: genie_params_from_gains([[1, 2, 3], [4, 5, 6]], p, 100.0),
                 id="genie_params_from_gains"),
    pytest.param("cfg must be an IcConfig", CFG, lambda cfg: tin_sum_rate(100.0, GRID, cfg),
                 id="tin_sum_rate"),
    pytest.param("cfg must be an IcConfig", CFG, lambda cfg: tdma_tin_gdof_config(GRID, cfg),
                 id="tdma_tin_gdof_config"),
    pytest.param("p must be a TxPermutation", PERM, lambda p: psi(GRID, p), id="psi"),
    pytest.param("p must be a TxPermutation", PERM, lambda p: genie_aux_pair(100.0, GRID, p),
                 id="genie_aux_pair"),
    pytest.param("p must be a TxPermutation", PERM,
                 lambda p: genie_satisfies_entropy_gap(100.0, GRID, p),
                 id="genie_satisfies_entropy_gap"),
]


@pytest.mark.parametrize("head, record, call", RECORD_TAKERS)
def test_every_ordering_or_pairing_taker_refuses_what_is_no_record(head, record, call):
    # A plain tuple equals its record but has no take; each of these ended
    # in AttributeError: 'tuple' object has no attribute 'take'.
    call(record)
    for value, kind in ((tuple(record), "tuple"), (list(record), "an array"), (None, "null"),
                        ("12312", "a string")):
        with pytest.raises(ValidationError, match=f"^{head}, got {kind}$"):
            call(value)


def test_jsonify_writes_alpha_grids_and_rejects_other_records():
    assert cli._jsonify({"alpha": ALPHA}) == {"alpha": [list(row) for row in GRID]}
    # An ordering or pairing is written as its index list.
    result = sum_capacity_ub(1e6, ALPHA)
    assert cli._jsonify([PERM, CFG]) == [[1, 2, 3, 1, 2], [1, 2, 1, 2]]
    assert cli._jsonify({"argmin": result.argmin}) == {"argmin": list(result.argmin)}
    assert json.loads(emit_report({"record": PERM}, "json")) == {"record": [1, 2, 3, 1, 2]}
    verdict = RegimeVerdict(True, False, PERM, None, 1.4)
    for record in (result, [result], verdict):
        with pytest.raises(UnsupportedFormat, match="cannot serialize"):
            emit_report({"record": record}, "json")


@pytest.mark.parametrize("argv, report, tail", [
    (["gap-audit", "--n", "3", "--rho-db", "20"], GapReport, []),
    (["sandwich-audit", "--n", "3"], SandwichReport, ["rate_tol_bits", "gdof_tol"]),
])
def test_audit_summaries_keep_the_report_field_order(capsys, argv, report, tail):
    assert main([*argv, "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert list(summary) == ["command", "generator", *report._fields, *tail]
