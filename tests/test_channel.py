import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xctin.achievability import (IC_CONFIGS, IcConfig, tdma_tin_gdof, tdma_tin_gdof_config,
                                 tdma_tin_rate, tin_sum_rate)
from xctin.bounds import (PERMUTATIONS, TxPermutation, gdof_ub, gdof_ub_case1, gdof_ub_case2,
                          gdof_ub_single, genie_params, genie_params_from_gains,
                          sum_capacity_ub, sum_capacity_ub_single)
from xctin.channel import (DEFAULT_ALPHA_CAP, MAX_RHO_DB, AlphaMatrix, ChannelScenario,
                           alpha_from_gain, check_exponent_range, check_rho, check_rhos,
                           effective_inr, link_picker, load_scenario, rho_from_db,
                           scenario_from_dict, validate_scenario)
from xctin.errors import DegenerateSnr, NotInterferenceLimited, ValidationError
from xctin.experiments import gap_audit, gdof_convergence_probe, sandwich_audit
from xctin.regime import (AuxChannelPair, classify, genie_aux_pair, genie_satisfies_entropy_gap,
                          in_extended_regime, in_gsj_regime, psi)

rhos = st.floats(2.0, 1e12)


def test_alpha_from_gain_half():
    # |h|^2 = 0.1 at rho = 100: log2(10)/log2(100) = 1/2
    assert alpha_from_gain(math.sqrt(0.1), 100.0) == pytest.approx(0.5, rel=1e-12)


def test_alpha_from_gain_unit_gain():
    assert alpha_from_gain(1.0, 100.0) == pytest.approx(1.0, rel=1e-15)


def test_alpha_from_gain_complex_phase_irrelevant():
    h = complex(0.1, 0.3)
    href = abs(h)
    assert alpha_from_gain(h, 250.0) == alpha_from_gain(href, 250.0)


def test_alpha_from_gain_not_interference_limited():
    with pytest.raises(NotInterferenceLimited):
        alpha_from_gain(math.sqrt(0.005), 100.0)  # rho*|h|^2 = 0.5


def test_alpha_from_gain_boundary_rejected():
    with pytest.raises(NotInterferenceLimited):
        alpha_from_gain(0.5, 4.0)  # rho*|h|^2 = 1 exactly in double precision


def test_alpha_from_gain_degenerate_snr():
    with pytest.raises(DegenerateSnr):
        alpha_from_gain(1.0, 1.0)
    with pytest.raises(DegenerateSnr):
        alpha_from_gain(1.0, 0.5)


def test_alpha_from_gain_zero_gain():
    with pytest.raises(NotInterferenceLimited):
        alpha_from_gain(0.0, 100.0)


def test_alpha_from_gain_overflowing_gain():
    with pytest.raises(ValidationError):
        alpha_from_gain(1e200, 100.0)


def test_effective_inr_values():
    assert effective_inr(100.0, 0.5) == pytest.approx(10.0, rel=1e-15)
    assert effective_inr(100.0, 0.0) == 1.0
    assert effective_inr(1e4, 0.75) == pytest.approx(1000.0, rel=1e-15)


def test_effective_inr_rejects_bad_inputs():
    with pytest.raises(DegenerateSnr):
        effective_inr(1.0, 0.5)
    with pytest.raises(ValidationError):
        effective_inr(100.0, -0.1)
    with pytest.raises(ValidationError):
        effective_inr(100.0, math.nan)


@given(rho=rhos, alpha=st.floats(1e-6, 4.0))
def test_round_trip_gain_to_alpha(rho, alpha):
    h = math.sqrt(rho ** (alpha - 1.0))
    assert alpha_from_gain(h, rho) == pytest.approx(alpha, rel=1e-12)


@given(rho=rhos, inr=st.floats(1.000001, 1e12))
def test_effective_inr_matches_physical_ratio(rho, inr):
    h = math.sqrt(inr / rho)
    back = effective_inr(rho, alpha_from_gain(h, rho))
    assert back == pytest.approx(rho * abs(h) ** 2, rel=1e-9)


@given(rho=rhos, alpha=st.floats(0.0, 4.0), delta=st.floats(1e-6, 1.0))
def test_effective_inr_strictly_increasing(rho, alpha, delta):
    assert effective_inr(rho, alpha + delta) > effective_inr(rho, alpha)


def test_rho_from_db():
    assert rho_from_db(20.0) == pytest.approx(100.0, rel=1e-15)
    assert rho_from_db(0.0) == 1.0


@pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf, MAX_RHO_DB + 1e-9, 4000.0])
def test_rho_from_db_rejects_non_finite_and_above_maximum(db):
    with pytest.raises(ValidationError):
        rho_from_db(db)


@given(alpha=st.lists(st.floats(0.0, DEFAULT_ALPHA_CAP), min_size=6, max_size=6))
@example(alpha=[DEFAULT_ALPHA_CAP] * 6)
def test_rate_and_bound_finite_at_the_maximum_snr(alpha):
    grid = AlphaMatrix((alpha[:3], alpha[3:]))
    rho = rho_from_db(MAX_RHO_DB)
    assert math.isfinite(sum_capacity_ub(rho, grid).value - tdma_tin_rate(rho, grid).value)


# ---------------------------------------------------------------- AlphaMatrix

def test_alpha_matrix_entry_and_flat():
    m = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
    assert m.entry(1, 2) == 0.2
    assert m.entry(2, 1) == 0.4
    assert m.flat() == (1.0, 0.2, 0.75, 0.4, 1.0, 0.75)


def test_alpha_matrix_rejects_bad_entries():
    with pytest.raises(ValidationError):
        AlphaMatrix(((1.0, 0.2), (0.4, 1.0)))
    with pytest.raises(ValidationError):
        AlphaMatrix(((1.0, -0.2, 0.75), (0.4, 1.0, 0.75)))
    with pytest.raises(ValidationError):
        AlphaMatrix(((1.0, math.nan, 0.75), (0.4, 1.0, 0.75)))
    with pytest.raises(ValidationError):
        AlphaMatrix(((1.0, math.inf, 0.75), (0.4, 1.0, 0.75)))


# Six distinct entries, so a picker that reads a wrong link cannot pass.
DISTINCT = AlphaMatrix(((0.11, 0.12, 0.13), (0.21, 0.22, 0.23)))


def test_link_picker_reads_row_major_grid():
    take = link_picker(((2, 3), (1, 1), (2, 1)))
    assert take(DISTINCT.flat()) == (0.23, 0.11, 0.21)


def test_every_ordering_picks_its_documented_links():
    for p in PERMUTATIONS:
        links = ((p.j1, p.i1), (p.j1, p.i2), (p.j1, p.i3),
                 (p.j2, p.i1), (p.j2, p.i2), (p.j2, p.i3))
        assert p.take(DISTINCT.flat()) == tuple(DISTINCT.entry(j, i) for j, i in links), p


def test_every_pairing_picks_its_documented_links():
    for cfg in IC_CONFIGS:
        links = ((cfg.j1, cfg.i1), (cfg.j1, cfg.i2), (cfg.j2, cfg.i2), (cfg.j2, cfg.i1))
        assert cfg.take(DISTINCT.flat()) == tuple(DISTINCT.entry(j, i) for j, i in links), cfg


def test_pickers_stay_out_of_equality_hash_and_repr():
    p = TxPermutation(1, 2, 3, 1, 2)
    assert p == PERMUTATIONS[0] and hash(p) == hash(PERMUTATIONS[0])
    assert repr(p) == "TxPermutation(i1=1, i2=2, i3=3, j1=1, j2=2)"
    cfg = IcConfig(1, 2, 1, 2)
    assert cfg == IC_CONFIGS[0] and hash(cfg) == hash(IC_CONFIGS[0])
    assert repr(cfg) == "IcConfig(i1=1, i2=2, j1=1, j2=2)"


def test_alpha_matrix_accepts_zero_entries():
    m = AlphaMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    assert m.entry(1, 3) == 0.0


# ---------------------------------------------------------------- scenarios

def _gains(value_sq=1.0, override=None):
    g = [[complex(math.sqrt(value_sq), 0.0) for _ in range(3)] for _ in range(2)]
    if override is not None:
        (j, i), v = override
        g[j - 1][i - 1] = complex(math.sqrt(v), 0.0)
    return tuple(tuple(row) for row in g)


def test_validate_scenario_all_unit_gains():
    s = ChannelScenario(rho=100.0, gains=_gains(1.0))
    alpha = validate_scenario(s)
    assert alpha.flat() == (1.0,) * 6


def test_validate_scenario_alpha_identity_path():
    m = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
    s = ChannelScenario(rho=100.0, alpha=m)
    assert validate_scenario(s) is m


def test_validate_scenario_names_offending_entry():
    s = ChannelScenario(rho=100.0, gains=_gains(1.0, override=((2, 1), 0.009)))
    with pytest.raises(NotInterferenceLimited) as excinfo:
        validate_scenario(s)
    assert excinfo.value.j == 2
    assert excinfo.value.i == 1
    assert "(2,1)" in str(excinfo.value)


def test_validate_scenario_rejects_zero_alpha():
    m = AlphaMatrix(((1.0, 0.0, 0.75), (0.4, 1.0, 0.75)))
    with pytest.raises(NotInterferenceLimited) as excinfo:
        validate_scenario(ChannelScenario(rho=100.0, alpha=m))
    assert (excinfo.value.j, excinfo.value.i) == (1, 2)


def test_validate_scenario_alpha_cap():
    m = AlphaMatrix(((1.0, 0.2, 4.5), (0.4, 1.0, 0.75)))
    with pytest.raises(ValidationError):
        validate_scenario(ChannelScenario(rho=100.0, alpha=m))
    at_cap = AlphaMatrix(((1.0, 0.2, DEFAULT_ALPHA_CAP), (0.4, 1.0, 0.75)))
    assert validate_scenario(ChannelScenario(rho=100.0, alpha=at_cap)) is at_cap
    assert DEFAULT_ALPHA_CAP == 4.0


def test_scenario_requires_exactly_one_of_gains_alpha():
    m = AlphaMatrix(((1.0,) * 3, (1.0,) * 3))
    with pytest.raises(ValidationError):
        ChannelScenario(rho=100.0)
    with pytest.raises(ValidationError):
        ChannelScenario(rho=100.0, gains=_gains(), alpha=m)


def test_scenario_converts_or_rejects_a_plain_alpha():
    # A nested sequence used to pass unconverted, and validate_scenario then
    # failed with AttributeError on its .entry; "abc" was accepted.
    s = ChannelScenario(rho=10, alpha=((1, 1, 1), (1, 1, 1)))
    assert type(s.alpha) is AlphaMatrix
    assert validate_scenario(s) == AlphaMatrix(((1.0,) * 3, (1.0,) * 3))
    for bad in ("abc", 5, ((1, 1), (1, 1)), ((1, 1, "x"), (1, 1, 1))):
        with pytest.raises(ValidationError):
            ChannelScenario(rho=10, alpha=bad)


# Every scalar entry point that takes an exponent grid: call(alpha).
_P, _CFG = PERMUTATIONS[0], IC_CONFIGS[0]
GRID_TAKERS = [
    pytest.param(lambda a: sum_capacity_ub(100.0, a), id="sum_capacity_ub"),
    pytest.param(lambda a: sum_capacity_ub_single(100.0, a, _P), id="sum_capacity_ub_single"),
    pytest.param(gdof_ub, id="gdof_ub"),
    pytest.param(lambda a: gdof_ub_single(a, _P), id="gdof_ub_single"),
    pytest.param(lambda a: gdof_ub_case1(a, _P), id="gdof_ub_case1"),
    pytest.param(lambda a: gdof_ub_case2(a, _P), id="gdof_ub_case2"),
    pytest.param(lambda a: genie_params(a, _P, 100.0), id="genie_params"),
    pytest.param(lambda a: tdma_tin_rate(100.0, a), id="tdma_tin_rate"),
    pytest.param(lambda a: tin_sum_rate(100.0, a, _CFG), id="tin_sum_rate"),
    pytest.param(tdma_tin_gdof, id="tdma_tin_gdof"),
    pytest.param(lambda a: tdma_tin_gdof_config(a, _CFG), id="tdma_tin_gdof_config"),
    pytest.param(lambda a: psi(a, _P), id="psi"),
    pytest.param(in_extended_regime, id="in_extended_regime"),
    pytest.param(in_gsj_regime, id="in_gsj_regime"),
    pytest.param(classify, id="classify"),
    pytest.param(lambda a: genie_aux_pair(100.0, a, _P), id="genie_aux_pair"),
    pytest.param(lambda a: genie_satisfies_entropy_gap(100.0, a, _P),
                 id="genie_satisfies_entropy_gap"),
    pytest.param(check_exponent_range, id="check_exponent_range"),
]


def _value_or_error(call, alpha):
    try:
        return call(alpha)
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call", GRID_TAKERS)
def test_every_grid_taker_converts_a_nested_list_through_alpha_matrix(call):
    # Each used to raise AttributeError ('list' object has no attribute
    # 'flat'). a23 > a21 for the ordering 12312: case 1 of the GDoF bound
    # and d = 1 of the genie; its case-2 form raises CaseMismatch for both.
    grid = [[1.0, 0.5, 0.3], [0.4, 1.0, 0.6]]
    assert _value_or_error(call, grid) == _value_or_error(call, AlphaMatrix(grid))
    with pytest.raises(ValidationError, match="^alpha must be a 2x3 grid$"):
        call([[1.0, 1.0], [1.0, 1.0]])


def test_scenario_rejects_degenerate_rho():
    with pytest.raises(DegenerateSnr):
        ChannelScenario(rho=1.0, gains=_gains())
    with pytest.raises(DegenerateSnr):
        ChannelScenario(rho=0.25, gains=_gains())


@pytest.mark.parametrize("rho", [-2.0, 0.0, 0.5, 1.0, math.nan, math.inf])
def test_every_snr_taker_rejects_a_degenerate_rho(rho):
    # The scalar API used to raise TypeError (a complex power) at -2,
    # ZeroDivisionError at 0, and to return -inf rates at nan and inf powers
    # at inf; each now names the condition on rho.
    a = AlphaMatrix(((1.0, 0.5, 0.3), (0.4, 1.0, 0.6)))
    p, cfg = PERMUTATIONS[0], IC_CONFIGS[0]
    for call in (lambda: check_rho(rho),
                 lambda: ChannelScenario(rho=rho, alpha=a),
                 lambda: alpha_from_gain(1.0, rho),
                 lambda: effective_inr(rho, 0.5),
                 lambda: AuxChannelPair(1.0, 1.0, 1.0, 1.0, rho),
                 lambda: sum_capacity_ub(rho, a),
                 lambda: sum_capacity_ub_single(rho, a, p),
                 lambda: tdma_tin_rate(rho, a),
                 lambda: tin_sum_rate(rho, a, cfg),
                 lambda: genie_params(a, p, rho),
                 lambda: genie_params_from_gains(_gains(), p, rho)):
        with pytest.raises(DegenerateSnr, match=f"^rho must be finite and > 1, got {rho!r}$"):
            call()
    # The audits' SNR lists raise DegenerateSnr for an entry <= 1 or NaN (a
    # plain ValidationError before) and ValidationError above MAX_RHO, with
    # the message that names the list.
    want = ValidationError if rho == math.inf else DegenerateSnr
    for call in (lambda: check_rhos([100.0, rho]),
                 lambda: gap_audit(2, [rho], seed=1),
                 lambda: sandwich_audit(2, [rho], seed=1),
                 lambda: gdof_convergence_probe(a, [rho])):
        with pytest.raises(ValidationError, match=re.escape("every rho must satisfy 1 < rho <= ")) \
                as excinfo:
            call()
        assert type(excinfo.value) is want
    # A value that is no number is no SNR: it names its kind, not the range.
    for bad, kind in (("loud", "must be a number, got a string"),
                      (1j, "must be a number, got complex"), (None, "must be a number, got null"),
                      (10**400, "is too large for a float: 401 digits")):
        with pytest.raises(ValidationError, match=f"^rho {kind}$"):
            check_rho(bad)
    assert check_rho(100) == 100.0 and type(check_rho(100)) is float


def test_every_snr_taker_rejects_an_overflowing_power():
    # Each used to end in OverflowError from rho ** alpha, and
    # validate_scenario passed the scenario; each now names rho and the
    # largest exponent it powers.
    a = AlphaMatrix(((1.0, 0.5, 0.3), (0.4, 1.0, 2.0)))
    p, cfg = PERMUTATIONS[0], IcConfig(1, 3, 1, 2)  # the pairing reads a23
    big = AlphaMatrix(((1.0, 0.5, 0.3), (0.4, 1.0, 50.0)))
    for rho, x, call in (
            (1e200, 2.0, lambda: validate_scenario(ChannelScenario(rho=1e200, alpha=a))),
            (1e200, 2.0, lambda: effective_inr(1e200, 2.0)),
            (1e10, 400.0, lambda: effective_inr(1e10, 400.0)),
            (1e200, 2.0, lambda: sum_capacity_ub(1e200, a)),
            (1e200, 2.0, lambda: sum_capacity_ub_single(1e200, a, p)),
            (1e200, 2.0, lambda: tdma_tin_rate(1e200, a)),
            (1e200, 2.0, lambda: tin_sum_rate(1e200, a, cfg)),
            (1e200, 2.0, lambda: genie_params(a, p, 1e200)),
            (1e200, 2.0, lambda: genie_aux_pair(1e200, a, p)),
            (1e200, 2.0, lambda: genie_satisfies_entropy_gap(1e200, a, p)),
            (1e10, 50.0, lambda: gdof_convergence_probe(big, (1e2, 1e10)))):
        with pytest.raises(ValidationError, match=re.escape(
                f"rho = {rho!r} with exponent {x!r} overflows: rho**alpha must be at most ")):
            call()
    # The largest power the CLI admits still evaluates, and a hair above
    # it does not.
    cap = rho_from_db(MAX_RHO_DB)
    at_cap = AlphaMatrix(((DEFAULT_ALPHA_CAP,) * 3, (1.0,) * 3))
    assert math.isfinite(sum_capacity_ub(cap, at_cap).value)
    assert effective_inr(cap, DEFAULT_ALPHA_CAP) < math.inf
    with pytest.raises(ValidationError, match="overflows"):
        effective_inr(cap, DEFAULT_ALPHA_CAP * (1.0 + 1e-12))


# ---------------------------------------------------------------- wire format

def test_scenario_from_dict_alpha_form():
    s = scenario_from_dict({"rho_db": 20, "alpha": [[1, 0.2, 0.75], [0.4, 1, 0.75]]})
    assert s.rho == pytest.approx(100.0, rel=1e-15)
    assert s.alpha.entry(2, 1) == 0.4


def test_scenario_from_dict_gains_form():
    payload = {"rho_db": 20, "gains": [[[1, 0], [0.5, 0.5], [0, 1]]] * 2}
    s = scenario_from_dict(payload)
    assert s.gains[0][1] == complex(0.5, 0.5)
    alpha = validate_scenario(s)
    assert alpha.entry(1, 1) == pytest.approx(1.0, rel=1e-12)


def test_scenario_from_dict_rejects_malformed(tmp_path):
    with pytest.raises(ValidationError):
        scenario_from_dict({"rho_db": 20})
    with pytest.raises(ValidationError):
        scenario_from_dict({"rho_db": 20, "alpha": [[1] * 3] * 2, "gains": [[[1, 0]] * 3] * 2})
    with pytest.raises(ValidationError):
        scenario_from_dict({"alpha": [[1] * 3] * 2})
    with pytest.raises(ValidationError):
        scenario_from_dict({"rho_db": "loud", "alpha": [[1] * 3] * 2})
    with pytest.raises(ValidationError):
        scenario_from_dict({"rho_db": 20, "gains": [[1, 2, 3], [4, 5, 6]]})
    with pytest.raises(ValidationError):
        scenario_from_dict([1, 2, 3])
    # Integers too large for a float, wherever a number is read.
    big = 10 ** 400
    for payload in ({"rho_db": big, "alpha": [[1] * 3] * 2},
                    {"rho_db": 20, "alpha": [[1, big, 1], [1] * 3]},
                    {"rho_db": 20, "gains": [[[1, 0]] * 3, [[big, 0]] * 3]}):
        with pytest.raises(ValidationError):
            scenario_from_dict(payload)


@pytest.mark.parametrize("payload, field", [
    ({"rho_db": True, "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": "20", "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": None, "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": [20], "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": 20, "alpha": [[1, True, 1], [1] * 3]}, "alpha[1][2]"),
    ({"rho_db": 20, "alpha": [[1] * 3, [1, 1, "0.5"]]}, "alpha[2][3]"),
    ({"rho_db": 20, "gains": [[[1, 0]] * 3, [[True, 0]] + [[1, 0]] * 2]}, "gains[2][1] real part"),
    ({"rho_db": 20, "gains": [[[1, 0], [1, "1"], [1, 0]], [[1, 0]] * 3]},
     "gains[1][2] imaginary part"),
])
def test_scenario_from_dict_takes_only_json_numbers(payload, field):
    # Booleans and strings used to be converted with float(): true ran at
    # 1 dB and "20" at 20 dB.
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)} must be a number, got "):
        scenario_from_dict(payload)


def test_scenario_from_dict_takes_ints_and_floats():
    s = scenario_from_dict({"rho_db": 20.0, "alpha": [[1, 0.5, 1], [0, 1, 2]]})
    assert s.rho == 100.0
    assert s.alpha.flat() == (1.0, 0.5, 1.0, 0.0, 1.0, 2.0)
    s = scenario_from_dict({"rho_db": 30, "gains": [[[1, 0]] * 3, [[0, 1.5]] * 3]})
    assert s.gains[1][0] == 1.5j
    # The Python API takes numbers by the same rule.
    for bad, kind in ((True, "a boolean"), ("0.5", "a string")):
        message = f"alpha[1][1] must be a number, got {kind}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            AlphaMatrix([[bad, 0.5, 1], [1] * 3])


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"rho_db": 30, "alpha": [[1, 0.5, 0.6], [0.5, 1, 0.4]]}))
    s = load_scenario(path)
    assert s.rho == pytest.approx(1000.0, rel=1e-15)


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(path)


@pytest.mark.parametrize("data", [b"\xff\xfe\x00", b"[" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_load_scenario_undecodable(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    with pytest.raises(ValidationError):
        load_scenario(path)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.json")
