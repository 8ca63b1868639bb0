import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xctin import cli, experiments
from xctin.cli import CliInvocation, emit_report, main, run
from xctin.channel import MAX_RHO_DB, AlphaMatrix
from xctin.errors import UnsupportedFormat
from xctin.experiments import GAP_COLUMNS, GapReport, Table

FIG_SCENARIO = {"rho_db": 40, "alpha": [[1, 0.2, 0.75], [0.4, 1, 0.75]]}


def _write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------- emit_report

def test_emit_report_is_byte_stable():
    payload = {"x": 1.2345678901234567, "flag": True, "items": [1.0, None]}
    assert emit_report(payload, "json") == emit_report(payload, "json")
    rows = {"columns": ("a", "b"), "rows": [(1.0 / 3.0, "w"), (2, None)]}
    assert emit_report(rows, "csv") == emit_report(rows, "csv")


def test_emit_report_rounds_to_12_significant_digits():
    data = emit_report({"x": 1.2345678901234567}, "json")
    assert json.loads(data)["x"] == 1.23456789012
    csv_data = emit_report({"columns": ("x",), "rows": [(1.0 / 3.0,)]}, "csv")
    assert csv_data.decode() == "x\n0.333333333333\n"


def test_emit_report_json_round_trips():
    payload = {"a": [1.5, {"b": False, "c": None}], "s": "text"}
    assert json.loads(emit_report(payload, "json")) == payload


def _csv_reference(columns, rows) -> bytes:
    """The csv bytes of writing every row cell by cell through _csv_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cli._csv_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def test_emit_report_csv_columns_match_cell_by_cell_writing():
    columns = ("i", "flag", "x", "label", "y")
    rows = [(0, True, -0.0, "a,b", np.float64(1.0) / 3.0),
            (1, False, 1.0 / 3.0, None, 2.5),
            (-2, True, 1e-300, "q\"uote", float("inf")),
            (3, False, 12345678901234.5, None, 7.0)]
    assert emit_report({"columns": columns, "rows": rows}, "csv") == _csv_reference(columns, rows)
    assert emit_report({"columns": columns, "rows": []}, "csv") == b"i,flag,x,label,y\n"


def test_emit_report_csv_columns_span_transpose_chunks():
    # Thousands of rows, and a column whose type changes in the last rows
    # only.
    n = 2 * 1024 + 7
    rows = [(k, k % 3 == 0, k / 7.0, k * 0.1 if k < n - 3 else None) for k in range(n)]
    data = emit_report({"columns": ("k", "b", "x", "y"), "rows": iter(rows)}, "csv")
    assert data == _csv_reference(("k", "b", "x", "y"), rows)
    assert data.count(b"\n") == n + 1


def test_emit_report_csv_writes_ragged_rows_whole():
    rows = [(1.5, True), (2.5, False, "extra"), (), (0.25,)]
    chunked = [(0.5, 1.5)] * 1024 + [(0.5, 1.5, 2.5)]
    for table in (rows, chunked):
        data = emit_report({"columns": ("a", "b"), "rows": table}, "csv")
        assert data == _csv_reference(("a", "b"), table)
    assert b"2.5,false,extra\n" in emit_report({"columns": ("a", "b"), "rows": rows}, "csv")


def test_emit_report_unsupported_format():
    with pytest.raises(UnsupportedFormat):
        emit_report({}, "xml")
    with pytest.raises(UnsupportedFormat):
        emit_report({"no": "rows"}, "csv")


# ---------------------------------------------------------------- point commands

def test_classify_scenario_file(tmp_path, capsys):
    path = _write_scenario(tmp_path, FIG_SCENARIO)
    assert main(["classify", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extended"] is True
    assert doc["gsj"] is False
    assert doc["gdof"] == pytest.approx(1.4, rel=1e-11)
    assert doc["witness_extended"] == [1, 2, 3, 1, 2]
    assert doc["witness_gsj"] is None


def test_classify_inline_alpha(capsys):
    assert main(["classify", "--alpha", "1,0.2,0.75,0.2,1,0.75"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extended"] is True and doc["gsj"] is True
    assert doc["gdof"] == pytest.approx(1.6, rel=1e-11)


def test_classify_tolerance_flag(capsys):
    argv = ["classify", "--alpha", "1,0.2,0.75,0.501,1,0.75"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["extended"] is False
    assert main(argv + ["--tolerance", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["extended"] is True


def test_eval_symmetric_point(capsys):
    assert main(["eval", "--rho-db", "20", "--alpha", "1,1,1,1,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho"] == pytest.approx(100.0)
    assert doc["rate_bits"] == pytest.approx(1.9856804168542677, rel=1e-11)
    assert doc["rate_argmax"] == [1, 2, 1, 2]
    assert doc["gap_bits"] == pytest.approx(doc["ub_bits"] - doc["rate_bits"], rel=1e-9)
    assert doc["gap_bits"] > 0.0


def test_eval_from_gains_scenario(tmp_path, capsys):
    payload = {"rho_db": 20, "gains": [[[1, 0]] * 3, [[0, 1]] * 3]}
    path = _write_scenario(tmp_path, payload)
    assert main(["eval", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rate_bits"] == pytest.approx(1.9856804168542677, rel=1e-11)


def test_bound_and_gdof_profiles(capsys):
    assert main(["bound", "--rho-db", "40", "--alpha", "1,0.2,0.75,0.4,1,0.75",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "perm,bound_bits"
    assert len(lines) == 13
    assert lines[1].startswith("12312,")

    assert main(["gdof", "--alpha", "1,0.2,0.75,0.4,1,0.75"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tdma_tin_gdof"] == pytest.approx(1.4, rel=1e-11)
    assert doc["gdof_ub"] == pytest.approx(1.4, rel=1e-11)
    assert len(doc["per_perm"]) == 12
    assert doc["argmin"] == [1, 2, 3, 1, 2]


# ---------------------------------------------------------------- validation

def test_malformed_scenario_exits_2_with_clean_stdout(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["classify", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("payload", [
    {"rho_db": 10 ** 400, "alpha": [[1] * 3] * 2},
    {"rho_db": 20, "alpha": [[1, 10 ** 400, 1], [1] * 3]},
    {"rho_db": 20, "gains": [[[1, 0]] * 3, [[0, 10 ** 400]] * 3]},
], ids=["rho_db", "alpha", "gain"])
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, payload):
    assert main(["eval", "--scenario", _write_scenario(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("payload, field", [
    ({"rho_db": True, "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": "20", "alpha": [[1] * 3] * 2}, "rho_db"),
    ({"rho_db": 20, "alpha": [[1, True, 1], [1] * 3]}, "alpha[1][2]"),
    ({"rho_db": 20, "gains": [[[1, 0]] * 3, [[0, False]] * 3]}, "gains[2][1] imaginary part"),
], ids=["rho_db-bool", "rho_db-string", "alpha", "gain"])
def test_scenario_number_of_another_json_type_exits_2(tmp_path, capsys, payload, field):
    assert main(["eval", "--scenario", _write_scenario(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be a number, got ")


def test_scenario_with_both_grids_exits_2(tmp_path, capsys):
    payload = {"rho_db": 20, "alpha": [[1] * 3] * 2, "gains": [[[1, 0]] * 3] * 2}
    assert main(["classify", "--scenario", _write_scenario(tmp_path, payload)]) == 2
    assert capsys.readouterr().out == ""


def test_eval_requires_rho(capsys):
    assert main(["eval", "--alpha", "1,1,1,1,1,1"]) == 2
    assert main(["eval", "--alpha", "1,1,1,1,1,1", "--rho-db", "20,40"]) == 2


def test_alpha_flag_validation(capsys):
    assert main(["classify", "--alpha", "1,2,3"]) == 2
    assert main(["classify", "--alpha", "1,1,1,1,1,oops"]) == 2
    assert main(["classify", "--alpha", "1,1,5,1,1,1"]) == 2  # above the cap
    assert main(["classify", "--alpha", "1,1,1,1,1,1", "--scenario", "x.json"]) == 2


def test_missing_scenario_file_is_io_error(capsys):
    assert main(["classify", "--scenario", "/no/such/file.json"]) == 1


def test_invalid_format_flag_rejected_by_parser():
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "--alpha", "1,1,1,1,1,1", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_unknown_command_via_invocation(capsys):
    err = io.StringIO()
    assert run(CliInvocation(command="frobnicate"), stdout=io.StringIO(), stderr=err) == 2
    assert "unknown command" in err.getvalue()


@pytest.mark.parametrize("inv", [
    CliInvocation("classify", alpha=(1.0, 0.2, 0.75, 0.4, 1.0, 0.75), format="xml"),
    CliInvocation("sweep", step=0.25, format="xml"),
], ids=["point", "table"])
def test_unknown_format_via_invocation_exits_2(inv):
    out, err = io.StringIO(), io.StringIO()
    assert run(inv, stdout=out, stderr=err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", "error: unsupported format: 'xml'\n")


# ---------------------------------------------------------------- sweep and audits

def test_sweep_csv_stdout_is_pure_records(capsys):
    assert main(["sweep", "--beta", "0.75", "--step", "0.25"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "alpha21,alpha12,extended,gsj,d_tt,gdof_ub,witness"
    assert len(lines) == 17
    parsed = list(csv.DictReader(io.StringIO(out)))
    assert sum(1 for row in parsed if row["extended"] == "true") == 8


def test_sweep_out_file_plus_stdout_summary(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--beta", "0.75", "--step", "0.25", "--out", str(out_path)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_records"] == 16
    assert summary["n_extended"] == 8
    assert summary["n_gsj"] == 4
    first_bytes = out_path.read_bytes()
    assert first_bytes.startswith(b"alpha21,alpha12,")

    assert main(argv) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first_bytes


def test_sweep_json_document(capsys):
    assert main(["sweep", "--beta", "0.6", "--step", "0.25", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["n_records"] == 16
    assert len(doc["records"]) == 16
    assert set(doc["records"][0]) == {"alpha21", "alpha12", "extended", "gsj",
                                      "d_tt", "gdof_ub", "witness"}


def test_gap_audit_csv_schema_and_determinism(capsys):
    argv = ["gap-audit", "--n", "20", "--seed", "7", "--rho-db", "20,40"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0] == "sample,rho,gap_bits,ub_bits,rate_bits"
    assert len(lines) == 41
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_gap_audit_json_summary(capsys):
    assert main(["gap-audit", "--n", "10", "--seed", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["all_within_7"] is True
    assert doc["summary"]["n_samples"] == 10
    assert "Philox" in doc["summary"]["generator"]
    assert len(doc["summary"]["argmax_alpha"]) == 2
    assert len(doc["records"]) == 30


def test_gap_audit_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    alpha = AlphaMatrix(((1.0,) * 3, (1.0,) * 3))
    doctored = GapReport(n_samples=1, rho_list=(100.0,), max_gap_bits=8.5,
                         mean_gap_bits=8.5, min_gap_bits=8.5, argmax_alpha=alpha,
                         all_within_7=False, seed=0)
    monkeypatch.setattr(cli.experiments, "gap_audit_with_rows",
                        lambda *a, **k: (doctored, Table.from_rows(
                            GAP_COLUMNS, "iffff", [(0, 100.0, 8.5, 10.0, 1.5)])))
    assert main(["gap-audit", "--n", "1"]) == 3
    # the finding is still reported, not swallowed
    captured = capsys.readouterr()
    assert "sample,rho" in captured.out
    assert captured.err == "audit failure: max gap 8.5 bits exceeds 7 bits\n"


def test_sandwich_audit_cli(capsys):
    assert main(["sandwich-audit", "--n", "50", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sample,rho,rate_bits,ub_bits,d_tt,d_ub"
    assert len(lines) == 51


def test_converge_cli(capsys):
    assert main(["converge", "--alpha", "1,0.2,0.75,0.4,1,0.75",
                 "--rho-db", "40,60,90"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,rate_norm,ub_norm,d_tt,d_ub"
    assert len(lines) == 4


def test_out_to_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--beta", "0.75", "--step", "0.25",
                 "--out", str(target)]) == 1
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------- byte pins

FIG_ALPHA = "1,0.2,0.75,0.4,1,0.75"

# SHA-256 of stdout and of the --out file ("" when there is none), recorded
# before the command table replaced the per-command dicts; the refactor and
# later ones must keep every byte.
BYTE_PINS = [
    (("eval", "--alpha", FIG_ALPHA, "--rho-db", "40"),
     "42210c85d0b349d53036fab510bc155f15fb890239181b47a5b8490cd68f9e71", ""),
    (("eval", "--scenario", "{scenario}", "--format", "csv"),
     "13a2ece6ec378e151029e30d3ce2dc140ad677d3931285016e3c88276472a90e", ""),
    (("classify", "--alpha", FIG_ALPHA, "--format", "csv"),
     "5f89b9f8268d0f4a9d9f69745b543acb406a9d61088a1d7c7e8838cae4006e45", ""),
    (("classify", "--scenario", "{scenario}"),
     "da7f6be68fe1063acf99f6112089d00ca70cb49d03951376abe0ca3f2bba02ef", ""),
    (("bound", "--alpha", FIG_ALPHA, "--rho-db", "40", "--format", "csv"),
     "a712f0315db747a0b6df902a0183f7e4ce34ac15c5a158897d4edde6ee0f8f35", ""),
    (("bound", "--scenario", "{scenario}"),
     "085f54b6026b169cd262fa823057e72a9895232c017a2d83a72803e52ec540af", ""),
    (("gdof", "--alpha", FIG_ALPHA),
     "16ab57d89f2068c6c1e66ba72e48ec139139413b14ce044b390fbadade38513c", ""),
    (("gdof", "--scenario", "{scenario}", "--format", "csv"),
     "4a80e252d309296f51e3f58aaac634ab9a528b0bcd4f389278d74f3a1413be2c", ""),
    (("converge", "--alpha", FIG_ALPHA, "--rho-db", "40,60,90"),
     "61efc72f9eb35ec2808c845d8dbf8529a7f3421b22f5c02941ca1f9a7dfda58d", ""),
    (("converge", "--scenario", "{scenario}", "--format", "json"),
     "ff38987b95e173c927091b975c5f882314909eac893cf8f6fdda44913ba8e7a2", ""),
    (("sweep", "--beta", "0.75", "--step", "0.05", "--out", "{out}"),
     "60683a6a78ae4de1b5959227af20a604696196f6601946b463458d22c330a952", "4eb2c51d50a4da2c96ae022a98b4bdbe813c81780ae6f88ba0894142817bc1e8"),
    (("sweep", "--beta", "0.6", "--step", "0.05", "--format", "json"),
     "f568a114c0a2e1429f7e3efc9b85cfdd4a3651862dee88ec5a71eba30b912f73", ""),
    (("gap-audit", "--n", "20", "--seed", "7", "--rho-db", "20,40"),
     "238b1e002f9dec89fe13648fc5b56abb37e29d9ece9b2d8f8fa5ea752ee2b2fb", ""),
    (("gap-audit", "--n", "20", "--seed", "7", "--format", "json", "--out", "{out}"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "5546883f4338b3c975cd4a8fba5f3aa17babf4996f55d258091b7d579cb6b3cd"),
    (("sandwich-audit", "--n", "20", "--seed", "1", "--out", "{out}"),
     "f8aad90bbc19c54d65050ded5bc1332493183c5c3e63fbd1d07d9b856bc4c710", "bacc6f296b7c565518b18348d8367d05cccbfbe194d12baeeaad42930bf6b88f"),
    (("sandwich-audit", "--n", "20", "--seed", "1", "--rho-db", "30,60", "--format", "json"),
     "64f438962589bf464632c859208a9228b1d16376973a7d9951fdca18ffda077a", ""),
    # Recorded before the audits moved to block kernels; these span several
    # blocks of experiments.BLOCK_ROWS evaluations (4500, 1800 and 5776).
    (("sandwich-audit", "--format", "json", "--n", "1500", "--seed", "4", "--rho-db", "10,45,90"),
     "81152f5fb6c1d5464cbd73e3e8ae51328d12e3cee6dffe5e835f361b2100fd54", ""),
    (("gap-audit", "--fixed-family", "--n", "600", "--seed", "2"),
     "a2010aebf98307078f69ff7283095e128715104360c375cafc0a4770e66bf6a5", ""),
    (("sweep", "--beta", "0.6", "--step", "0.01"),
     "b45a7a0aaea923b8d040b55dbb627835a5860d873bb07f0bc491282c4248d30f", ""),
    # Recorded before the sweep's regime test moved to the block kernel:
    # the benchmark's 151**2 half-grid shape (--out first, so its id differs
    # from the first sweep pin's), and a sweep at tolerance > 0.
    (("sweep", "--out", "{out}", "--beta", "0.7725", "--step", "0.005"),
     "09af0721bbba37c1666cbded24d60eeddd0f42c902955122b5afa982afe931dd", "321efbdba722395d62ff92ebf24902b78dd69ea90a5b54747206795acfc976d3"),
    (("sweep", "--beta", "0.7", "--step", "0.01", "--tolerance", "0.004"),
     "3207346b314e7a11363a1bb4c218ae58b00272c58b2f12c229276785e3a43ea1", ""),
    # Recorded before the sweep moved from grid-row blocks to one broadcast
    # over its axes: the largest grid, SWEEP_MAX_AXIS_POINTS per axis.
    (("sweep", "--out", "{out}", "--beta", "0.7", "--step", "0.00075"),
     "f8288e5bfd28328d1d25b6d8a00795dec6a126ae231e99e54838c598c1e8ee5b", "1a9604ca8299f504bdf00f4b6065979dfa0349d08773978eca5697059fd22fef"),
    # Recorded before the sweep and audits handed repeating columns over
    # coded: the sweep's JSON at the acceptance size, and a sandwich with an
    # SNR list, whose rho column repeats (flags ordered for distinct ids).
    (("sweep", "--step", "0.005", "--format", "json", "--beta", "0.75"),
     "9516c5b5728289518ef319fc90bcede4095fd90ee963bcb105ee5c0228ea2093", ""),
    (("sandwich-audit", "--n", "300", "--seed", "2", "--out", "{out}", "--rho-db", "20,40"),
     "cbb0ccf706fd5c7a0f22332b745ef4eb917154dd59acec67e1ec5e3d9a688af4", "802c9a8b0988d92945039ea0f68146d8ac78dd90228b573f059936f5cd827139"),
    # Recorded before the writer took all-text tables as coded rows: the
    # sweep's JSON to a file at tolerance > 0.
    (("sweep", "--format", "json", "--out", "{out}", "--step", "0.01", "--tolerance", "0.004",
      "--beta", "0.9"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "3fd1d547a9be33f49297d728f51604d03b4c1eb5bfdbddcbd2a90d481804ff7f"),
]
# Each pin's test id is its command and last two args; pytest would rename
# colliding ids silently, so a new pin orders its flags to make its id new.
_PIN_IDS = [" ".join(p[0][:1] + p[0][-2:]) for p in BYTE_PINS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_byte_pin_ids_are_unique():
    assert len(set(_PIN_IDS)) == len(BYTE_PINS)


@pytest.mark.parametrize("argv,stdout_sha,out_sha", BYTE_PINS, ids=_PIN_IDS)
def test_outputs_match_pinned_hashes(tmp_path, capsys, argv, stdout_sha, out_sha):
    scenario = _write_scenario(tmp_path, FIG_SCENARIO)
    out = tmp_path / "out.dat"
    argv = [a.replace("{scenario}", scenario).replace("{out}", str(out)) for a in argv]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
    assert (_sha(out.read_bytes()) if out.exists() else "") == out_sha


def test_gap_audit_fixed_family_matches_former_script_output(tmp_path, capsys):
    # Hash of the CSV that scripts/run_gap_audit.py --fixed-family wrote for
    # these arguments before the flag moved into the CLI.
    out = tmp_path / "gap.csv"
    assert main(["gap-audit", "--fixed-family", "--n", "20", "--seed", "7",
                 "--rho-db", "20,40", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == \
        "068bc32ea7106e1ed34ec73b0fb8991833b05ba5647acee1b8e502cb6c1b912a"
    assert json.loads(capsys.readouterr().out)["n_samples"] == 20


# ---------------------------------------------------------------- per-command flags and input holes

@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", FIG_ALPHA, "--n", "5", "--beta", "7"],
    ["eval", "--alpha", FIG_ALPHA, "--rho-db", "40", "--seed", "1"],
    ["gdof", "--alpha", FIG_ALPHA, "--tolerance", "0.1"],
    ["sweep", "--step", "0.25", "--alpha", FIG_ALPHA],
    ["sandwich-audit", "--n", "5", "--fixed-family"],
    ["gap-audit", "--n", "5", "--scenario", "x.json"],
])
def test_unused_flag_is_rejected_by_parser(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["gap-audit", "--n", "5", "--seed", "-1"],
    ["sandwich-audit", "--n", "5", "--seed", "-1"],
    ["classify", "--alpha", FIG_ALPHA, "--tolerance", "nan"],
    ["classify", "--alpha", FIG_ALPHA, "--tolerance", "-0.01"],
    ["sweep", "--step", "0.25", "--tolerance", "inf"],
    ["classify", "--alpha", "0,0.2,0.75,0.4,1,0.75"],
    ["sweep", "--step", "1e-7"],
    ["eval", "--alpha", "1,1,1,1,1,1", "--rho-db", "4000"],
    ["eval", "--alpha", "1,1,4,1,1,1", "--rho-db", "800"],
    ["eval", "--alpha", "1,1,1,1,1,1", "--rho-db", "nan"],
    ["gap-audit", "--n", "5", "--rho-db", "4000"],
    ["converge", "--alpha", FIG_ALPHA, "--rho-db", "3000,3100"],
    ["eval", "--alpha", "4,4,4,4,4,4", "--rho-db", repr(MAX_RHO_DB + 1e-9)],
])
def test_input_holes_exit_2_with_empty_stdout(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, tol", [
    (["classify", "--alpha", FIG_ALPHA, "--tolerance", "nan"], "nan"),
    (["classify", "--alpha", FIG_ALPHA, "--tolerance", "-0.01"], "-0.01"),
    (["sweep", "--step", "0.25", "--tolerance", "inf"], "inf"),
])
def test_bad_tolerance_exits_2_from_the_library_check(capsys, argv, tol):
    # classify and sweep check tol themselves (regime.check_tol); the CLI
    # keeps no second check of its own.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite and >= 0, got {tol}\n"


@pytest.mark.parametrize("argv, db", [
    (["eval", "--alpha", FIG_ALPHA, "--rho-db", "1e-300"], 1e-300),
    (["gap-audit", "--n", "5", "--rho-db", "20,1e-17"], 1e-17),
    (["converge", "--alpha", FIG_ALPHA, "--rho-db=-3,40"], -3.0),
])
def test_snr_whose_rho_is_not_above_1_exits_2_naming_rho(capsys, argv, db):
    # A positive dB below about 1e-15 gives rho = 1.0 exactly, so the
    # message names the condition on rho, not on the dB value.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: rho = 10**(rho_db/10) must exceed 1, got "
                            f"{10.0 ** (db / 10.0)!r} at rho_db {db!r}\n")


def test_scenario_snr_above_maximum_exits_2(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"rho_db": 4000, "alpha": [[1, 1, 1], [1, 1, 1]]})
    assert main(["eval", "--scenario", path]) == 2
    assert capsys.readouterr().out == ""


def test_eval_at_maximum_snr_is_finite(capsys):
    assert main(["eval", "--alpha", "4,4,4,4,4,4", "--rho-db", repr(MAX_RHO_DB)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ub_bits"] > doc["rate_bits"] > 0.0


def test_sweep_geometry_audit_failure_exits_3_after_writing(monkeypatch, capsys):
    # A classifier that drops the grid slack lets 7*0.05 round past
    # 1 - 0.65, so a whole grid line leaves the regime: the records and the
    # summary are still written, then the geometry audit exits 3.
    assert main(["sweep", "--beta", "0.65", "--step", "0.05"]) == 0
    capsys.readouterr()
    exact = experiments._witness_links
    monkeypatch.setattr(experiments, "_witness_links", lambda links, tol: exact(links, 0.0))
    assert main(["sweep", "--beta", "0.65", "--step", "0.05", "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == doc["summary"]["n_records"] == 16 ** 2
    # At tolerance > 0 the regions are not rectangles and go unchecked.
    assert main(["sweep", "--beta", "0.65", "--step", "0.05", "--tolerance", "1e-15"]) == 0


def test_sweep_inclusion_audit_failure_exits_3_after_writing(monkeypatch, capsys):
    # A classifier that puts every point in the reference regime but none
    # in the extended one breaks regime inclusion everywhere.
    monkeypatch.setattr(experiments, "_witness_links", lambda links, tol: (False, True))
    assert main(["sweep", "--beta", "0.75", "--step", "0.25", "--format", "json"]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert len(doc["records"]) == doc["summary"]["n_records"] == 16
    assert captured.err == "audit failure: regime inclusion violated at (0, 0)\n"
    assert main(["sweep", "--beta", "0.75", "--step", "0.25", "--tolerance", "0.1"]) == 3


def test_sweep_geometry_audit_failure_names_first_offending_point(monkeypatch, capsys):
    exact = experiments._witness_links
    monkeypatch.setattr(experiments, "_witness_links", lambda links, tol: exact(links, 0.0))
    assert main(["sweep", "--beta", "0.65", "--step", "0.05"]) == 3
    # 7*0.05 rounds past 1 - 0.65, so line 7 leaves the regime at (0, 0.35).
    assert capsys.readouterr().err == "audit failure: regime geometry violated at (0, 0.35)\n"


def test_sandwich_and_converge_failures_name_the_bound_on_stderr(monkeypatch, capsys):
    report, rows = experiments.sandwich_audit_with_rows(3, seed=1)
    monkeypatch.setattr(cli.experiments, "sandwich_audit_with_rows", lambda *a, **k: (
        dataclasses.replace(report, max_gdof_violation=0.25), rows))
    assert main(["sandwich-audit", "--n", "3", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("sample,rho")
    assert captured.err == ("audit failure: TIN GDoF exceeds the GDoF bound by 0.25 "
                            "(tolerance 1e-12)\n")
    fig = AlphaMatrix(((1.0, 0.2, 0.75), (0.4, 1.0, 0.75)))
    probe = experiments.gdof_convergence_probe(fig, (1e4, 1e6))
    monkeypatch.setattr(cli.experiments, "gdof_convergence_probe", lambda *a: [
        dataclasses.replace(probe[0], ub_norm=probe[0].rate_norm - 0.5), probe[1]])
    assert main(["converge", "--alpha", FIG_ALPHA, "--rho-db", "40,60"]) == 3
    assert capsys.readouterr().err == ("audit failure: normalized bound is below the "
                                       "normalized rate by 0.5 at rho 10000\n")


def test_sweep_near_grid_beta_passes_geometry_audit(capsys):
    # 1 - beta sits 3e-11 below grid line 5, beyond the grid slack, so
    # line 5 is out of the regime on both sides of the audit.
    assert main(["sweep", "--beta", "0.75000000003", "--step", "0.05"]) == 0


# ---------------------------------------------------------------- main(argv) contract

# Scenario files of the contract tests, one per kind of input: good grids,
# SNRs and gains out of range, integers too large for a float, and files
# that are no JSON object at all; "missing" names a file that is not there.
CONTRACT_SCENARIOS = {
    "alpha": json.dumps(FIG_SCENARIO).encode(),
    "gains": json.dumps({"rho_db": 20, "gains": [[[1, 0]] * 3, [[0, 1]] * 3]}).encode(),
    "loud": json.dumps({"rho_db": 5000, "alpha": [[1] * 3] * 2}).encode(),
    "huge": json.dumps({"rho_db": 20, "gains": [[[1e200, 0]] * 3] * 2}).encode(),
    "zero": json.dumps({"rho_db": 20, "alpha": [[0] * 3] * 2}).encode(),
    "bigint-rho": json.dumps({"rho_db": 10 ** 400, "alpha": [[1] * 3] * 2}).encode(),
    "bigint-alpha": json.dumps({"rho_db": 20, "alpha": [[1, 10 ** 400, 1], [1] * 3]}).encode(),
    "bigint-gain": json.dumps({"rho_db": 20, "gains": [[[1, 0]] * 3,
                                                      [[0, 10 ** 400]] * 3]}).encode(),
    "broken": b"{oops",
    "binary": b"\xff\xfe\x00",
    "deep": b"[" * 100_000,
}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    paths = []
    for name, data in CONTRACT_SCENARIOS.items():
        (d / f"{name}.json").write_bytes(data)
        paths.append(str(d / f"{name}.json"))
    paths.append(str(d / "missing.json"))
    return {"scenarios": paths, "outs": [str(d / "out.dat"), str(d), str(d / "no" / "out.dat")]}


_numbers = st.one_of(st.floats(-10.0, 900.0), st.sampled_from(["nan", "inf", "-inf", "4000", "x"]))
_number_lists = st.lists(_numbers, min_size=1, max_size=7).map(lambda xs: ",".join(map(str, xs)))
_VALUES = {
    "--alpha": st.one_of(st.just(FIG_ALPHA), _number_lists),
    "--rho-db": st.one_of(st.sampled_from(["40", "20,40", "30,60,90"]), _number_lists),
    "--beta": st.one_of(st.floats(0.4, 1.1).map(str), st.sampled_from(["0.65", "nan"])),
    "--step": st.sampled_from(["0.05", "0.1", "0.25", "0", "-1", "nan", "1e-7", "x"]),
    "--n": st.one_of(st.integers(-1, 20).map(str), st.just("x")),
    "--seed": st.one_of(st.integers(-3, 2**70).map(str), st.just("1.5")),
    "--tolerance": st.one_of(st.sampled_from(["0", "0.01", "-1", "nan", "inf"]),
                             st.floats(0.0, 1.0).map(str)),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
# Audits and sweeps without these flags run at full acceptance size.
_SIZE_FLAGS = {"sweep": "--step", "gap-audit": "--n", "sandwich-audit": "--n"}
_NON_FINITE = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_contract(contract_files, data):
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = data.draw(st.lists(st.sampled_from(sorted(cli._FLAGS)), max_size=5, unique=True))
    if command in _SIZE_FLAGS and _SIZE_FLAGS[command] not in flags:
        flags.append(_SIZE_FLAGS[command])
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag == "--scenario":
            argv.append(data.draw(st.sampled_from(contract_files["scenarios"])))
        elif flag == "--out":
            argv.append(data.draw(st.sampled_from(contract_files["outs"])))
        elif flag != "--fixed-family":
            argv.append(data.draw(_VALUES[flag]))
    _check_contract(argv, contract_files["outs"][0])


def _check_contract(argv, out):
    """main(argv) exits 0, 1, 2 or 3 with no traceback, writes nothing to
    stdout on exit 1 or 2, and writes no non-finite number to stdout or to
    out, the path of its --out file if it has one there."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert stdout.getvalue() == "", argv
    outputs = [stdout.getvalue()]
    if "--out" in argv and argv[argv.index("--out") + 1] == out:
        with contextlib.suppress(FileNotFoundError), open(out) as fh:
            outputs.append(fh.read())
    assert not any(_NON_FINITE.search(text) for text in outputs), argv


@pytest.mark.parametrize("name", [*CONTRACT_SCENARIOS, "missing"])
@pytest.mark.parametrize("command", ["eval", "classify", "bound", "gdof", "converge"])
def test_every_scenario_file_meets_the_contract(contract_files, command, name):
    scenario, = (path for path in contract_files["scenarios"]
                 if os.path.basename(path) == f"{name}.json")
    _check_contract([command, "--scenario", scenario], contract_files["outs"][0])
