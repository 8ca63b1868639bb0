"""Command-line front end; COMMANDS lists each command with its flags.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 audit property
failure. Data go to stdout or --out; diagnostics go to stderr only, never
into the data stream. Reals are serialized with 12 significant digits, so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain
from typing import Callable, NamedTuple

from .achievability import IcConfig, tdma_tin_gdof, tdma_tin_rate
from .bounds import TxPermutation, gdof_ub, sum_capacity_ub
from .channel import (AlphaMatrix, check_exponent_range, load_scenario, rhos_from_db,
                      validate_scenario)
from .errors import UnsupportedFormat, ValidationError
from .regime import classify
from .tables import Table


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
    command's summary; records are an audit's Table, or the list of record
    dicts of a point command or converge; failure names the audit check that
    failed, if any."""

    head: dict
    records: Table | list[dict]
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


def _json_bytes(doc) -> bytes:
    """json.dumps(_jsonify(doc), indent=2) and a newline in UTF-8, each
    Table value of a top-level dict written by writer._json_records."""
    if not (isinstance(doc, dict) and any(isinstance(v, Table) for v in doc.values())):
        return (json.dumps(_jsonify(doc), indent=2) + "\n").encode("utf-8")
    from .writer import _json_records
    pieces = []
    for key, value in doc.items():
        pieces.append(f"{',' if pieces else '{'}\n  {json.dumps(key)}: ".encode("utf-8"))
        pieces += _json_records(value) if isinstance(value, Table) else [
            json.dumps(_jsonify(value), indent=2).replace("\n", "\n  ").encode("utf-8")]
    return b"".join(pieces + [b"\n}\n"])


def emit_report(results, format: str) -> bytes:
    """Serialize a results payload to bytes.

    "csv" renders a Table as writer._records(table, False) gives it, or the
    "columns" and "rows" of a dict cell by cell; "json" renders the whole
    payload with its construction field order, a Table as its records.
    Reals carry 12 significant digits in both formats, so equal results
    serialize to equal bytes. Only a Table loads the writer, and numpy.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if isinstance(results, Table):
            from .writer import _records
            writer.writerow(results.names)
            # Written a piece at a time, so no list of pieces is held.
            out = io.BytesIO()
            out.writelines(chain((buf.getvalue().encode("utf-8"),), _records(results, False)))
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
    """A point command's report: its JSON document, and as its records the
    document's "per_perm" records when it has a profile, otherwise one
    record of the fields after "command"."""
    records = doc.get("per_perm")
    if records is None:
        _, *names = doc
        records = [{name: doc[name] for name in names}]
    return Report(doc, records)


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
    return Report(summary, [row._asdict() for row in probe],
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
            data = report.records
            if not isinstance(data, Table):
                data = {"columns": list(data[0]), "rows": [r.values() for r in data]}
        elif command.table:
            data = {"summary": report.head, "records": report.records}
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
