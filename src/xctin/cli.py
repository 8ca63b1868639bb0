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
import math
import sys
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, NamedTuple

from . import experiments
from .achievability import tdma_tin_gdof, tdma_tin_rate
from .bounds import gdof_ub, sum_capacity_ub
from .channel import (AlphaMatrix, check_exponent_range, load_scenario,
                      rho_from_db, validate_scenario)
from .errors import DegenerateSnr, UnsupportedFormat, ValidationError
from .experiments import (CONVERGE_COLUMNS, GAP_COLUMNS, GENERATOR_ID,
                          SANDWICH_COLUMNS, SANDWICH_GDOF_TOL,
                          SANDWICH_RATE_TOL_BITS, SWEEP_COLUMNS,
                          SWEEP_RANGE_MAX)
from .regime import classify


@dataclass(frozen=True)
class CliInvocation:
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
    command's summary; columns and rows are the csv records; failure names
    the audit check that failed, if any."""

    head: dict
    columns: tuple[str, ...]
    rows: list
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
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise UnsupportedFormat(f"cannot serialize {type(value).__name__} to JSON")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


_CSV_BOOL = {True: "true", False: "false"}
# Rows transposed at a time by the csv writer, so the column lists it holds
# stay small whatever the row count.
CSV_CHUNK_ROWS = 1024


def _csv_column(col: tuple) -> list[str]:
    """The cells of one column, as _csv_cell renders them: an all-float or
    all-bool column in one pass, any other cell by cell."""
    kinds = set(map(type, col))
    if kinds == {float}:
        return list(map(format, col, repeat(".12g")))
    if kinds == {bool}:
        return list(map(_CSV_BOOL.__getitem__, col))
    return list(map(_csv_cell, col))


def emit_report(results, format: str) -> bytes:
    """Serialize a results payload to bytes.

    "csv" renders results["columns"] and results["rows"]; "json" renders the
    whole payload with its construction field order. Reals carry 12
    significant digits in both formats, so equal results serialize to equal
    bytes.
    """
    if format == "csv":
        if not isinstance(results, dict) or "columns" not in results or "rows" not in results:
            raise UnsupportedFormat("csv serialization needs 'columns' and 'rows'")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(results["columns"])
        rows = iter(results["rows"])
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            widths = set(map(len, chunk))
            if len(widths) == 1 and 0 not in widths:
                writer.writerows(zip(*map(_csv_column, zip(*chunk))))
            else:
                # Ragged or empty rows: each written at its own length.
                writer.writerows([_csv_cell(v) for v in row] for row in chunk)
        return buf.getvalue().encode("utf-8")
    if format == "json":
        return (json.dumps(_jsonify(results), indent=2) + "\n").encode("utf-8")
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
    alpha = AlphaMatrix.from_rows((inv.alpha[:3], inv.alpha[3:]))
    check_exponent_range(alpha)
    return alpha, None


def _single_rho(inv: CliInvocation, scenario_rho: float | None) -> float:
    if scenario_rho is not None:
        if inv.rho_db is not None:
            raise ValidationError("--rho-db conflicts with --scenario (the file carries rho_db)")
        return scenario_rho
    if inv.rho_db is None or len(inv.rho_db) != 1:
        raise ValidationError("this command needs exactly one --rho-db value")
    return _rho_list_from_db(inv.rho_db)[0]


def _rho_list_from_db(values) -> tuple[float, ...]:
    rhos = tuple(rho_from_db(db) for db in values)
    if any(r <= 1.0 for r in rhos):
        raise DegenerateSnr(f"every rho_db must be > 0 dB, got {values!r}")
    return rhos


# ---------------------------------------------------------------- command handlers

def _cmd_eval(inv: CliInvocation):
    alpha, scenario_rho = _resolve_alpha(inv)
    rho = _single_rho(inv, scenario_rho)
    rate = tdma_tin_rate(rho, alpha)
    ub = sum_capacity_ub(rho, alpha)
    gap = ub.value - rate.value
    doc = {
        "command": "eval",
        "rho": rho,
        "rate_bits": rate.value,
        "rate_argmax": list(rate.argmax.as_tuple()),
        "ub_bits": ub.value,
        "ub_argmin": list(ub.argmin.as_tuple()),
        "gap_bits": gap,
    }
    columns = ("rho", "rate_bits", "rate_argmax", "ub_bits", "ub_argmin", "gap_bits")
    rows = [(rho, rate.value, rate.argmax.label(), ub.value, ub.argmin.label(), gap)]
    return Report(doc, columns, rows)


def _cmd_classify(inv: CliInvocation):
    alpha, _ = _resolve_alpha(inv)
    verdict = classify(alpha, tol=inv.tolerance)
    we = verdict.witness_extended
    wg = verdict.witness_gsj
    doc = {
        "command": "classify",
        "extended": verdict.in_extended,
        "gsj": verdict.in_gsj,
        "gdof": verdict.gdof_value,
        "witness_extended": list(we.as_tuple()) if we is not None else None,
        "witness_gsj": list(wg.as_tuple()) if wg is not None else None,
    }
    columns = ("extended", "gsj", "gdof", "witness_extended", "witness_gsj")
    rows = [(verdict.in_extended, verdict.in_gsj, verdict.gdof_value,
             we.label() if we is not None else None,
             wg.label() if wg is not None else None)]
    return Report(doc, columns, rows)


def _cmd_bound(inv: CliInvocation):
    alpha, scenario_rho = _resolve_alpha(inv)
    rho = _single_rho(inv, scenario_rho)
    result = sum_capacity_ub(rho, alpha)
    doc = {
        "command": "bound",
        "rho": rho,
        "min_bits": result.value,
        "argmin": list(result.argmin.as_tuple()),
        "per_perm": [{"perm": list(p.as_tuple()), "bound_bits": v}
                     for p, v in result.per_perm],
    }
    columns = ("perm", "bound_bits")
    rows = [(p.label(), v) for p, v in result.per_perm]
    return Report(doc, columns, rows)


def _cmd_gdof(inv: CliInvocation):
    alpha, _ = _resolve_alpha(inv)
    ub = gdof_ub(alpha)
    ach = tdma_tin_gdof(alpha)
    doc = {
        "command": "gdof",
        "tdma_tin_gdof": ach.value,
        "tdma_tin_argmax": list(ach.argmax.as_tuple()),
        "gdof_ub": ub.value,
        "argmin": list(ub.argmin.as_tuple()),
        "per_perm": [{"perm": list(p.as_tuple()), "gdof_ub": v}
                     for p, v in ub.per_perm],
    }
    columns = ("perm", "gdof_ub")
    rows = [(p.label(), v) for p, v in ub.per_perm]
    return Report(doc, columns, rows)


def _cmd_sweep(inv: CliInvocation):
    records = experiments.sweep_regime_plane(inv.beta, inv.step, tol=inv.tolerance)
    rows = [(r.alpha21, r.alpha12, r.in_extended, r.in_gsj, r.d_tt, r.gdof_ub, r.witness)
            for r in records]
    summary = {
        "command": "sweep",
        "beta": inv.beta,
        "step": inv.step,
        "range_max": SWEEP_RANGE_MAX,
        "tolerance": inv.tolerance,
        "n_records": len(records),
        "n_extended": sum(1 for r in records if r.in_extended),
        "n_gsj": sum(1 for r in records if r.in_gsj),
    }
    failure = experiments.sweep_audit_failure(records, inv.beta, inv.step, inv.tolerance)
    return Report(summary, SWEEP_COLUMNS, rows, failure)


def _cmd_gap_audit(inv: CliInvocation):
    n = inv.n if inv.n is not None else 1000
    rhos = _rho_list_from_db(inv.rho_db if inv.rho_db is not None else (20.0, 40.0, 60.0))
    report, rows = experiments.gap_audit_with_rows(n, rhos, inv.seed,
                                                   beta_free=not inv.fixed_family)
    summary = {
        "command": "gap-audit",
        "generator": GENERATOR_ID,
        "n_samples": report.n_samples,
        "rho_list": list(report.rho_list),
        "seed": report.seed,
        "max_gap_bits": report.max_gap_bits,
        "mean_gap_bits": report.mean_gap_bits,
        "min_gap_bits": report.min_gap_bits,
        "all_within_7": report.all_within_7,
        "argmax_alpha": report.argmax_alpha,
    }
    failure = None
    if not report.all_within_7:
        failure = f"max gap {report.max_gap_bits:.12g} bits exceeds 7 bits"
    elif not report.min_gap_bits > 0.0:
        failure = f"min gap {report.min_gap_bits:.12g} bits is not positive"
    return Report(summary, GAP_COLUMNS, rows, failure)


def _cmd_sandwich_audit(inv: CliInvocation):
    n = inv.n if inv.n is not None else 10000
    rhos = _rho_list_from_db(inv.rho_db) if inv.rho_db is not None else None
    report, rows = experiments.sandwich_audit_with_rows(n, rhos, inv.seed)
    summary = {
        "command": "sandwich-audit",
        "generator": GENERATOR_ID,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "rho_list": list(report.rho_list) if report.rho_list is not None else None,
        "rho_range": list(report.rho_range),
        "max_rate_violation_bits": report.max_rate_violation_bits,
        "max_gdof_violation": report.max_gdof_violation,
        "rate_tol_bits": SANDWICH_RATE_TOL_BITS,
        "gdof_tol": SANDWICH_GDOF_TOL,
    }
    failure = None
    if not report.max_rate_violation_bits <= SANDWICH_RATE_TOL_BITS:
        failure = (f"rate exceeds the bound by {report.max_rate_violation_bits:.12g} "
                   f"bits (tolerance {SANDWICH_RATE_TOL_BITS:g})")
    elif not report.max_gdof_violation <= SANDWICH_GDOF_TOL:
        failure = (f"TIN GDoF exceeds the GDoF bound by {report.max_gdof_violation:.12g} "
                   f"(tolerance {SANDWICH_GDOF_TOL:g})")
    return Report(summary, SANDWICH_COLUMNS, rows, failure)


def _cmd_converge(inv: CliInvocation):
    alpha, _ = _resolve_alpha(inv)
    rhos = _rho_list_from_db(inv.rho_db if inv.rho_db is not None else (40.0, 60.0, 90.0))
    probe = experiments.gdof_convergence_probe(alpha, rhos)
    rows = [(r.rho, r.rate_norm, r.ub_norm, r.d_tt, r.d_ub) for r in probe]
    summary = {
        "command": "converge",
        "rho_list": list(rhos),
        "d_tt": probe[0].d_tt,
        "d_ub": probe[0].d_ub,
    }
    outside = [r for r in probe if not abs(r.rate_norm - r.d_tt) <= 2.0 / math.log2(r.rho) + 1e-9]
    crossed = [r for r in probe if not r.ub_norm >= r.rate_norm - 1e-12]
    failure = None
    if outside:
        r = max(outside, key=lambda r: abs(r.rate_norm - r.d_tt) - 2.0 / math.log2(r.rho))
        failure = (f"normalized rate is {abs(r.rate_norm - r.d_tt):.12g} from d_tt at rho "
                   f"{r.rho:.12g}, outside the 2/log2(rho) corridor")
    elif crossed:
        r = max(crossed, key=lambda r: r.rate_norm - r.ub_norm)
        failure = (f"normalized bound is below the normalized rate by "
                   f"{r.rate_norm - r.ub_norm:.12g} at rho {r.rho:.12g}")
    return Report(summary, CONVERGE_COLUMNS, rows, failure)


@dataclass(frozen=True)
class Command:
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
        if fmt == "json":
            doc = report.head
            if command.table:
                doc = {"summary": doc,
                       "records": [dict(zip(report.columns, row)) for row in report.rows]}
            _write(emit_report(doc, "json"), inv.out, out_stream)
        elif fmt == "csv":
            _write(emit_report({"columns": report.columns, "rows": report.rows}, "csv"),
                   inv.out, out_stream)
            if inv.out is not None and command.table:
                _write(emit_report(report.head, "json"), None, out_stream)
        else:
            raise UnsupportedFormat(f"unsupported format: {fmt!r}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xctin",
        description="TDMA-TIN rates, genie-aided capacity bounds, and "
                    "noisy-interference regime audits for the 3x2 Gaussian X channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        # Absent flags stay out of the namespace, so CliInvocation holds
        # the only defaults.
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag in command.flags + ("--out", "--format"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


def _invocation_from_namespace(ns: argparse.Namespace) -> CliInvocation:
    fields = dict(vars(ns))
    if "rho_db" in fields:
        fields["rho_db"] = _parse_float_list(fields["rho_db"], "--rho-db")
    if "alpha" in fields:
        fields["alpha"] = _parse_float_list(fields["alpha"], "--alpha")
    inv = CliInvocation(**fields)
    if not (math.isfinite(inv.tolerance) and inv.tolerance >= 0.0):
        raise ValidationError(f"--tolerance must be finite and >= 0, got {inv.tolerance!r}")
    return inv


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
