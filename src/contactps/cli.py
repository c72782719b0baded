"""Command-line interface.

Input is a UTF-8 problem file with `n = <int>` and `r = <expression>` lines;
curves are passed as parenthesized tuples of t-polynomials.  Every command
prints a report with a machine-parsable JSON section (`--json` emits only
that section).  Exit codes: 0 success with claims, 1 verified-violation
findings (still a valid run), 2 input errors.
"""

from __future__ import annotations

import json
import sys

import click

from .expr import ExprSyntaxError
from .germ import NotRealError, SolveGraphError
from .report import (
    InputError,
    ReportMismatchError,
    TOOL_VERSION,
    build_report,
    machine_json,
    render_report,
    verify_report,
)
from .typecalc import VerificationFailedError

_MACHINE_MARKER = "--- machine section (json) ---"
# The typed errors of a run: bad input, and a check that failed.  Both exit 2.
_INPUT_ERRORS = (InputError, ExprSyntaxError, NotRealError)
_CHECK_ERRORS = (ReportMismatchError, VerificationFailedError, SolveGraphError)


@click.group()
@click.version_option(TOOL_VERSION, prog_name="contactps")
def main():
    """Exact computation of orders of contact, positivity certificates, and
    constructive desingularization for real hypersurface germs."""


def _execute(command: str, file, options: dict, as_json: bool):
    source = file.read() if file is not None else ""
    try:
        machine, code = build_report(command, source, options)
    except _INPUT_ERRORS as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except _CHECK_ERRORS as exc:
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(2)
    out = machine_json(machine) if as_json else render_report(machine)
    click.echo(out, nl=False)
    sys.exit(code)


_file_arg = click.argument("file", type=click.File("r", encoding="utf-8"))
_json_flag = click.option("--json", "as_json", is_flag=True,
                          help="emit only the machine section")
_curve_opt = click.option("--curve", required=True,
                          help='curve as a tuple of t-polynomials, e.g. "(t^3, t^2, 0)"')


def _budget_options(fn):
    for deco in (
        click.option("--max-mult", type=int, default=4, show_default=True,
                     help="max curve multiplicity searched"),
        click.option("--max-deg", type=int, default=6, show_default=True,
                     help="max curve degree searched"),
        click.option("--coeff-height", type=int, default=2, show_default=True,
                     help="height bound for scanned rational coefficients"),
        click.option("--trials", type=int, default=200, show_default=True,
                     help="number of seeded random candidates"),
        click.option("--seed", type=int, default=0, show_default=True),
    ):
        fn = deco(fn)
    return fn


@main.command()
@_file_arg
@_json_flag
def order(file, as_json):
    """Order of vanishing of the problem's defining expression."""
    _execute("order", file, {}, as_json)


@main.command()
@_file_arg
@_curve_opt
@_json_flag
def pullback(file, as_json, **options):
    """Pull the defining expression back along a curve."""
    _execute("pullback", file, options, as_json)


@main.command()
@_file_arg
@_curve_opt
@_json_flag
def contact(file, as_json, **options):
    """Order of contact (pullback order over multiplicity) of a curve."""
    _execute("contact", file, options, as_json)


@main.command(name="ps-check")
@_file_arg
@_budget_options
@_json_flag
def ps_check(file, as_json, **options):
    """Certify positivity structurally or search for a violating curve."""
    _execute("ps-check", file, options, as_json)


@main.command()
@_file_arg
@_json_flag
def gram(file, as_json):
    """Exact Hermitian sum-of-squares decomposition (or indefinite direction)."""
    _execute("gram", file, {}, as_json)


@main.command(name="germ-ps")
@_file_arg
@click.option("--kmin", type=int, default=2, show_default=True)
@click.option("--kmax", type=int, required=True)
@_budget_options
@_json_flag
def germ_ps(file, as_json, **options):
    """Per-jet-order positivity verdicts and the stabilization order."""
    _execute("germ-ps", file, options, as_json)


@main.command(name="reg-type")
@_file_arg
@click.option("--max", "max", type=int, default=8, show_default=True,
              help="cap for the regular-type computation")
@_json_flag
def reg_type_cmd(file, as_json, **options):
    """Max order of contact of regular curves, with certificate."""
    _execute("reg-type", file, options, as_json)


@main.command(name="sing-search")
@_file_arg
@_budget_options
@_json_flag
def sing_search(file, as_json, **options):
    """Bounded search for high-contact singular curves."""
    _execute("sing-search", file, options, as_json)


@main.command()
@_file_arg
@_curve_opt
@_json_flag
def desingularize(file, as_json, **options):
    """Construct a regular contact-4 curve from a contact-4m singular one."""
    _execute("desingularize", file, options, as_json)


@main.command(name="fdb-verify")
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_json_flag
def fdb_verify(as_json, **options):
    """Cross-check the partition expansion against the operator oracle."""
    _execute("fdb-verify", None, options, as_json)


@main.command()
@_file_arg
@click.option("--all", "all_", is_flag=True, required=True,
              help="run every analysis on the problem file")
@click.option("--max", "max", type=int, default=8, show_default=True)
@_budget_options
@_json_flag
def report(file, all_, as_json, **options):
    """Full analysis: order, positivity, types, and the inference trail."""
    _execute("report", file, options, as_json)


@main.command(name="verify-report")
@click.argument("report_file", type=click.File("r", encoding="utf-8"))
def verify_report_cmd(report_file):
    """Re-run the command embedded in a report and check the claims agree."""
    text = report_file.read()
    if _MACHINE_MARKER in text:
        text = text.split(_MACHINE_MARKER, 1)[1]
    try:
        machine = json.loads(text)
    except json.JSONDecodeError as exc:
        click.echo(f"input error: not a report file: {exc}", err=True)
        sys.exit(2)
    try:
        summary = verify_report(machine)
    except _INPUT_ERRORS + _CHECK_ERRORS as exc:
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps(summary, sort_keys=True))
    sys.exit(0)


if __name__ == "__main__":  # pragma: no cover
    main()
