"""Command-line interface, dispatched from one table, `report.COMMANDS`:
each command's help, whether it reads a FILE, and its options.

Input is a UTF-8 problem file with `n = <int>` and `r = <expression>` lines
(`-` reads standard input); curves are parenthesized tuples of t-polynomials.
Options go before or after FILE as `--name value` or `--name=value`; the
last one given wins.  Every command prints a report with a machine-parsable
JSON section (`--json` emits only that section).  Exit codes: 0 success
with claims, 1 verified-violation findings (still a valid run), 2 input and
usage errors and failed verification, each one line on standard error.
"""

from __future__ import annotations

import json
import pathlib
import sys

from .expr import ExprSyntaxError
from .fdb import ExpansionTooLargeError
from .germ import NotRealError, SolveGraphError
from .report import (COMMANDS, TOOL_VERSION, InputError, Option, ReportMismatchError, build_report,
                     machine_json, render_report, verify_report)
from .search import SearchTooLargeError
from .typecalc import VerificationFailedError

_MACHINE_MARKER = "--- machine section (json) ---"
# The typed errors of a run: bad input, and a check that failed.  Both exit 2.
_INPUT_ERRORS = (InputError, ExprSyntaxError, NotRealError, SearchTooLargeError,
                 ExpansionTooLargeError)
_CHECK_ERRORS = (ReportMismatchError, VerificationFailedError, SolveGraphError)


def _option_row(o: Option) -> tuple[str, str]:
    kind = "" if o.type is bool else f" {o.type.__name__.upper()}"
    tail = "[required]" if o.default is None else f"[default: {o.default}]" if kind else ""
    return f"--{o.name}{kind}", f"{o.help}  {tail}".strip()


def _help(prog: str, command: str | None) -> str:
    if command is None:
        usage, doc = "[OPTIONS] COMMAND [ARGS]...", main.__doc__
        tables = {"Options": [("--version", "Show the version and exit.")],
                  "Commands": [(name, spec.help) for name, spec in COMMANDS.items()]}
    else:
        spec = COMMANDS[command]
        usage, doc = f"{command} [OPTIONS]" + " FILE" * spec.reads_file, spec.help
        tables = {"Options": [_option_row(o) for o in spec.options]}
    tables["Options"].append(("--help", "Show this message and exit."))
    text = f"Usage: {prog} {usage}\n\n" + "\n".join(f"  {ln.strip()}" for ln in doc.splitlines())
    for title, rows in tables.items():
        width = max(len(left) for left, _ in rows)
        text += f"\n\n{title}:\n" + "\n".join(f"  {left:<{width}}  {right}".rstrip()
                                                 for left, right in rows)
    return text + "\n"


def _exit_with(stream, text: str, code: int):
    print(text, end="", file=stream, flush=True)
    sys.exit(code)


def _parse(prog: str, argv: list[str] | None) -> tuple[str, str | None, dict, bool]:
    """(command, FILE or None, the options to record, --json) of a command
    line (`sys.argv` if None); --help and --version print and exit here."""
    args = iter(sys.argv[1:] if argv is None else argv)
    command = next(args, None)
    if command in ("--help", "--version"):
        _exit_with(sys.stdout, _help(prog, None) if command == "--help"
                   else f"contactps, version {TOOL_VERSION}\n", 0)
    if command not in COMMANDS:
        raise InputError(("missing command" if command is None else f"no such command {command!r}")
                         + f"; see '{prog} --help'")
    spec = COMMANDS[command]
    options = {f"--{o.name}": o for o in spec.options}
    given, positional = {}, []
    for arg in args:
        if arg == "--help":
            _exit_with(sys.stdout, _help(prog, command), 0)
        if arg == "-" or not arg.startswith("-"):
            positional.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        opt = options.get(flag)
        if opt is None or opt.type is bool and eq:
            raise InputError(f"option {flag!r} does not take a value" if opt else
                             f"no such option {flag!r}")
        if not eq and opt.type is not bool and (value := next(args, None)) is None:
            raise InputError(f"option {flag!r} requires a value")
        try:
            given[opt.name] = True if opt.type is bool else opt.type(value)
        except ValueError:
            raise InputError(f"{value!r} is not a valid integer for {flag!r}") from None
    missing = [o.name for o in spec.options if o.default is None and o.name not in given]
    if missing:
        raise InputError(f"missing option '--{missing[0]}'")
    if len(positional) != spec.reads_file:
        raise InputError(f"unexpected extra argument {positional[spec.reads_file]!r}"
                         if positional[spec.reads_file:] else "missing argument 'FILE'")
    stored = {o.key: given.get(o.name, o.default) for o in spec.recorded}
    return command, positional[0] if positional else None, stored, given.get("json", False)


def _read(name: str) -> str:
    """The text of FILE (`-` is standard input): UTF-8, universal newlines."""
    try:
        data = sys.stdin.buffer.read() if name == "-" else pathlib.Path(name).read_bytes()
        text = data.decode("utf-8")
        return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    except OSError as exc:
        raise InputError(f"cannot read {name!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{name!r} is not UTF-8: {exc}") from None


def _verify(text: str):
    if _MACHINE_MARKER in text:
        text = text.split(_MACHINE_MARKER, 1)[1]
    try:
        machine = json.loads(text)
    except json.JSONDecodeError as exc:
        _exit_with(sys.stderr, f"input error: not a report file: {exc}\n", 2)
    try:
        summary = verify_report(machine)
    except _INPUT_ERRORS + _CHECK_ERRORS as exc:
        _exit_with(sys.stderr, f"verification failure: {exc}\n", 2)
    _exit_with(sys.stdout, json.dumps(summary, sort_keys=True) + "\n", 0)


def main(args=None, prog_name="contactps"):
    """Exact computation of orders of contact, positivity certificates, and
    constructive desingularization for real hypersurface germs."""
    try:
        command, file, options, as_json = _parse(prog_name, args)
        source = _read(file) if file is not None else ""
    except InputError as exc:
        _exit_with(sys.stderr, f"input error: {exc}\n", 2)
    if command == "verify-report":
        _verify(source)
    try:
        machine, code = build_report(command, source, options)
    except _INPUT_ERRORS as exc:
        _exit_with(sys.stderr, f"input error: {exc}\n", 2)
    except _CHECK_ERRORS as exc:
        _exit_with(sys.stderr, f"verification failure: {exc}\n", 2)
    _exit_with(sys.stdout, machine_json(machine) if as_json else render_report(machine), code)


# click.testing.CliRunner, which the tests and the benchmark run the command
# through, reads `name` and calls `main(args=..., prog_name=...)`.
main.name, main.main = "contactps", main

if __name__ == "__main__":  # pragma: no cover
    main()
