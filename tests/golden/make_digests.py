"""Digests of the CLI's output on a fixed set of inputs and command lines.

tests/golden/digests.json holds one line per run, keyed by input and
command line: the run's exit code and three SHA-256 digests, of its
`--json` machine section, of its human report less the `generated:` line
(the one line that carries a timestamp), and of its standard error (of both
runs, the `--json` one first).  The inputs are the 19 corpus files, the
malformed inputs of tests/test_cli.py and a seeded slice of the series-rule
germs of tests/test_soundness.py; the command lines are COMMAND_SETS.
The curve commands (pullback, contact, desingularize) run on every corpus
file with each curve of CURVES for the file's arity, and fdb-verify, which
reads no file, runs each line of FDB_VERIFY once.
tests/test_golden.py re-runs every line and compares.

    PYTHONPATH=src python3 tests/golden/make_digests.py

regenerates the file in one process through cli.main and prints the runs
whose digests changed.  A regeneration is a deliberate output change: list
it in CHANGES.md as a golden's would be, with the runs that changed.  The
digests show that an output changed; the readable goldens beside this file
show what.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
CORPUS_DIR = HERE.parent.parent / "bench" / "corpus"

_CUBIC_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n"
# The malformed inputs of tests/test_cli.py, by the name of their run.
MALFORMED = {
    "syntax_error": b"n = 2\nr = z1 +\n",
    "unexpected_end": b"n = 3\nr = 2*Re(z3) +\n",
    "rebound_name": (_CUBIC_SQUARE + "r = 2*Re(z3) + abs2(z1)\n").encode(),
    "zero_denominator": b"n = 3\nr = 2*Re(z3) + 1/0*abs2(z1)\n",
    "one_variable": b"n = 1\nr = 2*Re(z1) + abs2(z1)^2\n",
    "not_utf8": b"n = 3\nr = 2*Re(z3) + abs2(z1)\xff\n",
    "not_utf8_byte": b"\xff",
}
# The first SERIES_GERMS germs that tests/test_soundness.py draws.
SERIES_SEED, SERIES_GERMS = 26, 8
_FALSIFY = ("--max-mult", "4", "--max-deg", "8", "--coeff-height", "2", "--trials", "3000")
COMMAND_SETS = (
    ("order",),
    ("gram",),
    ("ps-check",),
    ("germ-ps", "--kmax", "6"),
    ("reg-type", "--max", "8"),
    ("reg-type", "--max", "12"),
    ("sing-search",),
    ("sing-search", *_FALSIFY),
    ("report", "--all", "--max", "8"),
    ("report", "--all", "--max", "12"),
)

# The --curve arguments of the curve commands on a corpus file with n
# variables: curves with n components, with n + 1 (a zero last one, or not),
# with n - 1 (the graph frame desingularize reads), and malformed ones.
CURVES = {
    2: ("(t, t)", "(-t^2, t)", "(t^2, -t^3)", "(0, t)", "(t + i*t^2, 2/3*t^3)",
        "(-t^2, t, 0)", "(t, t, t)", "(t^2)", "(t^2, t", "(t, z1)"),
    3: ("(t, t, 0)", "(t^3, t^2, 0)", "(-t^4, t^2, 0)", "(-t^2, t, 0)", "(t^2, -t^3, t)",
        "(2/3*t + i*t^2, t^3 - t^5, 0)", "(-t^4, t^2)", "(t^3, t^2)", "(-t^2, t)",
        "(t, t, 0, 0)", "t, t, 0", "(t^1/2, t, 0)"),
}
CURVE_COMMANDS = ("pullback", "contact", "desingularize")
FDB_VERIFY = (
    ("fdb-verify",),
    ("fdb-verify", "--k", "1", "--trials", "8", "--seed", "5"),
    ("fdb-verify", "--k", "2", "--trials", "5", "--seed", "11"),
    ("fdb-verify", "--k", "3", "--trials", "3", "--seed", "4242"),
    ("fdb-verify", "--k", "0"),
    ("fdb-verify", "--trials", "0"),
)


def inputs() -> dict[str, bytes]:
    """Every input by name: corpus/<stem>, malformed/<name> and series/<germ>."""
    out = {f"corpus/{p.stem}": p.read_bytes() for p in sorted(CORPUS_DIR.glob("*.txt"))}
    out.update((f"malformed/{name}", data) for name, data in MALFORMED.items())
    sys.path.insert(0, str(HERE.parent))
    try:
        from test_soundness import _series_germ
    finally:
        sys.path.remove(str(HERE.parent))
    rng = random.Random(SERIES_SEED)
    for _ in range(SERIES_GERMS):
        text = _series_germ(rng)
        out[f"series/{text}"] = f"n = 3\nr = {text}\n".encode()
    return out


def _run(argv: list[str], data: bytes) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) with data on standard input."""
    from contactps.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv: tuple[str, ...], data: bytes | None) -> dict:
    """The line of one run: argv[0] FILE argv[1:], FILE read from data, or
    argv alone when data is None."""
    argv = [*argv] if data is None else [argv[0], "-", *argv[1:]]
    code, machine, err = _run([*argv, "--json"], data or b"")
    human_code, human, human_err = _run(argv, data or b"")
    if human_code != code:
        raise AssertionError(f"{argv}: exit {code} with --json, {human_code} without")
    human = "".join(ln for ln in human.splitlines(keepends=True) if not ln.startswith("generated: "))
    return {"exit_code": code, "json": _sha(machine), "human": _sha(human),
            "stderr": _sha(err + human_err)}


def _arity(data: bytes) -> int:
    """n of a corpus file, whose first line is `n = <int>`."""
    return int(data.split(b"\n", 1)[0].split(b"=")[1])


def compute() -> dict[str, dict]:
    """Every run's line, keyed '<input> | <command line>' (the input of
    fdb-verify is 'none')."""
    runs = [(name, data, argv) for name, data in inputs().items() for argv in COMMAND_SETS]
    runs += [(name, data, (command, "--curve", curve))
             for name, data in inputs().items() if name.startswith("corpus/")
             for curve in CURVES[_arity(data)] for command in CURVE_COMMANDS]
    runs += [("none", None, argv) for argv in FDB_VERIFY]
    return {f"{name} | {' '.join(argv)}": digest(argv, data) for name, data, argv in runs}


def dumps(digests: dict[str, dict]) -> str:
    """The file's text: a JSON object, one run per line, in key order."""
    lines = [f"  {json.dumps(key)}: {json.dumps(digests[key], sort_keys=True)}"
             for key in sorted(digests)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def changed(old: dict, new: dict) -> list[str]:
    """The keys whose line differs, or that only one side has, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = compute()
    DIGESTS.write_text(dumps(new))
    for key in changed(old, new):
        print(key)
