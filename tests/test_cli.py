"""Command-line interface: exit codes, report structure, determinism."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from contactps.algebra import GaussianRational
from contactps.cli import COMMANDS, main

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "corpus"
FIXTURES_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"

CUBIC_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n"
CANCEL_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2)\n"
FOURTH_POWERS = "n = 3\nr = 2*Re(z3) + abs2(z1)^2 + abs2(z2)^2\n"
CANCEL_QUARTIC = "n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2\n"
INDEFINITE = "n = 2\nr = abs2(z1)^2 - abs2(z2)^2\n"
# Only the Gram-seed stage of ps_search finds this violation.
GRAM_SEED_ONLY = "n = 2\nr = 24*abs2(z2) - 5*z2*conj(z1) - 5*z1*conj(z2) + abs2(z1)\n"
# Germs whose graph is a series, so that a low --max gives a jet frame.
SERIES_TWO_SQUARES = "n = 3\nr = 2*Re(z3 + z3^2 - z1^2) + abs2(z2 - z1^2) + abs2(z3 - z1^2)\n"
SERIES_ONE_SQUARE = "n = 3\nr = 2*Re(z3 + z3^2 - z1^2) + abs2(z3 - z1^2)\n"
SERIES_TYPE_24 = "n = 3\nr = 2*Re(z3 - z3^2) + abs2(-z2^3) + abs2(i*z2 + z1^4)\n"
# crit5_m2 after z1 -> z1 + z2 (ROADMAP item 11, Gap A).
GAP_A = "n = 3\nr = 2*Re(z3) + abs2((z1 + z2) + z2^2)\n"


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, tmp_path, source, args):
    path = tmp_path / "problem.txt"
    path.write_text(source)
    return runner.invoke(main, [args[0], str(path)] + args[1:])


def _machine(result):
    return json.loads(result.output)


def test_order(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE, ["order", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["order"] == {"kind": "exact", "value": 1}


def test_contact_infinite(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE,
                  ["contact", "--curve", "(t^3, t^2, 0)", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["contact"] == "infinite"
    assert claims["pullback_order"]["kind"] == "zero"


def test_pullback(runner, tmp_path):
    res = _invoke(runner, tmp_path, FOURTH_POWERS,
                  ["pullback", "--curve", "(t, 0, 0)", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["pullback"] == "t^2*conj(t)^2"


def test_ps_check_violation_exits_one(runner, tmp_path):
    res = _invoke(runner, tmp_path, INDEFINITE, ["ps-check", "--json"])
    assert res.exit_code == 1
    cert = _machine(res)["claims"]["certificate"]
    assert cert["verdict"] == "violation"
    assert cert["balanced_coefficient"] == "-1/1"


def test_ps_check_violation_from_gram_seed(runner, tmp_path):
    res = _invoke(runner, tmp_path, GRAM_SEED_ONLY, ["ps-check", "--json"])
    assert res.exit_code == 1
    cert = _machine(res)["claims"]["certificate"]
    assert cert["verdict"] == "violation"
    assert cert["witness"] == "(t, 5/24*t)"
    assert cert["balanced_coefficient"] == "-1/24"


def test_gram_certified(runner, tmp_path):
    res = _invoke(runner, tmp_path, CANCEL_SQUARE, ["gram", "--json"])
    assert res.exit_code == 0
    cert = _machine(res)["claims"]["certificate"]
    assert cert["verdict"] == "certified"
    assert cert["squares"] == [{"weight": "1/1", "f": "z1 + z2^2"}]


def test_germ_ps_stabilization(runner, tmp_path):
    res = _invoke(runner, tmp_path, CANCEL_SQUARE,
                  ["germ-ps", "--kmax", "6", "--max-deg", "4", "--trials", "10",
                   "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["k0"] == 4
    verdicts = {e["k"]: e["certificate"]["verdict"] for e in claims["entries"]}
    assert verdicts[3] == "violation"
    assert verdicts[4] == "certified"


def test_reg_type(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE,
                  ["reg-type", "--max", "8", "--json"])
    assert res.exit_code == 0
    claim = _machine(res)["claims"]["reg_type"]
    assert claim["kind"] == "exact" and claim["value"] == "6/1"


def test_reg_type_search_fallback_in_three_graph_variables(runner, tmp_path):
    """With three graph variables reg_type falls back to the bounded
    regular-curve search at max_degree = 8.  Its stream has 352,584 curves;
    scored by exponent group, the command stays within a few seconds of
    process time and gives the claim it gave when every regular candidate
    was pulled back (about 10 s)."""
    source = "n = 4\nr = 2*Re(z4) + abs2(z1^2 - z2^3)^2 + abs2(z3)^2\n"
    start = time.process_time()
    res = _invoke(runner, tmp_path, source, ["reg-type", "--max", "8", "--json"])
    elapsed = time.process_time() - start
    assert res.exit_code == 0
    machine = _machine(res)
    assert machine["claims"] == {
        "g": ("z3^2*conj(z3)^2 + z1^4*conj(z1)^4 - 2*z1^2*z2^3*conj(z1)^4 "
              "- 2*z1^4*conj(z1)^2*conj(z2)^3 + z2^6*conj(z1)^4 "
              "+ 4*z1^2*z2^3*conj(z1)^2*conj(z2)^3 + z1^4*conj(z2)^6 "
              "- 2*z2^6*conj(z1)^2*conj(z2)^3 - 2*z1^2*z2^3*conj(z2)^6 + z2^6*conj(z2)^6"),
        "reg_type": {
            "kind": "at_least",
            "transcript": ["bounded regular-curve search; no obstruction transcript, "
                           "so only a lower bound is claimed"],
            "value": "12/1",
            "witness": "(0, t, 0)",
        },
    }
    assert machine["options"] == {"max": 8}
    assert elapsed < 5.0


def test_sing_search_scores_candidates_without_scalar_objects(runner, monkeypatch):
    """Candidate scoring evaluates leading slices on raw ints, so a
    sing-search over 2,738 candidates makes a few GaussianRational products
    in all (26,633 products and powers when each row's leading product was
    a chain of scalar objects)."""
    calls = {"__mul__": 0, "__pow__": 0}
    for name in calls:
        op = getattr(GaussianRational, name)

        def counted(x, y, op=op, name=name):
            calls[name] += 1
            return op(x, y)

        monkeypatch.setattr(GaussianRational, name, counted)
    start = time.process_time()
    res = runner.invoke(main, ["sing-search", str(CORPUS_DIR / "mixed_certified.txt"),
                               "--max-deg", "4", "--trials", "50", "--seed", "5", "--json"])
    elapsed = time.process_time() - start
    assert res.exit_code == 0
    assert _machine(res)["claims"]["candidates_tested"] == 2738
    assert calls["__mul__"] + calls["__pow__"] <= 200, calls
    assert elapsed < 1.0


def test_sing_search_draws_its_random_stage_from_getrandbits(runner, monkeypatch):
    """The falsify sing-search draws its 3,000 random curves straight from
    getrandbits: with random.Random's choice, randint and randrange made to
    raise it gives the count and witness it gave when it drew through them,
    within a second of process time."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the random stage draws through getrandbits only")

    for name in ("choice", "randint", "randrange"):
        monkeypatch.setattr(random.Random, name, forbidden)
    start = time.process_time()
    res = runner.invoke(main, ["sing-search", str(CORPUS_DIR / "crit6_type4.txt"),
                               "--max-mult", "4", "--max-deg", "8", "--coeff-height", "2",
                               "--trials", "3000", "--json"])
    elapsed = time.process_time() - start
    assert res.exit_code == 0, res.output
    claims = _machine(res)["claims"]
    assert claims["candidates_tested"] == 10296
    assert claims["result"]["value"] == "4/1"
    assert claims["result"]["witness"] == "(0, t)"
    assert elapsed < 1.0


@pytest.mark.parametrize("name, witness, value", [
    ("item3_repro", "(0, t)", "12/1"),
    ("item3_mirror", "(t, 0)", "12/1"),
    ("irr_line", "(t, 0)", "4/1"),
])
def test_reg_type_builds_no_algebraic_field(runner, monkeypatch, name, witness, value):
    """The jet-extension DFS finds its Gaussian-rational roots by p-adic
    lifting over Z[i], so with sympy's AlgebraicField made to raise, reg-type
    still gives its claims on germs whose cancellation conditions have
    irrational roots, within a few hundred ms of process time (factoring
    over Q<I> cost about 125 ms for the field alone)."""
    from sympy.polys.domains.algebraicfield import AlgebraicField

    def forbidden(*args, **kwargs):
        raise AssertionError("root extraction builds no algebraic field")

    monkeypatch.setattr(AlgebraicField, "__init__", forbidden)
    start = time.process_time()
    res = runner.invoke(main, ["reg-type", str(CORPUS_DIR / f"{name}.txt"),
                               "--max", "16", "--json"])
    elapsed = time.process_time() - start
    assert res.exit_code == 0, res.output
    claim = _machine(res)["claims"]["reg_type"]
    assert (claim["kind"], claim["value"], claim["witness"]) == ("at_least", value, witness)
    assert elapsed < 0.3


# Runs each command given as a JSON list of argument lists, with sympy made
# unimportable, and prints exit code, output and process time per command.
# Each command reads the output of the one before it on stdin, which is
# where `verify-report -` takes its report from.
_NO_SYMPY_SCRIPT = """
import json, sys, time
sys.modules["sympy"] = None
from click.testing import CliRunner
from contactps.cli import main

results, previous = [], ""
for args in json.loads(sys.argv[1]):
    start = time.process_time()
    res = CliRunner().invoke(main, args, input=previous)
    results.append((res.exit_code, res.output, time.process_time() - start))
    previous = res.output
print(json.dumps(results))
"""


def test_commands_run_without_sympy():
    """No command imports sympy: in a process where importing it fails,
    reg-type gives its claims on the germs whose cancellation conditions
    have irrational roots (the DFS's p-adic root finder), each within
    0.3 s of process time, and one op of every other certify kind gives
    its claim."""
    def corpus(name):
        return str(CORPUS_DIR / f"{name}.txt")

    reg = [("item3_repro", "(0, t)", "12/1"), ("item3_mirror", "(t, 0)", "12/1"),
           ("irr_line", "(t, 0)", "4/1")]
    commands = [["reg-type", corpus(name), "--max", "16", "--json"] for name, _w, _v in reg]
    commands += [
        ["verify-report", "-"],
        ["gram", corpus("crit6_type4"), "--json"],
        ["germ-ps", corpus("crit5_m2"), "--kmin", "2", "--kmax", "5", "--max-deg", "4",
         "--trials", "10", "--seed", "1"],
        ["verify-report", "-"],
        ["contact", corpus("crit6_type4"), "--curve", "(-t^4, t^2, 0)", "--json"],
        ["pullback", corpus("crit6_type4"), "--curve", "(t, t, 0)", "--json"],
        ["desingularize", corpus("crit6_type4"), "--curve", "(-t^4, t^2)", "--json"],
        ["fdb-verify", "--k", "3", "--trials", "3", "--seed", "1", "--json"],
    ]
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(commands)
    for (exit_code, output, _cpu), args in zip(results, commands):
        assert exit_code == 0, (args, output)
    out = [json.loads(output) if output.startswith("{") else None
           for _code, output, _cpu in results]
    for (_name, witness, value), machine, (_code, _out, cpu) in zip(reg, out, results):
        claim = machine["claims"]["reg_type"]
        assert (claim["kind"], claim["value"], claim["witness"]) == ("at_least", value, witness)
        assert cpu < 0.3
    assert out[3]["verified"] is True and out[6]["verified"] is True
    claims = [machine and machine.get("claims") for machine in out]
    assert claims[4]["certificate"]["verdict"] == "certified"
    assert claims[7]["contact"] == "4/1"
    assert claims[8]["order"] == {"kind": "exact", "value": 2}
    assert claims[9]["eta"] == "(-t^2, t)"
    assert claims[10]["matches"] == 3


def test_sing_search_infinite(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE,
                  ["sing-search", "--max-deg", "4", "--trials", "20", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["result"]["kind"] == "infinite"
    assert claims["result"]["witness"] == "(t^3, t^2)"
    assert claims["witness_in_original_frame"] == "(t^3, t^2, 0)"


def test_desingularize(runner, tmp_path):
    src = "n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2\n"
    res = _invoke(runner, tmp_path, src,
                  ["desingularize", "--curve", "(-t^4, t^2)", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["eta"] == "(-t^2, t)"
    assert claims["transcript"]["new_pullback_order"] == 4


def test_desingularize_bad_curve_exits_two(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE,
                  ["desingularize", "--curve", "(t^3, t^2)", "--json"])
    assert res.exit_code == 2
    assert "input error" in res.output


def test_fdb_verify(runner, tmp_path):
    res = runner.invoke(main, ["fdb-verify", "--k", "3", "--trials", "5",
                               "--seed", "7", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["matches"] == 5
    assert claims["k3_form_type_multiplicities"] == {
        "1,1": 1, "1,2": 3, "2,1": 3, "2,2": 9,
    }


def test_syntax_error_exits_two(runner, tmp_path):
    res = _invoke(runner, tmp_path, "n = 2\nr = z1 +\n", ["order", "--json"])
    assert res.exit_code == 2
    assert "input error" in res.output


def test_rebound_name_exits_two(runner, tmp_path):
    """A problem file that binds r twice is an input error naming the
    line, not a run on whichever binding came last."""
    res = _invoke(runner, tmp_path, CUBIC_SQUARE + "r = 2*Re(z3) + abs2(z1)\n",
                  ["reg-type", "--json"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr == "input error: line 3: r is bound twice\n"


@pytest.mark.parametrize("args", [["reg-type", "--max", "1"],
                                  ["report", "--all", "--max", "1", "--max-deg", "0"]])
def test_syntax_error_comes_before_option_errors(runner, tmp_path, args):
    """A command that reads a FILE parses it before it reads an option."""
    res = _invoke(runner, tmp_path, "n = 3\nr = 2*Re(z3) +\n", args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr == "input error: line 2: unexpected end of input\n"


def test_machine_section_is_deterministic(runner, tmp_path):
    args = ["report", "--all", "--max-deg", "4", "--trials", "30", "--seed", "1",
            "--json"]
    a = _invoke(runner, tmp_path, CANCEL_SQUARE, args)
    b = _invoke(runner, tmp_path, CANCEL_SQUARE, args)
    assert a.output == b.output and a.output


def test_human_report_has_machine_marker(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE, ["order"])
    assert res.exit_code == 0
    assert "--- machine section (json) ---" in res.output
    assert "generated:" in res.output


def test_verify_report_round_trip(runner, tmp_path):
    res = _invoke(runner, tmp_path, CANCEL_SQUARE,
                  ["germ-ps", "--kmax", "5", "--max-deg", "4", "--trials", "10"])
    report_path = tmp_path / "report.txt"
    report_path.write_text(res.output)
    check = runner.invoke(main, ["verify-report", str(report_path)])
    assert check.exit_code == 0
    assert json.loads(check.output)["verified"] is True


def test_verify_report_detects_tampering(runner, tmp_path):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE,
                  ["reg-type", "--max", "8", "--json"])
    machine = _machine(res)
    machine["claims"]["reg_type"]["value"] = "8/1"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(machine))
    check = runner.invoke(main, ["verify-report", str(bad)])
    assert check.exit_code == 2
    assert "verification failure" in check.output


def test_report_all_inference_trail(runner, tmp_path):
    res = _invoke(runner, tmp_path, FOURTH_POWERS,
                  ["report", "--all", "--max-deg", "4", "--trials", "30", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["inference"]["sing_type"]["kind"] == "exact"
    assert claims["inference"]["sing_type"]["value"] == "4/1"
    assert any("rule (iii)" in s for s in claims["inference"]["trail"])


def test_report_all_runs_each_stage_once(runner, tmp_path, monkeypatch):
    import contactps.report as report

    stages = ("parse_problem", "normalize_to_graph", "germ_ps_check", "sing_type_search")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counted(*args, _fn=getattr(report, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(report, name, counted)
    res = _invoke(runner, tmp_path, CANCEL_SQUARE, ["report", "--all", "--json"])
    assert res.exit_code == 0
    assert calls == dict.fromkeys(stages, 1)


@pytest.mark.parametrize("source, args", [
    (CANCEL_SQUARE, []),
    (SERIES_TWO_SQUARES, ["--max", "4"]),
    (SERIES_TWO_SQUARES, ["--max", "12"]),
], ids=["rigid", "series_max4", "series_max12"])
def test_report_all_validates_and_splits_once(runner, tmp_path, monkeypatch, source, args):
    """report --all validates its entry once and forms the linear-frame
    split once, which every frame (K = --max and K = 8 where they differ)
    and germ-ps read."""
    import contactps.germ as germ
    import contactps.report as report

    calls = {"validate": 0, "_linear_frame": 0}
    for owner, name in ((report, "validate"), (germ, "_linear_frame")):
        def counted(*a, _fn=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(owner, name, counted)
    res = _invoke(runner, tmp_path, source,
                  ["report", "--all", "--max-deg", "4", "--trials", "10", *args, "--json"])
    assert res.exit_code in (0, 1) and isinstance(res.exception, (type(None), SystemExit))
    assert calls == {"validate": 1, "_linear_frame": 1}


@pytest.mark.parametrize("cap", [4, 8, 12])
def test_a_jet_frame_never_claims_infinite_type(runner, tmp_path, cap):
    """The true regular type of SERIES_TWO_SQUARES is 8, along (t, t^2).  Its
    frame at --max 4 is a jet with no |z1|^8 term, on which (t, t^2)
    annihilates the one Gram square: that decides only a lower bound of 5."""
    res = _invoke(runner, tmp_path, SERIES_TWO_SQUARES, ["reg-type", "--max", str(cap), "--json"])
    assert res.exit_code == 0
    claim = _machine(res)["claims"]["reg_type"]
    assert claim["kind"] != "infinite"
    if cap == 4:
        assert (claim["kind"], claim["value"], claim["witness"]) == ("at_least", "5/1", "(t, t^2)")
    if cap == 8:
        assert (claim["kind"], claim["value"]) == ("exact", "8/1")


def test_report_all_on_a_jet_frame_claims_no_infinite_type(runner, tmp_path):
    res = _invoke(runner, tmp_path, SERIES_TWO_SQUARES,
                  ["report", "--all", "--max", "4", "--max-deg", "4", "--trials", "10", "--json"])
    assert res.exit_code == 0
    claims = _machine(res)["claims"]
    assert claims["reg_type"]["reg_type"]["kind"] == "at_least"
    assert claims["inference"]["reg_type"]["kind"] == "at_least"
    assert claims["inference"]["sing_type"]["kind"] == "at_least"


def test_a_jet_frame_with_no_term_is_not_zero(runner, tmp_path):
    """SERIES_ONE_SQUARE's frame at --max 4 is a jet with no term: every
    regular curve, (t, 0) included, has order at least 5 on it, not
    infinite."""
    res = _invoke(runner, tmp_path, SERIES_ONE_SQUARE, ["reg-type", "--max", "4", "--json"])
    assert res.exit_code == 0
    claim = _machine(res)["claims"]["reg_type"]
    assert (claim["kind"], claim["value"], claim["witness"]) == ("at_least", "5/1", "(t, 0)")


def test_reg_type_on_a_degree_64_jet_frame_grows_its_pullback_caps(runner, tmp_path):
    """At --max 64 the frame of SERIES_TWO_SQUARES is a jet of order 64,
    and the bounded search pulls back the candidates whose leading slice
    cancels under caps that double until one finds a term
    (curve.pullback_lowest).  When each of them fell back from the first
    cap to the full pullback of the jet, the command took over 190 s of
    process time; now it takes well under a second."""
    start = time.process_time()
    res = _invoke(runner, tmp_path, SERIES_TWO_SQUARES, ["reg-type", "--max", "64", "--json"])
    elapsed = time.process_time() - start
    assert res.exit_code == 0
    claim = _machine(res)["claims"]["reg_type"]
    assert (claim["kind"], claim["value"], claim["witness"]) == ("at_least", "8/1", "(t, t^2)")
    assert elapsed < 10.0


@pytest.mark.parametrize("cap, claimed", [
    (4, ("at_least", "8/1")), (8, ("at_least", "16/1")), (12, ("at_least", "24/1")),
    (24, ("exact", "24/1")),
])
def test_a_type_24_germ_with_a_series_graph_has_an_answer_at_every_cap(runner, tmp_path,
                                                                      cap, claimed):
    """Along (t, i*t^4) SERIES_TYPE_24 pulls back to |t|^24.  Its mixed part
    is free of z3, so its frame is exact at every cap and no claim on it
    fails its own check."""
    res = _invoke(runner, tmp_path, SERIES_TYPE_24, ["reg-type", "--max", str(cap), "--json"])
    assert res.exit_code == 0
    claim = _machine(res)["claims"]["reg_type"]
    assert (claim["kind"], claim["value"]) == claimed


def test_verify_report_rejects_an_infinite_claim_made_on_a_jet_frame(runner):
    """The fixture is the `report --all --max 4 --json` output of
    SERIES_TWO_SQUARES from a release that claimed regular type infinite on
    its jet frame; recomputing it gives at_least 5."""
    check = runner.invoke(main, ["verify-report", str(FIXTURES_DIR / "jet_frame_infinite_report.json")])
    assert check.exit_code == 2
    assert "verification failure" in check.output


def _count_frame_work(runner, monkeypatch, argv):
    """Run one command and count its graph solves, restrictions, Gram
    certificates and substitutions."""
    import contactps.report as report
    from contactps import germ, typecalc
    from contactps.algebra import CPolynomial

    calls = dict.fromkeys(("solve_graph", "restrict", "gram_certificate", "substitute"), 0)

    def spy(owner, name, key):
        def counted(*args, _fn=getattr(owner, name), **kwargs):
            calls[key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(germ, "solve_graph", "solve_graph")
    spy(germ, "restrict", "restrict")
    for module in (germ, report, typecalc):
        spy(module, "gram_certificate", "gram_certificate")
    spy(CPolynomial, "substitute", "substitute")
    res = runner.invoke(main, argv)
    assert res.exit_code in (0, 1) and isinstance(res.exception, (type(None), SystemExit))
    return calls


@pytest.mark.parametrize("args, counts", [
    (["germ-ps", "crit5_m3", "--kmin", "2", "--kmax", "7", "--max-deg", "4", "--trials", "10"],
     {"solve_graph": 0, "restrict": 0, "gram_certificate": 3, "substitute": 0}),
    (["reg-type", "crit4_cubic_square", "--max", "16"], {"gram_certificate": 1}),
    (["reg-type", "crit6_type4", "--max", "16"],
     {"solve_graph": 0, "gram_certificate": 2, "substitute": 1}),
    (["gram", "crit6_type4"], {"solve_graph": 0, "gram_certificate": 1, "substitute": 0}),
])
def test_each_frame_and_certificate_is_formed_once(runner, monkeypatch, args, counts):
    """crit5_m3 and crit6_type4 are rigid (2Re(z3) plus a mixed part free
    of z3), so the exact rule reads their graph frame off the mixed part of
    r, whose linear frame is r itself: no graph solve, restriction or
    substitution.  crit5_m3's restricted jets change at few
    orders, so germ-ps on k = 2..7 forms 3 Gram certificates for its 6
    orders.  reg-type certifies g, then only the degree-2 slice q when it
    is not empty (crit6_type4) and never -q after a certified g, not 3
    times; its one substitution is the pullback that checks the contact
    of its curve."""
    argv = [args[0], str(CORPUS_DIR / f"{args[1]}.txt"), *args[2:]]
    calls = _count_frame_work(runner, monkeypatch, argv)
    assert {key: calls[key] for key in counts} == counts


# The entries of the benchmark's report_all workload, and its search budget.
_REPORT_ALL_ENTRIES = (
    "crit4_cubic_square", "crit4_mirror", "crit4_plus", "crit4_mirror_plus",
    "crit5_m2", "crit5_m3", "crit5_m3_mirror", "crit6_type4", "type4_quartic",
    "mixed_sq2", "mixed_sq3", "mixed_indef_quartic", "mixed_certified",
    "mixed_indef_hermitian",
)
_REPORT_BUDGET = ["--max-deg", "4", "--trials", "50"]


def _spy_certificates(monkeypatch):
    """The (nvars, term set) of every Gram certificate formed from now on,
    through report, typecalc or germ."""
    import contactps.germ as germ
    import contactps.report as report
    import contactps.typecalc as typecalc

    formed = []
    for module in (germ, report, typecalc):
        def recorded(g, _fn=module.gram_certificate):
            formed.append((g.nvars, frozenset(g.terms.items())))
            return _fn(g)
        monkeypatch.setattr(module, "gram_certificate", recorded)
    return formed


@pytest.mark.parametrize("name", _REPORT_ALL_ENTRIES)
def test_report_all_certifies_each_term_set_once(runner, monkeypatch, name):
    """On the report_all entries, report --all forms one Gram certificate
    per term set for its gram and ps-check stage, germ-ps jets, reg-type's
    g and quadratic part and the balanced coefficients of both type
    searches (GermAnalysis.certificate): no term set is certified twice."""
    formed = _spy_certificates(monkeypatch)
    res = runner.invoke(main, ["report", str(CORPUS_DIR / f"{name}.txt"), "--all",
                               *_REPORT_BUDGET, "--json"])
    assert res.exit_code in (0, 1), res.output
    assert formed and len(formed) == len(set(formed))


def test_report_all_round_forms_38_certificates(runner, monkeypatch):
    """One report --all on each report_all entry forms 38 Gram certificates
    in all; 21 more repeated a term set when the type searches certified
    their balanced coefficients anew, and 14 more again when each command
    wired its own stages."""
    formed = _spy_certificates(monkeypatch)
    for name in _REPORT_ALL_ENTRIES:
        res = runner.invoke(main, ["report", str(CORPUS_DIR / f"{name}.txt"), "--all",
                                   *_REPORT_BUDGET, "--json"])
        assert res.exit_code in (0, 1), res.output
    assert len(formed) == 38


def test_no_certificate_is_kept_across_commands(runner, monkeypatch, tmp_path):
    """Two report --all runs in one process and a verify-report of the
    output each form every certificate anew: an analysis lives for one
    command."""
    formed = _spy_certificates(monkeypatch)
    argv = ["report", str(CORPUS_DIR / "crit6_type4.txt"), "--all", *_REPORT_BUDGET, "--json"]
    counts = []
    for _ in range(2):
        before = len(formed)
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        counts.append(len(formed) - before)
    path = tmp_path / "report.json"
    path.write_text(res.output)
    before = len(formed)
    check = runner.invoke(main, ["verify-report", str(path)])
    assert check.exit_code == 0, check.output
    counts.append(len(formed) - before)
    assert counts[0] > 0 and counts == [counts[0]] * 3


@pytest.mark.parametrize("cap", ["4", "12"])
@pytest.mark.parametrize("source, searches", [
    ((CORPUS_DIR / "crit6_type4.txt").read_text(), 1),
    (SERIES_TWO_SQUARES, 2),
], ids=["exact_rule", "series_rule"])
def test_report_all_searches_once_per_distinct_g(runner, monkeypatch, tmp_path, cap, source,
                                                 searches):
    """The sing-search section (K = max(8, deg)) and the inference (K =
    max(--max, deg)) share one search when their frames have the same g:
    always under the exact rule (crit6_type4), and not on a series frame
    whose jets at K = --max and K = 8 differ."""
    import contactps.report as report

    calls = []
    monkeypatch.setattr(report, "sing_type_search",
                        lambda gf, budget, certify, _fn=report.sing_type_search:
                        calls.append(gf.g) or _fn(gf, budget, certify))
    res = _invoke(runner, tmp_path, source,
                  ["report", "--all", "--max", cap, *_REPORT_BUDGET, "--json"])
    assert res.exit_code in (0, 1), res.output
    assert len(calls) == len(set(calls)) == searches


@pytest.mark.parametrize("args", [
    ["gram"], ["reg-type", "--max", "4"], ["report", "--all", "--max", "4", *_REPORT_BUDGET],
])
@pytest.mark.parametrize("source", [CANCEL_QUARTIC, SERIES_TWO_SQUARES], ids=["rigid", "series"])
def test_a_framed_command_reads_the_linear_slice_twice(runner, monkeypatch, tmp_path, args,
                                                       source):
    """A command that frames a defining function reads the linear slice of
    its entry twice: once to tell it from a mixed-only entry, once in
    validate; the linear frame reads the slice that validate checked."""
    from contactps.algebra import CPolynomial
    from contactps.expr import parse_problem

    entry = parse_problem(source).entry
    reads = []
    monkeypatch.setattr(CPolynomial, "homogeneous_slice",
                        lambda p, d, _fn=CPolynomial.homogeneous_slice:
                        reads.append(d == 1 and p == entry) or _fn(p, d))
    res = _invoke(runner, tmp_path, source, [*args, "--json"])
    assert res.exit_code in (0, 1), res.output
    assert sum(reads) == 2


def test_an_infinite_regular_type_gives_infinite_singular_type(runner, tmp_path):
    """GAP_A is crit5_m2 after z1 -> z1 + z2.  Its regular type is infinite
    along (-t - t^2, t), a curve the bounded search does not reach; the
    regular curve is a curve, so the inference claims infinite singular
    type with it, and verify-report accepts the report."""
    res = _invoke(runner, tmp_path, GAP_A, ["report", "--all", *_REPORT_BUDGET, "--json"])
    assert res.exit_code == 0, res.output
    claims = _machine(res)["claims"]
    assert claims["sing_search"]["result"]["kind"] == "at_least"
    assert claims["inference"]["reg_type"]["kind"] == "infinite"
    sing = claims["inference"]["sing_type"]
    assert (sing["kind"], sing["witness"]) == ("infinite", "(-t - t^2, t)")
    path = tmp_path / "report.json"
    path.write_text(res.output)
    check = runner.invoke(main, ["verify-report", str(path)])
    assert check.exit_code == 0, check.output


@pytest.mark.parametrize("command, args, mutate, message", [
    ("reg-type", [], lambda m: m.update(command="nope"), "unknown command 'nope'"),
    ("reg-type", [], lambda m: m.update(command="verify-report"),
     "unknown command 'verify-report'"),
    ("reg-type", [], lambda m: m.update(options=[8]), "report options must be ints"),
    ("reg-type", [], lambda m: m["options"].update(max="x"), "report options must be ints"),
    ("pullback", ["--curve", "(t, t, 0)"], lambda m: m["options"].pop("curve"),
     "the 'curve' option is required"),
    ("reg-type", [], lambda m: m.update(input_source=3), "input_source must be a string"),
    ("gram", [], lambda m: m.update(options={"foo": 1, "max": 1}),
     "report options of 'gram' must be exactly []"),
    ("reg-type", [], lambda m: m["options"].pop("max"),
     "report options of 'reg-type' must be exactly ['max']"),
    ("reg-type", [], lambda m: m.update(input_sha256="0" * 64),
     "the stored input_sha256 is not the SHA-256 of input_source"),
    ("reg-type", [], lambda m: m.pop("input_sha256"),
     "the stored input_sha256 is not the SHA-256 of input_source"),
], ids=["command", "verify_report_command", "options", "option_type", "missing_curve",
        "input_source", "option_names", "missing_option", "tampered_hash", "missing_hash"])
def test_verify_report_rejects_a_malformed_report(runner, tmp_path, command, args, mutate,
                                                  message):
    """A stored report whose command, options or input source has the wrong
    shape is an input error, and one whose input_sha256 is missing or is not
    its input source's fails its check: exit 2 with one line, no
    traceback."""
    res = _invoke(runner, tmp_path, CUBIC_SQUARE, [command, *args, "--json"])
    assert res.exit_code == 0, res.output
    machine = _machine(res)
    mutate(machine)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(machine))
    check = runner.invoke(main, ["verify-report", str(path)])
    assert check.exit_code == 2 and isinstance(check.exception, SystemExit)
    assert check.stderr.startswith("verification failure: ") and message in check.stderr
    assert check.stderr.count("\n") == 1 and "Traceback" not in check.stderr


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS_DIR.glob("*.txt")))
def test_input_sha256_is_the_sha256_of_the_corpus_source(runner, name):
    import hashlib

    path = CORPUS_DIR / f"{name}.txt"
    res = runner.invoke(main, ["order", str(path), "--json"])
    assert res.exit_code == 0, res.output
    source = path.read_text(encoding="utf-8")
    assert _machine(res)["input_sha256"] == hashlib.sha256(source.encode()).hexdigest()


def test_input_sha256_hashes_the_utf8_of_the_read_source(runner, tmp_path):
    """A non-ASCII source hashes as its UTF-8 bytes; a CRLF file read from
    standard input hashes as the LF text that the report embeds."""
    import hashlib

    source = "# Zürich, ∂ und ∂̄ 😀\nn = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n"
    path = tmp_path / "problem.txt"
    path.write_bytes(source.encode("utf-8"))
    lf = runner.invoke(main, ["order", str(path), "--json"])
    crlf = runner.invoke(main, ["order", "-", "--json"],
                         input=source.replace("\n", "\r\n").encode("utf-8"))
    assert lf.exit_code == crlf.exit_code == 0, lf.output
    assert _machine(lf)["input_source"] == _machine(crlf)["input_source"] == source
    expected = hashlib.sha256(source.encode("utf-8")).hexdigest()
    assert _machine(lf)["input_sha256"] == _machine(crlf)["input_sha256"] == expected


def test_verify_report_rejects_json_that_is_not_an_object(runner, tmp_path):
    path = tmp_path / "number.json"
    path.write_text("5")
    check = runner.invoke(main, ["verify-report", str(path)])
    assert check.exit_code == 2 and isinstance(check.exception, SystemExit)
    assert check.stderr == "verification failure: report is not a JSON object\n"


def test_a_germ_with_a_series_graph_takes_the_exact_frame(runner, monkeypatch, tmp_path):
    """2Re(z3 + z1^2) makes the graph a series, but the mixed part is free
    of z3, so the exact rule reads every jet of g off the mixed part: germ-ps
    on k = 2..6 solves no graph, restricts nothing and substitutes nothing,
    and certifies the 2 distinct jets."""
    path = tmp_path / "problem.txt"
    path.write_text("n = 3\nr = 2*Re(z3 + z1^2) + abs2(z1)^2 + abs2(z2)^2\n")
    argv = ["germ-ps", str(path), "--kmin", "2", "--kmax", "6", "--max-deg", "4",
            "--trials", "10"]
    assert _count_frame_work(runner, monkeypatch, argv) == {
        "solve_graph": 0, "restrict": 0, "gram_certificate": 2, "substitute": 0}


def test_a_germ_whose_mixed_part_carries_z3_takes_the_series_frame(runner, monkeypatch,
                                                                    tmp_path):
    """abs2(z3)^2 puts z3 in the mixed part, so germ-ps on k = 2..6 solves
    the graph once (one substitution forms phi, one checks it) and restricts
    the mixed part's jet at the 2 orders where it changes."""
    path = tmp_path / "problem.txt"
    path.write_text("n = 3\nr = 2*Re(z3 + z1^2) + abs2(z1)^2 + abs2(z2)^2 + abs2(z3)^2\n")
    argv = ["germ-ps", str(path), "--kmin", "2", "--kmax", "6", "--max-deg", "4",
            "--trials", "10"]
    assert _count_frame_work(runner, monkeypatch, argv) == {
        "solve_graph": 1, "restrict": 2, "gram_certificate": 2, "substitute": 4}


def test_fdb_verify_derives_the_forms_of_each_polynomial_once(runner, monkeypatch):
    """fdb-verify --k 3 --trials 3 draws 3 polynomials and derives the forms
    of each once for the orders kk = 1..3, not once per order."""
    import contactps.fdb as fdb
    import contactps.report as report

    derived = []
    original = fdb.derive_forms
    for module in (fdb, report):
        monkeypatch.setattr(module, "derive_forms",
                            lambda g, order: derived.append(g) or original(g, order))
    res = runner.invoke(main, ["fdb-verify", "--k", "3", "--trials", "3", "--seed", "5"])
    assert res.exit_code == 0
    assert len(derived) == len(set(derived)) == 3


@pytest.mark.parametrize("args", [
    ["sing-search", "--trials", "0"],
    ["report", "--all", "--max-deg", "0"],
    # Gram certifies this germ, so the budget must be checked before Gram.
    ["ps-check", "--max-deg", "0"],
])
def test_bad_budget_exits_two(runner, tmp_path, args):
    res = _invoke(runner, tmp_path, CUBIC_SQUARE, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "input error" in res.stderr and "Traceback" not in res.stderr


def _assert_input_error(res):
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "input error" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("source, args", [
    ("n = 3\nr = 2*Re(z3) + 1/0*abs2(z1)\n", ["order"]),
    (FOURTH_POWERS, ["pullback", "--curve", "(1/0*t, 0, 0)"]),
])
def test_zero_denominator_exits_two(runner, tmp_path, source, args):
    _assert_input_error(_invoke(runner, tmp_path, source, args))


@pytest.mark.parametrize("args", [["gram"], ["report", "--all"]])
def test_one_variable_germ_exits_two(runner, tmp_path, args):
    res = _invoke(runner, tmp_path, "n = 1\nr = 2*Re(z1) + abs2(z1)^2\n", args)
    _assert_input_error(res)
    assert "need at least two variables" in res.stderr


@pytest.mark.parametrize("args", [
    ["reg-type", "--max", "-3"],
    ["reg-type", "--max", "0"],
    ["reg-type", "--max", "1"],
    ["report", "--all", "--max", "-1"],
])
def test_type_cap_below_two_exits_two(runner, tmp_path, args):
    _assert_input_error(_invoke(runner, tmp_path, CUBIC_SQUARE, args))


@pytest.mark.parametrize("args", [
    ["--k", "0"],
    ["--k", "-2"],
    ["--trials", "0"],
    ["--trials", "-1"],
])
def test_fdb_verify_empty_check_exits_two(runner, args):
    _assert_input_error(runner.invoke(main, ["fdb-verify", *args]))


_BUDGET_ARGS = ["--max-mult", "2", "--max-deg", "3", "--coeff-height", "1",
                "--trials", "3", "--seed", "5"]
_BUDGET_OPTIONS = {"max_mult": 2, "max_deg": 3, "coeff_height": 1, "trials": 3,
                   "seed": 5}


@pytest.mark.parametrize("command, args, options", [
    ("order", [], {}),
    ("pullback", ["--curve", "(t, t, 0)"], {"curve": "(t, t, 0)"}),
    ("contact", ["--curve", "(-t^2, t, 0)"], {"curve": "(-t^2, t, 0)"}),
    ("ps-check", _BUDGET_ARGS, _BUDGET_OPTIONS),
    ("gram", [], {}),
    ("germ-ps", ["--kmin", "3", "--kmax", "4", *_BUDGET_ARGS],
     {"kmin": 3, "kmax": 4, **_BUDGET_OPTIONS}),
    ("reg-type", ["--max", "6"], {"max": 6}),
    ("sing-search", _BUDGET_ARGS, _BUDGET_OPTIONS),
    ("desingularize", ["--curve", "(-t^4, t^2)"], {"curve": "(-t^4, t^2)"}),
    ("fdb-verify", ["--k", "2", "--trials", "2", "--seed", "5"],
     {"k": 2, "trials": 2, "seed": 5}),
    ("report", ["--all", "--max", "6", *_BUDGET_ARGS], {"max": 6, **_BUDGET_OPTIONS}),
])
def test_machine_section_records_every_option(runner, tmp_path, command, args, options):
    """Each option a command takes, set away from its default, lands in the
    machine section under its own name, and nothing else does."""
    if command == "fdb-verify":
        res = runner.invoke(main, [command, *args, "--json"])
    else:
        res = _invoke(runner, tmp_path, CANCEL_QUARTIC, [command, *args, "--json"])
    assert res.exit_code in (0, 1), res.output
    assert _machine(res)["options"] == options


@pytest.mark.parametrize("args", [["report", "--all"], ["reg-type"]])
def test_gram_certificate_runs_once_per_frame(runner, tmp_path, monkeypatch, args):
    """The frame's Gram certificate is computed once and handed on, whether
    it is reached through report, typecalc or germ."""
    import contactps.germ as germ
    import contactps.report as report
    import contactps.typecalc as typecalc

    frames, gram_args = [], []

    def frame_of(gf, *rest, _fn=report.reg_type):
        frames.append(gf.g)
        return _fn(gf, *rest)

    monkeypatch.setattr(report, "reg_type", frame_of)
    for module in (report, typecalc, germ):
        def recorded(g, _fn=module.gram_certificate):
            gram_args.append(g)
            return _fn(g)
        monkeypatch.setattr(module, "gram_certificate", recorded)
    res = _invoke(runner, tmp_path, CANCEL_QUARTIC, [*args, "--json"])
    assert res.exit_code == 0, res.output
    [g] = frames
    assert sum(arg is g for arg in gram_args) == 1


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def test_goldens_carry_the_option_names_the_cli_writes(runner):
    """Every golden verifies, so its option names are exactly those of its
    command; the jet-frame fixture still fails on its claims alone."""
    for path in sorted(p for p in GOLDEN_DIR.glob("*.json") if p.name != "digests.json"):
        check = runner.invoke(main, ["verify-report", str(path)])
        assert check.exit_code == 0, (path.name, check.stderr)
    check = runner.invoke(main, ["verify-report", str(FIXTURES_DIR / "jet_frame_infinite_report.json")])
    assert check.stderr == "verification failure: recomputed claims differ from the stored report\n"


def _assert_one_line_exit_two(res, prefix):
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == "" and res.stderr.startswith(prefix)
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["contact", "pullback"])
def test_a_curve_may_carry_a_zero_graph_coordinate(runner, command):
    """On mixed_sq2 (n = 2) a --curve with a third, identically zero
    component reads as the curve without it; a nonzero third component is
    an input error, one line with exit 2."""
    path = str(CORPUS_DIR / "mixed_sq2.txt")
    short = runner.invoke(main, [command, path, "--curve", "(-t^2, t)", "--json"])
    padded = runner.invoke(main, [command, path, "--curve", "(-t^2, t, 0)", "--json"])
    assert short.exit_code == padded.exit_code == 0
    assert _machine(padded)["claims"] == _machine(short)["claims"]
    assert _machine(short)["claims"]["curve"] == "(-t^2, t)"
    res = runner.invoke(main, [command, path, "--curve", "(-t^2, t, t)"])
    _assert_one_line_exit_two(res, "input error: curve has 3 components, function has 2 variables")


@pytest.mark.parametrize("command", ["order", "verify-report"])
@pytest.mark.parametrize("data", [b"n = 3\nr = 2*Re(z3) + abs2(z1)\xff\n", b"\xff"])
def test_a_file_that_is_not_utf8_is_an_input_error(runner, tmp_path, command, data):
    path = tmp_path / "problem.txt"
    path.write_bytes(data)
    for args, stdin in (([command, str(path)], None), ([command, "-"], data)):
        res = runner.invoke(main, args, input=stdin)
        _assert_one_line_exit_two(res, "input error: ")
        assert "is not UTF-8: 'utf-8' codec can't decode byte 0xff" in res.stderr


@pytest.mark.parametrize("command", ["order", "verify-report"])
def test_a_file_that_cannot_be_opened_is_an_input_error(runner, tmp_path, command):
    for path in (tmp_path / "missing.txt", tmp_path):
        res = runner.invoke(main, [command, str(path)])
        _assert_one_line_exit_two(res, f"input error: cannot read '{path}': ")


@pytest.mark.parametrize("args", [
    [],
    ["nope"],
    ["order", "{file}", "--bogus"],
    ["order", "{file}", "--json=1"],
    ["reg-type", "{file}", "--max"],
    ["reg-type", "{file}", "--max", "x"],
    ["germ-ps", "{file}"],
    ["contact", "{file}"],
    ["report", "{file}"],
    ["order"],
    ["order", "{file}", "{file}"],
    ["fdb-verify", "{file}"],
], ids=["no_command", "unknown_command", "unknown_option", "flag_value", "no_value",
        "not_int", "missing_kmax", "missing_curve", "missing_all", "missing_file",
        "extra_file", "fdb_verify_file"])
def test_a_usage_error_exits_two_with_one_line(runner, tmp_path, args):
    path = tmp_path / "problem.txt"
    path.write_text(CUBIC_SQUARE)
    res = runner.invoke(main, [arg.format(file=path) for arg in args])
    _assert_one_line_exit_two(res, "input error: ")


@pytest.mark.parametrize("one, other", [
    (["reg-type", "{file}", "--max", "6"], ["reg-type", "{file}", "--max=6"]),
    (["reg-type", "{file}", "--max=6"], ["reg-type", "--max", "9", "{file}", "--max", "6"]),
    (["report", "{file}", "--all", "--max-deg", "3", "--trials", "5"],
     ["report", "--trials=5", "--all", "{file}", "--max-deg=3"]),
])
def test_option_forms_give_the_same_report(runner, tmp_path, one, other):
    """`--opt value` and `--opt=value`, before or after FILE, and the last
    of a repeated option wins."""
    path = tmp_path / "problem.txt"
    path.write_text(CANCEL_QUARTIC)
    first, second = (runner.invoke(main, [arg.format(file=path) for arg in [*argv, "--json"]])
                     for argv in (one, other))
    assert first.exit_code == second.exit_code == 0, first.output
    assert first.stdout == second.stdout


def test_version_and_help(runner):
    res = runner.invoke(main, ["--version"])
    assert (res.exit_code, res.stdout) == (0, "contactps, version 1.0.0\n")
    group = runner.invoke(main, ["--help"])
    assert group.exit_code == 0 and group.stdout.startswith("Usage: contactps [OPTIONS] COMMAND")
    for command, spec in COMMANDS.items():
        assert f"  {command} " in group.stdout
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0 and res.stderr == "", command
        assert res.stdout.startswith(f"Usage: contactps {command} [OPTIONS]")
        assert spec.help in res.stdout
        for option in spec.options:
            assert f"--{option.name}" in res.stdout
            if option.default not in (None, False):
                assert f"[default: {option.default}]" in res.stdout
    assert "--kmax INT" in runner.invoke(main, ["germ-ps", "--help"]).stdout


_NO_CLICK_SCRIPT = """
import runpy, sys
sys.modules["click"] = None
sys.argv = ["contactps", *sys.argv[1:]]
if sys.argv[1] == "--version":
    runpy.run_module("contactps.cli", run_name="__main__")
from contactps.cli import main
main()
"""


_NO_OPENSSL_SCRIPT = """
import sys
from contactps.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted({"_hashlib", "hashlib"} & set(sys.modules)), file=sys.stderr)
"""


# Runs the CLI on argv under a 1 GiB address-space limit, so that a search
# that builds what it was asked to ends in a MemoryError instead of taking
# the machine's memory.
_CAPPED_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from contactps.cli import main
main(sys.argv[1:])
"""

_FORTY_VARIABLES = "n = 40\nr = 2*Re(z40) + abs2(z1)\n"


@pytest.mark.parametrize("source, args", [
    (_FORTY_VARIABLES, ["sing-search"]),
    (_FORTY_VARIABLES, ["reg-type"]),
    (_FORTY_VARIABLES, ["report", "--all"]),
    (FOURTH_POWERS, ["sing-search", "--coeff-height", "100000"]),
    (INDEFINITE, ["ps-check", "--coeff-height", "100000"]),
    ("n = 3\nr = 2*Re(z3) + abs2(z1)^2 - abs2(z2)^2\n",
     ["germ-ps", "--kmax", "4", "--coeff-height", "100000"]),
], ids=["n40_sing_search", "n40_reg_type", "n40_report_all", "height_sing_search",
        "height_ps_check", "height_germ_ps"])
def test_a_search_too_large_to_enumerate_is_an_input_error(tmp_path, source, args):
    """A search whose exponent tuples or scan grid exceed search.py's
    limits exits 2 with one line before building either, within a memory
    limit and a timeout that building them would break."""
    path = tmp_path / "problem.txt"
    path.write_text(source)
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _CAPPED_SCRIPT, args[0], str(path), *args[1:]],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("input error: search too large: ")
    assert run.stderr.count("\n") == 1


@pytest.mark.parametrize("k", ["18", "40", "1000000000"])
def test_an_expansion_too_large_to_build_is_an_input_error(k):
    """fdb-verify refuses an order k whose expansion table holds more than
    fdb.MAX_EXPANSION_TERMS terms (P(k)^2, P(k) the number of partitions
    of k) with one line and exit 2, before building it, within a memory
    limit and a timeout that building it would break."""
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _CAPPED_SCRIPT, "fdb-verify", "--k", k,
                          "--trials", "1"], capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"input error: expansion too large: --k {k} gives more than 100000 "
                          "expansion terms\n")


@pytest.mark.parametrize("k, trials, message", [
    ("3", "100000000", "--trials 100000000 is more than 10000"),
    ("1", "10001", "--trials 10001 is more than 10000"),
    ("17", "23", "--trials 23 at --k 17 checks 2028807 expansion terms, more than 2000000"),
])
def test_too_many_fdb_verify_trials_is_an_input_error(k, trials, message):
    """fdb-verify refuses more than fdb.MAX_TRIALS trials, or trials whose
    expansion tables would together hold more than fdb.MAX_RUN_TERMS terms
    (trials * P(k)^2), with one line and exit 2, before its first trial,
    within a timeout that running them would break."""
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _CAPPED_SCRIPT, "fdb-verify", "--k", k,
                          "--trials", trials], capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"input error: too many trials: {message}\n"


def test_fdb_verify_takes_the_largest_order_with_the_default_trials():
    """--k 17, the largest order whose table is built, runs with the default
    20 trials: the trials limits refuse no order that the table limit
    takes."""
    result = CliRunner().invoke(main, ["fdb-verify", "--k", "17", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["claims"]["trials"], payload["claims"]["matches"]) == (20, 20)


def test_a_cli_run_does_not_load_openssl(tmp_path):
    """report --all hashes its input with CPython's built-in SHA-256, so a
    CLI process never imports hashlib, which loads OpenSSL's libcrypto."""
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    argv = ["report", str(CORPUS_DIR / "crit6_type4.txt"), "--all", *_REPORT_BUDGET, "--json"]
    run = subprocess.run([sys.executable, "-c", _NO_OPENSSL_SCRIPT, *argv], capture_output=True,
                         text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "[]\n")
    assert json.loads(run.stdout)["command"] == "report"


def test_the_cli_runs_without_click():
    """In a process where importing click fails, `python -m contactps.cli
    --version` and `order FILE --json` through `main()` give their output."""
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent.parent / "src")}
    runs = [subprocess.run([sys.executable, "-c", _NO_CLICK_SCRIPT, *args], capture_output=True,
                           text=True, env=env, timeout=60)
            for args in (["--version"], ["order", str(CORPUS_DIR / "crit6_type4.txt"), "--json"])]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == "contactps, version 1.0.0\n"
    machine = json.loads(runs[1].stdout)
    assert machine["command"] == "order" and machine["claims"]["order"]["kind"] == "exact"
