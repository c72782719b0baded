"""Command-line interface: exit codes, report structure, determinism."""

import json

import pytest
from click.testing import CliRunner

from contactps.cli import main

CUBIC_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n"
CANCEL_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2)\n"
FOURTH_POWERS = "n = 3\nr = 2*Re(z3) + abs2(z1)^2 + abs2(z2)^2\n"
CANCEL_QUARTIC = "n = 3\nr = 2*Re(z3) + abs2(z1 + z2^2) + abs2(z2)^2\n"
INDEFINITE = "n = 2\nr = abs2(z1)^2 - abs2(z2)^2\n"
# Only the Gram-seed stage of ps_search finds this violation.
GRAM_SEED_ONLY = "n = 2\nr = 24*abs2(z2) - 5*z2*conj(z1) - 5*z1*conj(z2) + abs2(z1)\n"


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
