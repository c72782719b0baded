"""The machine section writer against the stdlib JSON encoder, and the
options that verify_report accepts."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactps.report import InputError, build_report, machine_json, verify_report

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "é", "\x00\x1f\x7f", " ", "\"\\/", "z1 + conj(z2)", "k3_form_type", "\U0001f600"])
_LEAVES = st.none() | st.booleans() | st.integers(-(10 ** 20), 10 ** 20) | _TEXT
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(doc=_DOCUMENTS)
def test_machine_json_is_the_sorted_indent_2_dump(doc):
    """Byte for byte json.dumps(sort_keys=True, indent=2) plus a newline, on
    nested dicts and lists, empty ones included, with non-ASCII and control
    characters, ints, bools and None."""
    assert machine_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_machine_json_hands_other_values_to_the_stdlib():
    """Floats, tuples and dicts with non-string keys come out as json.dumps
    writes them, at their depth."""
    doc = {"b": [1.5, float("inf"), {2: None, 1: "x"}], "a": {"t": (1, (2, [])), "f": -0.0}}
    assert machine_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_CUBIC_SQUARE = "n = 3\nr = 2*Re(z3) + abs2(z1^2 - z2^3)\n"


@pytest.mark.parametrize("command, options, stored, message", [
    ("gram", {}, {"foo": 1, "max": 1}, "report options of 'gram' must be exactly []"),
    ("reg-type", {"max": 8}, {}, "report options of 'reg-type' must be exactly ['max']"),
    ("reg-type", {"max": 8}, {"max": 8, "curve": "(t, 0, 0)"},
     "report options of 'reg-type' must be exactly ['max']"),
    ("reg-type", {"max": 8}, {"max": "8"}, "report options must be ints, and curve a string"),
    ("reg-type", {"max": 8}, {"max": True}, "report options must be ints, and curve a string"),
    ("pullback", {"curve": "(t, t, 0)"}, {"curve": 3},
     "report options must be ints, and curve a string"),
], ids=["unknown_names", "missing_name", "foreign_name", "str_for_int", "bool_for_int",
        "int_for_str"])
def test_verify_report_reads_the_options_of_the_command_table(command, options, stored,
                                                              message):
    """In process too, verify_report accepts exactly the options that a CLI
    run of the command records (report.COMMANDS), each of its declared
    type; the untouched report verifies."""
    machine, code = build_report(command, _CUBIC_SQUARE, options)
    assert verify_report(machine) == {"verified": True, "command": command, "exit_code": code}
    machine["options"] = stored
    with pytest.raises(InputError) as info:
        verify_report(machine)
    assert str(info.value) == message
