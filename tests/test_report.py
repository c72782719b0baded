"""The machine section writer against the stdlib JSON encoder."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from contactps.report import machine_json

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
