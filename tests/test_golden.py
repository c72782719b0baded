"""Byte-identity of report machine sections against committed goldens.

Each tests/golden/*.json file is the `--json` output of one CLI command on
the release before the report pipeline was restructured, e.g.

    contactps report FILE --all --max-deg 4 --trials 50 --seed 0 --json

over the criterion 4-9 germs, plus `gram`, `reg-type --max 16`, `germ-ps` and
`sing-search` on two of them, two `report --all --max 12` runs whose
graph forms at K = 8 (the sing-search section) and K = 12 (the reg-type and
inference evidence) differ, and one `report --all --max 4` run on a germ
with a series frame (report_max4_series_frame), which pins that pairing
below 8: its inference says at_least 5 from the K = 4 frame, and its
sing-search section at_least 8 from the K = 8 frame.  A machine section embeds its command, options
and input source, so the test re-runs exactly that and compares the bytes.
Regenerate a golden only for a deliberate change of a claim or the format.
"""

import glob
import json
import os

import pytest

from contactps.report import build_report, machine_json

GOLDENS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden", "*.json")))


def test_goldens_are_present():
    assert len(GOLDENS) == 25


@pytest.mark.parametrize("path", GOLDENS, ids=os.path.basename)
def test_machine_section_is_byte_identical(path):
    with open(path, encoding="utf-8") as fh:
        stored = fh.read()
    golden = json.loads(stored)
    machine, code = build_report(
        golden["command"], golden["input_source"], golden["options"]
    )
    assert code == golden["exit_code"]
    assert machine_json(machine) == stored
