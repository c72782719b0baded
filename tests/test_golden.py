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

golden/digests.json holds the exit code and the SHA-256 of the machine
section, the human report and standard error of every command set of
golden/make_digests.py on the corpus, the malformed inputs of
test_cli.py and a slice of test_soundness.py's series germs, through
cli.main; make_digests.py regenerates it and names the runs that changed.
"""

import glob
import importlib.util
import json
import os

import pytest

from contactps.report import build_report, machine_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDENS = sorted(p for p in glob.glob(os.path.join(GOLDEN_DIR, "*.json"))
                 if not p.endswith("digests.json"))


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


def _make_digests():
    spec = importlib.util.spec_from_file_location(
        "make_digests", os.path.join(GOLDEN_DIR, "make_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_keeps_its_digests():
    """Every run of golden/digests.json gives the same exit code, machine
    section, human report (less its timestamp) and standard error, and no
    run was added or dropped; the failure names the runs that changed."""
    make = _make_digests()
    with open(make.DIGESTS, encoding="utf-8") as fh:
        stored = fh.read()
    new = make.compute()
    assert make.changed(json.loads(stored), new) == []
    assert make.dumps(new) == stored
