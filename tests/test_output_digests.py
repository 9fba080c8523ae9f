"""Committed outputs stay byte-identical.

``tests/output_digests.json`` holds the sha256 of every ``gradcheck --json``
report, ``train`` output and JSONL round trip that
``tests/make_output_digests.py`` writes, and the environment it ran in.  A
change that is meant to keep outputs must keep these digests; one that
moves an output on purpose reruns the script.  Float bits may depend
on the environment, so a different one fails by name rather than passing
or skipping silently.
"""

import json
import re

import make_output_digests as mk

WORKFLOW = mk.DIGESTS.parent.parent / ".github" / "workflows" / "tier1.yml"


def committed() -> dict:
    return json.loads(mk.DIGESTS.read_text(encoding="utf-8"))


def test_made_in_this_environment():
    made = committed()["env"]
    here = mk.environment()
    diff = {key: (made.get(key), here.get(key)) for key in made.keys() | here.keys()
            if made.get(key) != here.get(key)}
    assert not diff, f"digests were made in another environment (made, here): {diff}"


def test_the_ci_workflow_installs_the_environment_the_digests_record():
    """CI pins the Python and NumPy versions that the digests were made
    with; the workflow is read with regexes, since CI installs no YAML
    parser.  Digests made again under other versions fail here by name
    until the workflow follows them."""
    made = committed()["env"]
    text = WORKFLOW.read_text(encoding="utf-8")
    pinned = {"python": re.findall(r'python-version:\s*"?([^"\s]+)"?', text),
              "numpy": re.findall(r"\bnumpy==(\S+)", text)}
    assert pinned == {"python": [made["python"]], "numpy": [made["numpy"]]}


def assert_unmoved(got: dict, prefix: str) -> None:
    """Every committed digest whose name has the prefix is computed again,
    in order, and none moved."""
    want = committed()["digests"]
    assert list(got) == [name for name in want if name.startswith(prefix)]
    moved = [name for name in got if got[name] != want[name]]
    assert not moved, f"outputs moved: {moved}"


def test_gradcheck_reports_match_their_digests():
    assert_unmoved(mk.gradcheck_digests(), "gradcheck-")


def test_train_outputs_and_jsonl_round_trip_match_their_digests():
    """Three 500-step runs and a JSONL round trip: about 8 s."""
    assert_unmoved(mk.train_digests(), "train-")
