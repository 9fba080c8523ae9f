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

import make_output_digests as mk


def committed() -> dict:
    return json.loads(mk.DIGESTS.read_text(encoding="utf-8"))


def test_made_in_this_environment():
    made = committed()["env"]
    here = mk.environment()
    diff = {key: (made.get(key), here.get(key)) for key in made.keys() | here.keys()
            if made.get(key) != here.get(key)}
    assert not diff, f"digests were made in another environment (made, here): {diff}"


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
