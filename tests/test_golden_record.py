"""The conftest model's answers match the checked-in golden record.

See :mod:`tests.golden` for what the record pins and how to rewrite it
when a change means to move the answers.
"""

from __future__ import annotations

import json

from tests.golden import RECORD_PATH, compute_record


def test_answers_match_golden_record(model, detector, eval_examples):
    record, lines = compute_record(model, detector, eval_examples)
    expected = json.loads(RECORD_PATH.read_text())
    if record["payload_sha256"] != expected["payload_sha256"]:
        pinned = RECORD_PATH.with_suffix(".lines").read_text().splitlines()
        moved = [(want, got) for want, got in zip(pinned, lines) if want != got]
        assert moved[:3] == [], f"{len(moved)} detections moved"
    assert record == expected
