"""Snapshot lineage: optional header, old-file compatibility, chains.

The compatibility contract mirrors the ``vseg_*`` automaton sections:
pre-lineage snapshots load unchanged and report no lineage; re-saving
one through the versioned writer upgrades the file in place; children
embed their parent's payload CRC so a chain verifies file-by-file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.errors import ModelError
from repro.runtime.lineage import (
    SnapshotLineage,
    lineage_of,
    model_generation_of,
    save_versioned_snapshot,
    snapshot_identity,
)
from repro.runtime.snapshot import load_snapshot, read_snapshot_header

QUERIES = ["cheap iphone 5s case", "hotels in rome", "iphone"]


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def plain_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("lineage") / "plain.hdms"
    compiled.save_snapshot(path)
    return path


@pytest.fixture(scope="module")
def versioned_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("lineage") / "base.hdms"
    save_versioned_snapshot(compiled, path, generation=1, record_count=1500)
    return path


def test_plain_snapshot_has_no_lineage(plain_path):
    assert lineage_of(plain_path) is None
    assert model_generation_of(plain_path) == 1


def test_versioned_snapshot_round_trips(versioned_path):
    lineage = lineage_of(versioned_path)
    assert lineage == SnapshotLineage(
        generation=1, record_count=1500, parent_crc32=None
    )
    assert model_generation_of(versioned_path) == 1
    detector = load_snapshot(versioned_path)
    assert detector.detect(QUERIES[0]) is not None
    detector.close()


def test_child_embeds_parent_identity(compiled, versioned_path, tmp_path):
    child = tmp_path / "gen2.hdms"
    save_versioned_snapshot(
        compiled, child, generation=2, record_count=1600, parent=versioned_path
    )
    lineage = lineage_of(child)
    assert lineage is not None
    assert lineage.generation == 2
    assert lineage.record_count == 1600
    assert lineage.parent_crc32 == snapshot_identity(versioned_path)
    assert model_generation_of(child) == 2


def test_resave_upgrades_old_snapshot_in_place(plain_path, tmp_path):
    detector = load_snapshot(plain_path)
    upgraded = tmp_path / "upgraded.hdms"
    save_versioned_snapshot(
        detector, upgraded, generation=1, record_count=1500
    )
    assert lineage_of(upgraded) is not None
    reloaded = load_snapshot(upgraded)
    assert [reloaded.detect(q) for q in QUERIES] == [
        detector.detect(q) for q in QUERIES
    ]
    reloaded.close()
    detector.close()


def test_lineage_survives_header_round_trip(versioned_path):
    header = read_snapshot_header(versioned_path)
    assert SnapshotLineage.from_header(header) == lineage_of(versioned_path)


def test_malformed_lineage_rejected():
    with pytest.raises(ModelError, match="malformed lineage"):
        SnapshotLineage.from_header({"lineage": {"generation": "x"}})
    with pytest.raises(ModelError, match="generation must be"):
        SnapshotLineage(generation=0, record_count=1)
    with pytest.raises(ModelError, match="record_count must be"):
        SnapshotLineage(generation=1, record_count=-1)


#: Trains the shared test model (see ``tests/conftest.py``) and writes
#: its snapshot to ``sys.argv[1]``.
_TRAIN_AND_SAVE = textwrap.dedent(
    """
    import sys
    from repro import (
        LogConfig, TrainingConfig, build_from_seed, generate_log, train_model,
    )
    taxonomy = build_from_seed()
    log = generate_log(taxonomy, LogConfig(seed=7, num_intents=1500))
    model = train_model(log, taxonomy, TrainingConfig())
    model.compile().save_snapshot(sys.argv[1])
    """
)


def test_snapshot_bytes_do_not_depend_on_hash_seed(tmp_path):
    """Two processes training the same seed under different string-hash
    seeds write the same payload, so a child's lineage parent id (the
    payload CRC) names the same parent in every process."""
    src = str(Path(repro.__file__).parents[1])
    crcs = []
    for hash_seed in ("0", "1"):
        path = tmp_path / f"hashseed{hash_seed}.hdms"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_SAVE, str(path)],
            env=env,
            check=True,
            timeout=300,
        )
        crcs.append(read_snapshot_header(path)["payload_crc32"])
    assert crcs[0] == crcs[1]
