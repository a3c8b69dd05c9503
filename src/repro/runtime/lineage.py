"""Versioned snapshot lineage: who trained this model, from what.

Each incremental fold emits a *new* snapshot file rather than rewriting
the live one (the serving fleet mmaps the old file until every replica
has swapped). Lineage links those files into a chain the operator can
audit without loading a single model:

- ``generation`` — the trainer's model generation (1 = base build,
  +1 per fold);
- ``parent_crc32`` — the payload CRC of the snapshot this one was
  folded from (``None`` for a base build), so a chain can be verified
  file-by-file;
- ``record_count`` — distinct queries in the accumulated log that
  trained the model.

Lineage is an **optional** header key of the ``HDMSNAP1`` format — the
same compatibility move as the ``vseg_*`` automaton sections: snapshots
written before this module load unchanged (:func:`lineage_of` returns
``None``), and re-saving one through :func:`save_versioned_snapshot`
upgrades it in place.

Reading lineage needs only the header, so this module imports the
NumPy-free :mod:`repro.runtime.snapshot_header`; the serving layer reads
generations through it without loading the compiled runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ModelError
from repro.runtime.snapshot_header import read_snapshot_header

if TYPE_CHECKING:
    from repro.runtime.compiled import CompiledDetector


@dataclass(frozen=True, slots=True)
class SnapshotLineage:
    """The lineage header of one snapshot file."""

    generation: int
    record_count: int
    parent_crc32: int | None = None

    def __post_init__(self) -> None:
        if self.generation < 1:
            raise ModelError("lineage generation must be >= 1")
        if self.record_count < 0:
            raise ModelError("lineage record_count must be >= 0")

    def to_header(self) -> dict[str, int | None]:
        """The JSON-serializable header value."""
        return {
            "generation": self.generation,
            "record_count": self.record_count,
            "parent_crc32": self.parent_crc32,
        }

    @classmethod
    def from_header(cls, header: dict[str, Any]) -> "SnapshotLineage | None":
        """Parse the lineage of a snapshot header; ``None`` when the
        snapshot predates lineage (old files keep loading)."""
        raw = header.get("lineage")
        if raw is None:
            return None
        try:
            parent = raw["parent_crc32"]
            return cls(
                generation=int(raw["generation"]),
                record_count=int(raw["record_count"]),
                parent_crc32=None if parent is None else int(parent),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed lineage header: {raw!r}") from exc


def lineage_of(path: str | Path) -> SnapshotLineage | None:
    """Lineage of a snapshot file, read from the header alone (no model
    load, no payload CRC pass)."""
    return SnapshotLineage.from_header(read_snapshot_header(path))


def model_generation_of(path: str | Path) -> int:
    """The model generation a snapshot carries; 1 for pre-lineage files
    (a snapshot with no history is its own base build)."""
    lineage = lineage_of(path)
    return lineage.generation if lineage is not None else 1


def snapshot_identity(path: str | Path) -> int:
    """The payload CRC32 that identifies a snapshot to its children."""
    return int(read_snapshot_header(path)["payload_crc32"])


def save_versioned_snapshot(
    detector: "CompiledDetector",
    path: str | Path,
    *,
    generation: int,
    record_count: int,
    parent: str | Path | None = None,
) -> dict[str, Any]:
    """Write ``detector`` as a snapshot carrying a lineage header.

    ``parent`` names the snapshot file this model was folded from; its
    payload CRC is embedded so the chain is verifiable. Returns the
    written header.
    """
    from repro.runtime.snapshot import save_snapshot

    lineage = SnapshotLineage(
        generation=generation,
        record_count=record_count,
        parent_crc32=None if parent is None else snapshot_identity(parent),
    )
    return save_snapshot(detector, path, lineage=lineage.to_header())
