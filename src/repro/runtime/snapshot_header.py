"""The snapshot prelude and header reader, without NumPy.

A snapshot file (:mod:`repro.runtime.snapshot`) opens with a fixed
prelude — magic, format version, header length — followed by a JSON
header. Processes that only need the header (the serving router, which
validates a reload target before rolling its replicas onto it, and
``repro snapshot --info``) read it here, so they load neither NumPy nor
the compiled runtime. :mod:`repro.runtime.snapshot` writes and maps files
with these same constants, so the prelude is defined in one place.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from repro.errors import ModelError

#: File magic: "HDM SNAPshot"; the layout version is the u32 after it.
MAGIC = b"HDMSNAP1"

#: Current snapshot format version. Bump on any layout change: files of
#: any other version are refused, never parsed best-effort.
SNAPSHOT_VERSION = 4

#: ``magic (8s) · version (u32) · header length (u32)``, little-endian.
_PRELUDE = struct.Struct("<8sII")

#: Section payloads start on this alignment so mmap'd array views are
#: safely aligned for any dtype we store.
_ALIGN = 64


def read_snapshot_header(path: str | Path) -> dict:
    """Validate the prelude and return the parsed JSON header.

    Raises :class:`~repro.errors.ModelError` on anything that is not a
    well-formed snapshot of a supported version.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            prelude = handle.read(_PRELUDE.size)
            if len(prelude) < _PRELUDE.size:
                raise ModelError(f"{path}: truncated snapshot (no prelude)")
            magic, version, header_len = _PRELUDE.unpack(prelude)
            if magic != MAGIC:
                raise ModelError(f"{path}: not a detection snapshot (bad magic)")
            if version != SNAPSHOT_VERSION:
                raise ModelError(
                    f"{path}: unsupported snapshot version {version} "
                    f"(this build reads version {SNAPSHOT_VERSION})"
                )
            header_bytes = handle.read(header_len)
    except OSError as exc:
        raise ModelError(f"{path}: unreadable snapshot ({exc})") from exc
    if len(header_bytes) < header_len:
        raise ModelError(f"{path}: truncated snapshot (incomplete header)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"{path}: corrupted snapshot header ({exc})") from exc
    header["_payload_start"] = (
        _PRELUDE.size + header_len + ((-(_PRELUDE.size + header_len)) % _ALIGN)
    )
    return header
