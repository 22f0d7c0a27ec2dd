"""The MANIFEST: the engine's single atomic commit record.

A tiny CRC-framed JSON document naming the live sstable ids (in level
order), the next table id to allocate, and the highest sequence number
already durable in an sstable.  Every update writes ``MANIFEST.tmp``,
syncs it, then atomically renames over ``MANIFEST`` — recovery reads
either the previous state or the new one, never a torn mix.  The rename
is the *commit point* of a flush or compaction: an sstable file not yet
named by the manifest is garbage, and the WAL may only be truncated
after the manifest names the table that absorbed it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ...errors import CorruptionError
from .checksum import frame_block, read_block

MANIFEST_NAME = "MANIFEST"
MANIFEST_TMP_NAME = "MANIFEST.tmp"

_VERSION = 1


@dataclass(frozen=True)
class ManifestState:
    """What recovery needs to rebuild the engine's table view."""

    live_tables: tuple[int, ...] = ()
    next_table_id: int = 0
    last_seqno: int = 0
    version: int = _VERSION


def write_manifest(fs, state: ManifestState) -> None:
    """Durably replace the manifest via write-temp-then-rename."""
    payload = json.dumps(
        {
            "version": state.version,
            "live_tables": list(state.live_tables),
            "next_table_id": state.next_table_id,
            "last_seqno": state.last_seqno,
        },
        sort_keys=True,
    ).encode("utf-8")
    handle = fs.open_write(MANIFEST_TMP_NAME)
    handle.append(frame_block(payload))
    handle.sync()
    handle.close()
    fs.rename(MANIFEST_TMP_NAME, MANIFEST_NAME)


def read_manifest(fs) -> Optional[ManifestState]:
    """The committed state, or ``None`` when no manifest exists yet."""
    if not fs.exists(MANIFEST_NAME):
        return None
    data = fs.read_bytes(MANIFEST_NAME)
    block = read_block(data, 0)
    if block is None:
        # The manifest is written whole through an atomic rename, so a
        # bad frame cannot be a torn write — the bytes rotted at rest.
        raise CorruptionError("MANIFEST failed its checksum")
    payload, _end = block
    try:
        doc = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise CorruptionError(f"MANIFEST is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptionError("MANIFEST is not a JSON object")
    version = _count("version", doc.get("version"))
    if version != _VERSION:
        raise CorruptionError(
            f"MANIFEST field 'version' is {version}; this build reads {_VERSION}"
        )
    tables = doc.get("live_tables")
    if not isinstance(tables, list):
        raise CorruptionError(f"MANIFEST field 'live_tables' holds {tables!r}, not a list")
    return ManifestState(
        live_tables=tuple(_count("live_tables", table) for table in tables),
        next_table_id=_count("next_table_id", doc.get("next_table_id")),
        last_seqno=_count("last_seqno", doc.get("last_seqno")),
        version=version,
    )


def _count(field: str, value) -> int:
    """``value`` of MANIFEST ``field`` as a non-negative int.

    The writer stores only such ints, so anything else (a missing field,
    a float such as 1.5 or the ``inf`` that ``Infinity`` and ``1e400``
    parse to, a bool, a string, a negative number) is corruption, named
    by its field.
    """
    if type(value) is not int or value < 0:
        raise CorruptionError(
            f"MANIFEST field {field!r} holds {value!r}, not a non-negative integer"
        )
    return value
