"""Amplification metrics: the costs LSM designs trade against each other.

* **Write amplification** — disk bytes written / user payload bytes
  accepted.  Flushes write each byte once; every compaction rewrite
  adds to the numerator (the quantity the paper's cost function
  minimizes, seen over an engine's lifetime).
* **Read amplification** — sstables probed per point read (from the
  engine's :class:`~repro.lsm.engine.ReadStats`).
* **Space amplification** — on-disk entries / live distinct keys
  (obsolete versions and tombstones awaiting compaction).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import LSMEngine


@dataclass(frozen=True)
class AmplificationReport:
    """Point-in-time amplification summary for an engine."""

    user_bytes_written: int
    disk_bytes_written: int
    write_amplification: float
    reads: int
    read_amplification: float
    entries_on_disk: int
    live_keys: int
    space_amplification: float
    # Read-path detail (defaults keep older call sites constructible).
    bloom_fp_rate: float = 0.0
    read_bytes: int = 0

    def summary(self) -> str:
        return (
            f"WA={self.write_amplification:.2f} "
            f"RA={self.read_amplification:.2f} "
            f"SA={self.space_amplification:.2f} "
            f"(user {self.user_bytes_written}B -> disk {self.disk_bytes_written}B, "
            f"{self.entries_on_disk} entries / {self.live_keys} live keys)"
        )


def measure_amplification(engine: LSMEngine) -> AmplificationReport:
    """Compute the three amplification factors for the engine right now.

    Space amplification counts distinct keys across all sstables (live
    versions only at the newest seqno); intended for test/demo scale —
    it materializes the key union.  It walks each table's rows through
    the row accessors, so a column-backed table's ``records`` stay
    unbuilt (and uncached) after the call.
    """
    newest: dict = {}  # key -> (seqno, table, row) of its newest version
    for table in engine.sstables:
        seqno_at = table.seqno_at
        for row, key in enumerate(table.keys):
            seqno = seqno_at(row)
            existing = newest.get(key)
            if existing is None or seqno > existing[0]:
                newest[key] = (seqno, table, row)
    live_keys = sum(
        1 for _, table, row in newest.values() if not table.record_at(row).tombstone
    )
    entries = engine.total_entries_on_disk

    disk_written = engine.disk.stats.bytes_written
    user_written = engine.user_bytes_written
    reads = engine.read_stats.reads
    return AmplificationReport(
        user_bytes_written=user_written,
        disk_bytes_written=disk_written,
        write_amplification=disk_written / user_written if user_written else 0.0,
        reads=reads,
        read_amplification=engine.read_stats.tables_probed_per_read,
        entries_on_disk=entries,
        live_keys=live_keys,
        space_amplification=entries / live_keys if live_keys else 0.0,
        bloom_fp_rate=engine.read_stats.bloom_fp_rate,
        read_bytes=engine.read_stats.read_bytes,
    )
