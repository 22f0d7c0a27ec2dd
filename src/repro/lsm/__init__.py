"""The LSM storage substrate (Figures 1 and 2 of the paper).

Memtables, sstables with bloom filters and sparse indexes, write-ahead
logs, a simulated disk with byte accounting and a timing model, fault-
injecting filesystems, the compaction strategies, and the one engine
that runs the full read/write path over them: :class:`LSMEngine`,
composed from a storage (memory or ``fs=``; :mod:`~repro.lsm.storage`)
and a flush queue (``max_immutable_memtables`` / ``flush_workers``;
:class:`FlushPipeline`).
"""

from .bloom import BloomFilter
from .compaction import (
    CompactionController,
    CompactionResult,
    CompactionStrategy,
    ControllerStats,
    DateTieredCompaction,
    LeveledCompaction,
    MajorCompaction,
    SizeTieredCompaction,
    execute_schedule,
)
from .disk import DiskTimingModel, IoStats, SimulatedDisk
from .engine import EngineConfig, LSMEngine, ReadStats
from .faults import (
    CrashPoint,
    FaultInjectedFileSystem,
    FaultPlan,
    LocalFileSystem,
    MemoryFileSystem,
)
from .format import FileWriteAheadLog
from .metrics import AmplificationReport, measure_amplification
from .pipeline import FlushPipeline, PipelineMetrics
from .memtable import (
    AppendLogMemtable,
    Memtable,
    SortedMapMemtable,
    make_memtable,
)
from .record import ENTRY_OVERHEAD_BYTES, Record
from .sstable import MERGE_KERNELS, SSTable, TableColumns, merge_sstables, table_from_records
from .wal import WriteAheadLog

# The frozen benchmark harness (bench/engine.py) opens file-backed stores
# under this name (``.open(directory, config, fs=, wal_sync_every=)``);
# durability is a storage setting of the one engine, so it is an alias —
# deliberately absent from ``__all__``, new code says ``LSMEngine.open``.
DurableLSMEngine = LSMEngine

__all__ = [
    "AmplificationReport",
    "AppendLogMemtable",
    "BloomFilter",
    "CompactionController",
    "CompactionResult",
    "CompactionStrategy",
    "ControllerStats",
    "CrashPoint",
    "DateTieredCompaction",
    "DiskTimingModel",
    "ENTRY_OVERHEAD_BYTES",
    "EngineConfig",
    "FaultInjectedFileSystem",
    "FaultPlan",
    "FileWriteAheadLog",
    "FlushPipeline",
    "IoStats",
    "LSMEngine",
    "LeveledCompaction",
    "LocalFileSystem",
    "MemoryFileSystem",
    "MERGE_KERNELS",
    "MajorCompaction",
    "Memtable",
    "PipelineMetrics",
    "ReadStats",
    "Record",
    "SSTable",
    "SimulatedDisk",
    "SizeTieredCompaction",
    "SortedMapMemtable",
    "TableColumns",
    "WriteAheadLog",
    "execute_schedule",
    "make_memtable",
    "measure_amplification",
    "merge_sstables",
    "table_from_records",
]
