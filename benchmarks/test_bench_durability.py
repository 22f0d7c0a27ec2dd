"""Durability-tier overhead: what crash safety costs at the write path.

Times put throughput on three engines — the in-memory baseline, the
durable engine syncing every record (the strict-durability worst case),
and the durable engine with group commit (``sync_every=100``) — all on
a real directory, plus the raw sstable codec (encode + decode + verify
of every CRC frame).  The headline ratios land in
``results/BENCH_durability.json`` so the cost of durability is diffable
across PRs; there is deliberately no speedup bar, because fsync latency
is a property of the host filesystem, not of this code.

Set ``REPRO_BENCH_FAST=1`` for a reduced pass.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.lsm import EngineConfig, LSMEngine
from repro.lsm.format.sstable_io import decode_sstable, encode_sstable
from repro.lsm.sstable import table_from_records
from repro.lsm.record import Record

from conftest import is_fast, write_bench_json

CAPACITY = 500


def put_ops(fast: bool) -> int:
    return 2_000 if fast else 5_000


def time_puts(engine, ops: int) -> float:
    start = time.perf_counter()
    for i in range(ops):
        engine.put(i % 64, value_size=100)
    engine.flush()
    return time.perf_counter() - start


def test_bench_durability(results_dir):
    ops = put_ops(is_fast())
    config = EngineConfig(memtable_capacity=CAPACITY)

    memory_seconds = time_puts(LSMEngine(config), ops)

    timings = {}
    for label, sync_every in (("sync_every_1", 1), ("sync_every_100", 100)):
        with tempfile.TemporaryDirectory() as tmp:
            engine = LSMEngine.open(
                Path(tmp), config=config, wal_sync_every=sync_every
            )
            timings[label] = time_puts(engine, ops)
            # Correctness spot check: the bytes on disk alone rebuild it.
            recovered = LSMEngine.open(Path(tmp), config=config)
            assert recovered.get(0) is not None
            assert recovered.get(63) is not None

    # Codec throughput: encode, then decode with every CRC verified.
    records = [Record.put(i, i + 1, value_size=100) for i in range(ops)]
    table = table_from_records(0, records)
    start = time.perf_counter()
    data = encode_sstable(table)
    encode_seconds = time.perf_counter() - start
    start = time.perf_counter()
    decoded = decode_sstable(data)
    decode_seconds = time.perf_counter() - start
    assert decoded.entry_count == table.entry_count
    assert encode_sstable(decoded) == data  # byte-identical round trip

    assert memory_seconds > 0 and all(t > 0 for t in timings.values())
    mb = len(data) / 1e6
    write_bench_json(
        results_dir,
        "durability",
        {
            "put_ops": ops,
            "memtable_capacity": CAPACITY,
            "memory_puts_per_second": round(ops / memory_seconds),
            "durable_sync1_puts_per_second": round(ops / timings["sync_every_1"]),
            "durable_sync100_puts_per_second": round(
                ops / timings["sync_every_100"]
            ),
            "sync1_overhead_x": round(timings["sync_every_1"] / memory_seconds, 2),
            "sync100_overhead_x": round(
                timings["sync_every_100"] / memory_seconds, 2
            ),
            "sstable_bytes": len(data),
            "encode_mb_per_second": round(mb / encode_seconds, 2),
            "decode_mb_per_second": round(mb / decode_seconds, 2),
        },
    )
