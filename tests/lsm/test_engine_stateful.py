"""Stateful property test: the LSM engine behaves like a dict.

Hypothesis drives random sequences of put/delete/get/flush/compact/
crash-recover operations against the engine and a model dictionary;
after every step, reads must agree.  This exercises the interaction of
memtable modes, flush boundaries, tombstones, compaction strategies and
WAL recovery far beyond what example-based tests cover.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.lsm import (
    EngineConfig,
    LSMEngine,
    MajorCompaction,
    MemoryFileSystem,
    SizeTieredCompaction,
)

KEYS = st.integers(0, 24)


class EngineModel(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(1, 8),
        mode=st.sampled_from(["map", "append"]),
    )
    def setup(self, capacity, mode):
        self.engine = LSMEngine(
            EngineConfig(memtable_capacity=capacity, memtable_mode=mode)
        )
        self.model: dict[int, int] = {}
        self.counter = 0

    @rule(key=KEYS)
    def put(self, key):
        self.counter += 1
        self.engine.put(key, value_size=self.counter)
        self.model[key] = self.counter

    @rule(key=KEYS)
    def delete(self, key):
        self.engine.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        record = self.engine.get(key)
        if key in self.model:
            assert record is not None, f"lost key {key}"
            assert record.value_size == self.model[key], f"stale value for {key}"
        else:
            assert record is None, f"phantom key {key}"

    @rule()
    def flush(self):
        self.engine.flush()

    @precondition(lambda self: self.engine.table_count + (0 if self.engine.memtable.is_empty else 1) >= 1)
    @rule(policy=st.sampled_from(["SI", "BT(I)", "random"]))
    def compact_major(self, policy):
        if self.engine.memtable.is_empty and not self.engine.sstables:
            return
        self.engine.compact(MajorCompaction(policy, seed=0))
        assert self.engine.table_count == 1

    @precondition(lambda self: bool(self.engine.sstables))
    @rule()
    def compact_size_tiered(self):
        self.engine.compact(SizeTieredCompaction(min_threshold=2))

    @rule()
    def crash_and_recover(self):
        self.engine = self.engine.simulate_crash_and_recover()

    @rule(start=KEYS, length=st.integers(1, 10))
    def bounded_scan(self, start, length):
        """Bounded scans return exactly the first `length` live keys,
        however many shadowed versions or tombstones precede them."""
        expected = sorted(k for k in self.model if k >= start)[:length]
        result = self.engine.scan(start, length)
        assert [record.key for record in result] == expected
        assert [record.value_size for record in result] == [
            self.model[k] for k in expected
        ]

    @invariant()
    def scan_matches_model(self):
        live = {record.key for record in self.engine.scan(0, 100)}
        assert live == set(self.model)


EngineModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestEngineAgainstModel = EngineModel.TestCase


class DurableEngineModel(RuleBasedStateMachine):
    """The same dict-equivalence contract over the disk-backed engine.

    Every mutation goes through the file WAL / sstable / manifest tier
    on an in-memory filesystem, and ``crash_and_reopen`` rebuilds the
    engine from the surviving bytes alone — with per-write WAL syncs a
    reopen may never lose an acknowledged operation.
    """

    @initialize(capacity=st.integers(1, 8), mode=st.sampled_from(["map", "append"]))
    def setup(self, capacity, mode):
        self.fs = MemoryFileSystem()
        self.config = EngineConfig(memtable_capacity=capacity, memtable_mode=mode)
        self.engine = LSMEngine.open(fs=self.fs, config=self.config)
        self.model: dict[int, int] = {}
        self.counter = 0

    @rule(key=KEYS)
    def put(self, key):
        self.counter += 1
        self.engine.put(key, value_size=self.counter)
        self.model[key] = self.counter

    @rule(key=KEYS)
    def delete(self, key):
        self.engine.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        record = self.engine.get(key)
        if key in self.model:
            assert record is not None, f"lost key {key}"
            assert record.value_size == self.model[key], f"stale value for {key}"
        else:
            assert record is None, f"phantom key {key}"

    @rule()
    def flush(self):
        self.engine.flush()

    @precondition(lambda self: bool(self.engine.sstables))
    @rule(policy=st.sampled_from(["SI", "BT(I)"]))
    def compact_major(self, policy):
        self.engine.compact(MajorCompaction(policy, seed=0))
        assert self.engine.table_count == 1

    @precondition(lambda self: bool(self.engine.sstables))
    @rule()
    def compact_size_tiered(self):
        self.engine.compact(SizeTieredCompaction(min_threshold=2))

    @rule()
    def crash_and_reopen(self):
        self.engine = LSMEngine.open(fs=self.fs, config=self.config)

    @rule(start=KEYS, length=st.integers(1, 10))
    def bounded_scan(self, start, length):
        expected = sorted(k for k in self.model if k >= start)[:length]
        result = self.engine.scan(start, length)
        assert [record.key for record in result] == expected
        assert [record.value_size for record in result] == [
            self.model[k] for k in expected
        ]

    @invariant()
    def scan_matches_model(self):
        live = {record.key for record in self.engine.scan(0, 100)}
        assert live == set(self.model)


DurableEngineModel.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestDurableEngineAgainstModel = DurableEngineModel.TestCase
