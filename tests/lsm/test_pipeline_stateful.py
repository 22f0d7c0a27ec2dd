"""Stateful property test: the immutable-memtable queue invariants.

Hypothesis drives put/delete/get/scan/freeze/pause/resume/drain/crash
sequences against the pipelined engine and a model dictionary.  The
invariants under test:

* **freeze order is preserved** — published sstables carry strictly
  increasing table ids, and freezes never outrun flushes by more than
  the submitted backlog;
* **reads see newest-first** across active memtable → immutable queue →
  sstables: the engine answers exactly like the dict model at every
  step, including while frozen memtables sit unflushed in the queue;
* **backpressure never drops an acknowledged write** — whatever
  stalling happened, every acknowledged put/delete is readable (and
  recoverable through the WAL crash simulation).

The flush workers stay pausable, so the machine deterministically holds
memtables in the queue; the queue bound is large (64) because a paused
pipeline can never free a slot — submitting past the bound while paused
would stall the test forever (that is the documented backpressure
semantics, not a bug).
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

from repro.lsm import EngineConfig, LSMEngine

KEYS = st.integers(0, 24)


class PipelinedEngineModel(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(1, 8),
        mode=st.sampled_from(["map", "append"]),
        workers=st.integers(1, 3),
    )
    def setup(self, capacity, mode, workers):
        self.engine = LSMEngine(
            EngineConfig(
                memtable_capacity=capacity, memtable_mode=mode, use_wal=True
            ),
            max_immutable_memtables=64,  # see module docstring
            flush_workers=workers,
        )
        self.model: dict[int, int] = {}
        self.counter = 0
        self.paused = False

    def teardown(self):
        self.engine.resume_flushes()
        self.engine.close(raise_error=False)

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
            assert record.value_size == self.model[key], f"stale value {key}"
        else:
            assert record is None, f"phantom key {key}"

    @rule()
    def pause(self):
        self.engine.pause_flushes()
        self.paused = True

    @rule()
    def resume(self):
        self.engine.resume_flushes()
        self.paused = False

    @rule()
    def drain(self):
        self.engine.drain()  # resumes and empties the queue
        self.paused = False
        assert self.engine.immutable_count == 0

    @rule()
    def flush(self):
        self.engine.flush()
        self.paused = False
        assert self.engine.immutable_count == 0
        assert self.engine.memtable.is_empty

    @precondition(lambda self: not self.paused)
    @rule()
    def crash_and_recover(self):
        recovered = self.engine.simulate_crash_and_recover()
        for key in range(25):
            record = recovered.get(key)
            if key in self.model:
                assert record is not None, f"recovery lost key {key}"
                assert record.value_size == self.model[key]
            else:
                assert record is None, f"recovery phantom key {key}"
        # The crashed process is gone (its workers stopped, nothing more
        # will publish); the run continues on the restarted engine.
        self.engine = recovered

    @rule(start=KEYS, length=st.integers(1, 10))
    def bounded_scan(self, start, length):
        expected = sorted(k for k in self.model if k >= start)[:length]
        result = self.engine.scan(start, length)
        assert [record.key for record in result] == expected
        assert [record.value_size for record in result] == [
            self.model[k] for k in expected
        ]

    @invariant()
    def table_ids_follow_freeze_order(self):
        ids = [table.table_id for table in self.engine.sstables]
        flushed = [i for i in ids if i < 10_000_000]  # compaction id space
        assert flushed == sorted(flushed), f"publish order broke: {ids}"

    @invariant()
    def queue_accounting_consistent(self):
        metrics = self.engine.pipeline_metrics()
        assert metrics.flushes <= metrics.freezes
        # The queue holds exactly the submitted-but-unpublished freezes;
        # reading immutable_count after the snapshot can only see fewer
        # (workers publish concurrently), never more.
        assert metrics.freezes - metrics.flushes >= self.engine.immutable_count

    @invariant()
    def scan_matches_model(self):
        live = {record.key for record in self.engine.scan(0, 100)}
        assert live == set(self.model)


PipelinedEngineModel.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestPipelinedEngineAgainstModel = PipelinedEngineModel.TestCase
