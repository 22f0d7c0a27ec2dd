"""Crash harness: kill the engine on file storage at EVERY sync boundary.

For each hypothesis-generated workload the harness first runs it
uncrashed against a counting filesystem to learn how many destructive
writes (W) and syncs (S) it performs, then replays it W + S more times,
killing the process at the 1st, 2nd, ... Nth write or sync — optionally
tearing the crashing write — reopening the store from the surviving
bytes, and checking every key against a dict oracle over the operations
that *completed* before the crash.  A put/delete only acknowledges after
its WAL record is synced, so the in-flight operation is always the only
one allowed to disappear; anything older that goes missing, or any
phantom newer state, is a durability-ordering bug.

A second sweep crashes *recovery itself* (the double-crash scenario):
after the first injected crash, the reopen runs under a fresh fault
plan, and only the third process generation must converge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    CrashPoint,
    EngineConfig,
    FaultInjectedFileSystem,
    FaultPlan,
    LSMEngine,
    MemoryFileSystem,
)

KEYS = range(8)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=3,
    max_size=8,
)

CONFIG = EngineConfig(memtable_capacity=3)


def _open_plain(fs):
    return LSMEngine.open(fs=fs, config=CONFIG)


def _open_pipelined(fs):
    # Queue bound 1 with capacity 3: the 3-8 op workloads leave a frozen
    # memtable (and its sealed WAL segment) waiting while later writes
    # land, then hit the inline backpressure flush, manifest commit and
    # segment GC with a second segment outstanding.
    return LSMEngine.open(fs=fs, config=CONFIG, max_immutable_memtables=1)


#: File storage x queue bound {0, 1}, flushed inline (no workers) so a
#: fault plan lands on the same operation every run: bound 0 seals,
#: flushes and collects one segment at a time, bound 1 keeps one frozen
#: memtable in flight across writes.
ENGINES = [_open_plain, _open_pipelined]


def run_workload(engine, ops, completed):
    """Apply ops, recording each one the engine acknowledged."""
    counter = 0
    for op, key in ops:
        if op == "put":
            counter += 1
            engine.put(key, value_size=counter)
        elif op == "delete":
            engine.delete(key)
        elif op == "flush":
            engine.flush()
        elif op == "compact" and engine.sstables:
            engine.compact()
        completed.append((op, key))
        counter = max(counter, 0)


def oracle(completed):
    """The dict a correct store must equal after ``completed`` ops."""
    model = {}
    counter = 0
    for op, key in completed:
        if op == "put":
            counter += 1
            model[key] = counter
        elif op == "delete":
            model.pop(key, None)
    return model


def check_against_oracle(engine, completed, context):
    model = oracle(completed)
    for key in KEYS:
        record = engine.get(key)
        if key in model:
            assert record is not None, f"{context}: lost key {key}"
            assert record.value_size == model[key], f"{context}: stale {key}"
        else:
            assert record is None, f"{context}: phantom key {key}"


def count_fault_points(ops, open_engine=_open_plain):
    fs = FaultInjectedFileSystem(MemoryFileSystem())
    engine = open_engine(fs)
    run_workload(engine, ops, [])
    return fs.writes_done, fs.syncs_done


def all_plans(writes, syncs, torn_bytes):
    for n in range(1, writes + 1):
        yield FaultPlan(crash_at_write=n, torn_write_bytes=torn_bytes)
    for n in range(1, syncs + 1):
        yield FaultPlan(crash_at_sync=n)


@pytest.mark.parametrize("open_engine", ENGINES)
@settings(max_examples=5, deadline=None)
@given(ops=ops_strategy, torn_bytes=st.sampled_from([0, 1, 5]))
def test_crash_at_every_fault_point_recovers_completed_ops(
    open_engine, ops, torn_bytes
):
    writes, syncs = count_fault_points(ops, open_engine)
    for plan in all_plans(writes, syncs, torn_bytes):
        context = f"engine={open_engine.__name__} plan={plan}"
        fs = FaultInjectedFileSystem(MemoryFileSystem(), plan)
        completed = []
        try:
            engine = open_engine(fs)
            run_workload(engine, ops, completed)
        except CrashPoint:
            pass
        recovered = open_engine(fs.base)
        check_against_oracle(recovered, completed, context)


@pytest.mark.parametrize("open_engine", ENGINES)
@settings(max_examples=5, deadline=None)
@given(ops=ops_strategy)
def test_double_crash_mid_recovery_still_converges(open_engine, ops):
    """Crash the workload, then crash every point of the recovery run;
    the third generation must still satisfy the oracle."""
    writes, syncs = count_fault_points(ops, open_engine)
    # Crash the workload at its last write (the deepest durable state).
    first_plan = FaultPlan(crash_at_write=writes)
    fs = FaultInjectedFileSystem(MemoryFileSystem(), first_plan)
    completed = []
    try:
        engine = open_engine(fs)
        run_workload(engine, ops, completed)
    except CrashPoint:
        pass
    snapshot = {name: fs.base.read_bytes(name) for name in fs.base.listdir()}

    # Recovery itself performs a handful of writes/syncs (tmp-manifest
    # sweeps, torn-tail repair, mid-replay flushes); crash each of them.
    probe = FaultInjectedFileSystem(_restore(snapshot))
    open_engine(probe)
    for plan in all_plans(probe.writes_done, probe.syncs_done, torn_bytes=1):
        crashed_fs = FaultInjectedFileSystem(_restore(snapshot), plan)
        try:
            open_engine(crashed_fs)
        except CrashPoint:
            pass
        final = open_engine(crashed_fs.base)
        check_against_oracle(final, completed, f"recovery crash {plan}")


def _restore(snapshot):
    fs = MemoryFileSystem()
    for name, data in snapshot.items():
        handle = fs.open_write(name)
        handle.append(data)
        handle.close()
    return fs
