"""Crash harness: kill the engine on file storage at EVERY sync boundary.

For each hypothesis-generated workload the harness first runs it
uncrashed against a counting filesystem to learn how many destructive
writes (W) and syncs (S) it performs, then replays it W + S more times,
killing the process at the 1st, 2nd, ... Nth write or sync — optionally
tearing the crashing write — reopening the store from the surviving
bytes, and checking every key against a dict oracle over the operations
that *completed* before the crash.  With ``wal_sync_every=1`` a
put/delete only acknowledges after its WAL record is synced, so the
in-flight operation is always the only one allowed to disappear.  With
group commit (``wal_sync_every=3``) up to two of the newest
acknowledged writes may be unsynced and lost too: the store must equal
the oracle after *some prefix* of the completed writes that drops at
most ``sync_every - 1`` of them.  Anything older that goes missing, any
phantom newer state, or any state that is no prefix at all is a
durability-ordering bug.

A second sweep crashes *recovery itself* (the double-crash scenario):
after the first injected crash, the reopen runs under a fresh fault
plan, and only the third process generation must converge.
"""

import pytest
from hypothesis import example, given, settings
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

#: Sync every append, and group commit: with 3 the 3-8 op workloads
#: crash with zero, one or two acknowledged writes still unsynced.
SYNC_EVERY = [1, 3]


def open_engine(fs, sync_every):
    return LSMEngine.open(fs=fs, config=CONFIG, wal_sync_every=sync_every)


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


def check_against_oracle(engine, completed, context, max_lost=0):
    """The store equals the oracle after all ``completed`` writes but at
    most ``max_lost`` of the newest: a prefix, never anything else."""
    view = {}
    for key in KEYS:
        record = engine.get(key)
        if record is not None:
            view[key] = record.value_size
    writes = [(op, key) for op, key in completed if op in ("put", "delete")]
    kept = range(len(writes), max(0, len(writes) - max_lost) - 1, -1)
    prefixes = {count: oracle(writes[:count]) for count in kept}
    assert view in prefixes.values(), (
        f"{context}: store {view} equals the oracle after none of "
        f"{sorted(prefixes)} of {len(writes)} acknowledged writes "
        f"(all of them: {prefixes[len(writes)]})"
    )


def count_fault_points(ops, sync_every):
    fs = FaultInjectedFileSystem(MemoryFileSystem())
    engine = open_engine(fs, sync_every)
    run_workload(engine, ops, [])
    return fs.writes_done, fs.syncs_done


def all_plans(writes, syncs, torn_bytes):
    for n in range(1, writes + 1):
        yield FaultPlan(crash_at_write=n, torn_write_bytes=torn_bytes)
    for n in range(1, syncs + 1):
        yield FaultPlan(crash_at_sync=n)


@pytest.mark.parametrize("sync_every", SYNC_EVERY)
@settings(max_examples=5, deadline=None)
@given(ops=ops_strategy, torn_bytes=st.sampled_from([0, 1, 5]))
# Writes only, one past a full memtable: the flush's first sync comes
# after ``sync_every`` appends at the latest, so a log that group-commits
# late loses more than ``sync_every - 1`` writes when that sync dies.
@example(ops=[("put", key) for key in range(4)], torn_bytes=0)
def test_crash_at_every_fault_point_recovers_completed_ops(
    sync_every, ops, torn_bytes
):
    writes, syncs = count_fault_points(ops, sync_every)
    for plan in all_plans(writes, syncs, torn_bytes):
        context = f"sync_every={sync_every} plan={plan}"
        fs = FaultInjectedFileSystem(MemoryFileSystem(), plan)
        completed = []
        try:
            engine = open_engine(fs, sync_every)
            run_workload(engine, ops, completed)
        except CrashPoint:
            pass
        recovered = open_engine(fs.base, sync_every)
        check_against_oracle(recovered, completed, context, sync_every - 1)


@pytest.mark.parametrize("sync_every", SYNC_EVERY)
@settings(max_examples=5, deadline=None)
@given(ops=ops_strategy)
def test_double_crash_mid_recovery_still_converges(sync_every, ops):
    """Crash the workload, then crash every point of the recovery run;
    the third generation must still satisfy the oracle."""
    writes, syncs = count_fault_points(ops, sync_every)
    # Crash the workload at its last write (the deepest durable state).
    first_plan = FaultPlan(crash_at_write=writes)
    fs = FaultInjectedFileSystem(MemoryFileSystem(), first_plan)
    completed = []
    try:
        engine = open_engine(fs, sync_every)
        run_workload(engine, ops, completed)
    except CrashPoint:
        pass
    snapshot = {name: fs.base.read_bytes(name) for name in fs.base.listdir()}

    # Recovery itself performs a handful of writes/syncs (tmp-manifest
    # sweeps, torn-tail repair, mid-replay flushes); crash each of them.
    probe = FaultInjectedFileSystem(_restore(snapshot))
    open_engine(probe, sync_every)
    for plan in all_plans(probe.writes_done, probe.syncs_done, torn_bytes=1):
        crashed_fs = FaultInjectedFileSystem(_restore(snapshot), plan)
        try:
            open_engine(crashed_fs, sync_every)
        except CrashPoint:
            pass
        final = open_engine(crashed_fs.base, sync_every)
        check_against_oracle(
            final, completed, f"recovery crash {plan}", sync_every - 1
        )


def _restore(snapshot):
    fs = MemoryFileSystem()
    for name, data in snapshot.items():
        handle = fs.open_write(name)
        handle.append(data)
        handle.close()
    return fs
