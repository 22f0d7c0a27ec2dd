"""Tests for the YCSB core workload (load + run phases)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ycsb.wordstream as wordstream_module
import repro.ycsb.workload as workload_module
from repro.errors import WorkloadError
from repro.ycsb import CoreWorkload, Operation, OperationType, WorkloadConfig
from repro.ycsb.distributions import available_distributions
from repro.ycsb.operations import CODE_OP_TYPES


class TestConfigValidation:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_rejects_bad_recordcount(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(recordcount=0)

    def test_rejects_negative_operationcount(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(operationcount=-1)

    def test_rejects_negative_proportion(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(update_proportion=-0.5)

    def test_rejects_all_zero_mix(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(update_proportion=0.0, operationcount=10)

    def test_all_zero_mix_ok_with_no_operations(self):
        WorkloadConfig(update_proportion=0.0, operationcount=0)

    @pytest.mark.parametrize("max_scan_length", (0, -3, 2**32, 2**40))
    def test_rejects_max_scan_length_out_of_range(self, max_scan_length):
        """Both generators used to die mid-stream on ``randint(1, 0)``;
        the upper bound keeps every ``getrandbits`` try one 32-bit word."""
        with pytest.raises(WorkloadError, match="max_scan_length"):
            WorkloadConfig(scan_proportion=1.0, max_scan_length=max_scan_length)

    @pytest.mark.parametrize("max_scan_length", (1, 2**32 - 1))
    def test_max_scan_length_bounds_generate(self, max_scan_length):
        config = WorkloadConfig(
            recordcount=5,
            operationcount=40,
            update_proportion=0.0,
            scan_proportion=1.0,
            max_scan_length=max_scan_length,
        )
        lengths = [
            op.scan_length
            for op in CoreWorkload(config).all_operations()
            if op.type is OperationType.SCAN
        ]
        stream = CoreWorkload(config).op_stream_columns(include_read_ops=True)
        assert stream.read_ops.scan_lengths == lengths
        assert all(1 <= length <= max_scan_length for length in lengths)

    def test_insert_update_mix_helper(self):
        config = WorkloadConfig.insert_update_mix(0.25, operationcount=100)
        assert config.update_proportion == 0.25
        assert config.insert_proportion == 0.75
        with pytest.raises(WorkloadError):
            WorkloadConfig.insert_update_mix(1.5)


class TestLoadPhase:
    def test_inserts_recordcount_keys(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=50, operationcount=0))
        ops = list(workload.load_operations())
        assert len(ops) == 50
        assert all(op.type is OperationType.INSERT for op in ops)
        assert [op.key for op in ops] == list(range(50))
        assert workload.inserted_count == 50

    def test_value_size_propagates(self):
        workload = CoreWorkload(
            WorkloadConfig(recordcount=3, operationcount=0, value_size=256)
        )
        assert all(op.value_size == 256 for op in workload.load_operations())


class TestRunPhase:
    def test_requires_load_first(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=10, operationcount=5))
        with pytest.raises(WorkloadError):
            next(workload.run_operations())

    def test_operation_count(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=10, operationcount=123))
        list(workload.load_operations())
        assert len(list(workload.run_operations())) == 123

    def test_pure_update_mix_touches_loaded_keys(self):
        config = WorkloadConfig(
            recordcount=20, operationcount=500, update_proportion=1.0
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert all(op.type is OperationType.UPDATE for op in ops)
        assert all(0 <= op.key < 20 for op in ops)
        assert workload.inserted_count == 20

    def test_pure_insert_mix_appends_fresh_keys(self):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=30,
            update_proportion=0.0,
            insert_proportion=1.0,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert [op.key for op in ops] == list(range(10, 40))
        assert workload.inserted_count == 40

    def test_mixed_proportions_roughly_respected(self):
        config = WorkloadConfig(
            recordcount=100,
            operationcount=10_000,
            update_proportion=0.6,
            insert_proportion=0.4,
            seed=3,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        updates = sum(1 for op in ops if op.type is OperationType.UPDATE)
        assert 5500 <= updates <= 6500

    def test_inserts_grow_latest_window(self):
        """With 'latest', run-phase updates should hit recently inserted keys."""
        config = WorkloadConfig(
            recordcount=100,
            operationcount=4000,
            update_proportion=0.5,
            insert_proportion=0.5,
            distribution="latest",
            seed=1,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        updated = [op.key for op in workload.run_operations() if op.type is OperationType.UPDATE]
        # at least some updates land beyond the originally loaded range
        assert any(key >= 100 for key in updated)

    def test_scan_operations_have_length(self):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=50,
            update_proportion=0.0,
            scan_proportion=1.0,
            max_scan_length=7,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert all(op.type is OperationType.SCAN for op in ops)
        assert all(1 <= op.scan_length <= 7 for op in ops)

    def test_deletes_are_writes(self):
        op = Operation(OperationType.DELETE, 5)
        assert op.is_write
        assert not Operation(OperationType.READ, 5).is_write


class TestDeterminism:
    def test_same_seed_same_ops(self):
        config = WorkloadConfig(recordcount=50, operationcount=500, seed=9)
        first = [
            (op.type, op.key) for op in CoreWorkload(config).all_operations()
        ]
        second = [
            (op.type, op.key) for op in CoreWorkload(config).all_operations()
        ]
        assert first == second

    def test_different_seed_differs(self):
        base = dict(recordcount=50, operationcount=500)
        a = [
            (op.type, op.key)
            for op in CoreWorkload(WorkloadConfig(seed=1, **base)).all_operations()
        ]
        b = [
            (op.type, op.key)
            for op in CoreWorkload(WorkloadConfig(seed=2, **base)).all_operations()
        ]
        assert a != b


GRAY_DISTRIBUTIONS = ("zipfian", "scrambled_zipfian", "latest")
SCALAR_DISTRIBUTIONS = ("uniform", "hotspot", "sequential")

MIX_CONFIGS = {
    "all-update": dict(update_proportion=1.0),
    "writes-only": dict(insert_proportion=0.4, update_proportion=0.6),
    "read-heavy": dict(read_proportion=0.8, update_proportion=0.2),
    "scans": dict(
        read_proportion=0.1,
        scan_proportion=0.3,
        insert_proportion=0.3,
        update_proportion=0.3,
    ),
    "deletes": dict(
        delete_proportion=0.2, insert_proportion=0.4, update_proportion=0.4
    ),
    "all-read": dict(read_proportion=1.0, update_proportion=0.0),
    "all-insert": dict(insert_proportion=1.0, update_proportion=0.0),
    "all-scan": dict(scan_proportion=1.0, update_proportion=0.0),
    "rare-insert": dict(
        insert_proportion=0.02, scan_proportion=0.4, delete_proportion=0.58,
        update_proportion=0.0,
    ),
}


def per_op_stream(workload):
    """The per-op reference for one ``all_operations()`` call."""
    return [*workload.load_operations(), *workload.run_operations()]


def scalar_fold(config):
    """Every column of the stream, folded from the per-op generator
    (``load_operations()`` then ``run_operations()``), and the workload
    that produced them (for its end state)."""
    workload = CoreWorkload(config)
    keynums, tombstones, codes = [], [], []
    reads, scans, lengths = [], [], []
    for op in per_op_stream(workload):
        codes.append(op.type.code)
        if op.type is OperationType.READ:
            reads.append(op.key)
        elif op.type is OperationType.SCAN:
            scans.append(op.key)
            lengths.append(op.scan_length)
        else:
            if op.type is OperationType.DELETE:
                tombstones.append(len(keynums))
            keynums.append(op.key)
    return workload, (keynums, tombstones, bytes(codes)), (reads, scans, lengths)


def end_state(workload):
    """What a generator leaves behind: rng position, key-space size and
    (Gray choosers) the incremental zeta state."""
    zipfian = getattr(workload._chooser, "_zipfian", workload._chooser)
    return (
        workload._rng.getstate(),
        workload.inserted_count,
        getattr(zipfian, "_n", None),
        getattr(zipfian, "_zetan", None),
    )


def assert_stream_equals_fold(config):
    reference, writes, read_ops = scalar_fold(config)
    for include_read_ops in (False, True):
        workload = CoreWorkload(config)
        stream = workload.op_stream_columns(include_read_ops=include_read_ops)
        assert (
            [int(key) for key in stream.write_keynums],
            stream.tombstone_positions,
            stream.op_codes,
        ) == writes
        assert stream.total_operations == len(stream.op_codes)
        assert stream.write_count == len(writes[0])
        if include_read_ops:
            columns = stream.read_ops
            assert (
                columns.read_keynums,
                columns.scan_keynums,
                columns.scan_lengths,
            ) == read_ops
            # Field types downstream code relies on (truth tests, max()).
            assert isinstance(columns.read_keynums, list)
            assert isinstance(columns.scan_lengths, list)
        else:
            assert stream.read_ops is None
        assert isinstance(stream.tombstone_positions, list)
        assert isinstance(stream.op_codes, bytes)
        assert end_state(workload) == end_state(reference)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the kernel's block to 64 words so a few hundred operations
    cross many block boundaries."""
    monkeypatch.setattr(wordstream_module, "BLOCK_WORDS", 64)


class TestOpStreamColumns:
    """The columnar op stream == the scalar operation loop, per mix."""

    @pytest.mark.parametrize("mix", sorted(MIX_CONFIGS))
    @pytest.mark.parametrize(
        "distribution", GRAY_DISTRIBUTIONS + SCALAR_DISTRIBUTIONS
    )
    def test_stream_identical_to_scalar_loop(self, mix, distribution):
        config = WorkloadConfig(
            recordcount=120,
            operationcount=1500,
            distribution=distribution,
            seed=13,
            **MIX_CONFIGS[mix],
        )
        assert_stream_equals_fold(config)
        stream = CoreWorkload(config).op_stream_columns()
        assert stream.total_operations == 120 + 1500
        # The op-type column decodes back through CODE_OP_TYPES: its
        # write rows must agree with the write columns exactly.
        decoded_writes = sum(
            1 for code in stream.op_codes if CODE_OP_TYPES[code].is_write
        )
        assert decoded_writes == stream.write_count

    @pytest.mark.parametrize("mix", sorted(MIX_CONFIGS))
    @pytest.mark.parametrize("distribution", GRAY_DISTRIBUTIONS)
    @pytest.mark.parametrize("recordcount", (1, 2))
    def test_smallest_key_spaces(self, small_blocks, mix, distribution, recordcount):
        """A single-key space draws no key variate until the first
        insert (which may never come); two keys never reach eta."""
        config = WorkloadConfig(
            recordcount=recordcount,
            operationcount=300,
            distribution=distribution,
            seed=5,
            **MIX_CONFIGS[mix],
        )
        assert_stream_equals_fold(config)

    # All-update operations are four words each, so a 64-word block with
    # its 64-word tail holds exactly 32 of them.
    @pytest.mark.parametrize("operationcount", (0, 1, 31, 32, 33, 3 * 32 + 7))
    @pytest.mark.parametrize("mix", ("all-update", "scans", "all-scan"))
    def test_block_boundaries(self, small_blocks, mix, operationcount):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=operationcount,
            distribution="zipfian",
            seed=operationcount,
            **MIX_CONFIGS[mix],
        )
        assert_stream_equals_fold(config)

    @pytest.mark.parametrize("max_scan_length", (1, 2, 127, 128, 129))
    @pytest.mark.parametrize("mix", ("scans", "all-scan", "rare-insert"))
    def test_scan_length_rejection_rates(self, small_blocks, mix, max_scan_length):
        """``randint`` rejects 0 % (127 of 128 values) to ~50 % (1, 2,
        128, 129) of its tries; with 64-word blocks scans end blocks,
        and straddle them, at every alignment."""
        for seed in range(4):
            config = WorkloadConfig(
                recordcount=3,
                operationcount=400,
                distribution="latest",
                max_scan_length=max_scan_length,
                seed=seed,
                **MIX_CONFIGS[mix],
            )
            assert_stream_equals_fold(config)

    def test_operation_longer_than_the_block(self, monkeypatch):
        """A block that completes no operation is re-read with a longer
        tail, never spun on."""
        monkeypatch.setattr(wordstream_module, "BLOCK_WORDS", 1)
        monkeypatch.setattr(wordstream_module, "_TAIL_WORDS", 1)
        config = WorkloadConfig(
            recordcount=4,
            operationcount=60,
            distribution="zipfian",
            max_scan_length=128,
            seed=2,
            **MIX_CONFIGS["scans"],
        )
        assert_stream_equals_fold(config)

    @settings(max_examples=120, deadline=None)
    @given(
        distribution=st.sampled_from(GRAY_DISTRIBUTIONS + SCALAR_DISTRIBUTIONS),
        weights=st.lists(st.sampled_from((0.0, 0.0, 0.05, 0.5, 1.0)), min_size=5, max_size=5)
        .filter(any),
        recordcount=st.integers(1, 40),
        operationcount=st.integers(0, 500),
        max_scan_length=st.sampled_from((1, 2, 3, 100, 128, 1000, 2**31, 2**32 - 1)),
        theta=st.sampled_from((0.5, 0.99)),
        seed=st.integers(0, 2**32),
        block_words=st.sampled_from((16, 64, 1 << 16)),
    )
    def test_any_mix_leaves_the_scalar_fold_state(
        self,
        distribution,
        weights,
        recordcount,
        operationcount,
        max_scan_length,
        theta,
        seed,
        block_words,
    ):
        """Columns, ``rng.getstate()``, ``inserted_count`` and the zeta
        state equal the scalar fold's for any mix, seed and block size."""
        insert, update, read, delete, scan = weights
        config = WorkloadConfig(
            recordcount=recordcount,
            operationcount=operationcount,
            insert_proportion=insert,
            update_proportion=update,
            read_proportion=read,
            delete_proportion=delete,
            scan_proportion=scan,
            distribution=distribution,
            zipfian_theta=theta,
            max_scan_length=max_scan_length,
            seed=seed,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wordstream_module, "BLOCK_WORDS", block_words)
            assert_stream_equals_fold(config)

    @pytest.mark.parametrize(
        "distribution", GRAY_DISTRIBUTIONS + SCALAR_DISTRIBUTIONS
    )
    def test_kernel_selected_by_chooser(self, monkeypatch, distribution):
        """No silent fallback either way: the Gray choosers always take
        the kernel, and nothing else ever does."""
        calls = []
        kernel = workload_module._gray_op_columns

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(workload_module, "_gray_op_columns", spy)
        config = WorkloadConfig(
            recordcount=10, operationcount=50, distribution=distribution,
            **MIX_CONFIGS["scans"],
        )
        CoreWorkload(config).op_stream_columns(include_read_ops=True)
        assert len(calls) == (1 if distribution in GRAY_DISTRIBUTIONS else 0)

    @pytest.mark.parametrize("mix", sorted(MIX_CONFIGS))
    @pytest.mark.parametrize("distribution", GRAY_DISTRIBUTIONS + ("uniform",))
    @pytest.mark.parametrize("recordcount", (1, 60))
    def test_scalar_loop_alone_carries_every_case(
        self, monkeypatch, mix, distribution, recordcount
    ):
        """The Gray kernel's oracle carries the Gray choosers by itself."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the scalar loop reached the kernel")

        monkeypatch.setattr(workload_module, "_gray_op_columns", unreachable)
        config = WorkloadConfig(
            recordcount=recordcount,
            operationcount=400,
            distribution=distribution,
            max_scan_length=129,
            seed=21,
            **MIX_CONFIGS[mix],
        )
        reference, writes, read_ops = scalar_fold(config)
        for include_read_ops in (False, True):
            workload = CoreWorkload(config)
            keynums, tombstones, codes, reads, inserted = (
                workload._scalar_op_columns(include_read_ops)
            )
            assert isinstance(keynums, list)
            assert (keynums, tombstones, codes) == writes
            assert reads == (read_ops if include_read_ops else ([], [], []))
            rng_state, _, *zeta = end_state(workload)
            assert (rng_state, inserted, *zeta) == end_state(reference)


class TestAllOperations:
    """``all_operations()`` assembles its ``Operation``s from the columns;
    the per-op generator is the reference for the stream and the state
    it leaves."""

    @pytest.mark.parametrize("recordcount", (1, 60))
    @pytest.mark.parametrize("mix", sorted(MIX_CONFIGS))
    @pytest.mark.parametrize("distribution", available_distributions())
    def test_equals_the_per_op_stream_twice(self, distribution, mix, recordcount):
        config = WorkloadConfig(
            recordcount=recordcount,
            operationcount=150,
            distribution=distribution,
            max_scan_length=129,
            value_size=64,
            seed=23,
            **MIX_CONFIGS[mix],
        )
        workload, reference = CoreWorkload(config), CoreWorkload(config)
        for _ in range(2):
            operations = list(workload.all_operations())
            expected = per_op_stream(reference)
            assert operations == expected
            assert [type(op.key) for op in operations] == [int] * len(expected)
            assert end_state(workload) == end_state(reference)

    @pytest.mark.parametrize("distribution", available_distributions())
    def test_no_run_operations(self, distribution):
        config = WorkloadConfig(
            recordcount=5, operationcount=0, distribution=distribution, seed=4
        )
        workload, reference = CoreWorkload(config), CoreWorkload(config)
        assert list(workload.all_operations()) == per_op_stream(reference)
        assert end_state(workload) == end_state(reference)

    @pytest.mark.parametrize("distribution", ("zipfian", "uniform"))
    def test_stream_longer_than_one_slice(self, monkeypatch, distribution):
        """Slices cut scans and load/run boundaries anywhere; the whole
        stream is drawn at the first item, not slice by slice."""
        monkeypatch.setattr(workload_module, "_SLICE_OPS", 7)
        config = WorkloadConfig(
            recordcount=10,
            operationcount=300,
            distribution=distribution,
            seed=29,
            **MIX_CONFIGS["scans"],
        )
        workload, reference = CoreWorkload(config), CoreWorkload(config)
        expected = per_op_stream(reference)
        operations = workload.all_operations()
        first = next(operations)
        assert end_state(workload) == end_state(reference)
        assert [first, *operations] == expected

    @pytest.mark.parametrize("distribution", available_distributions())
    def test_kernel_called_once_per_stream(self, monkeypatch, distribution):
        calls = []
        kernel = workload_module._gray_op_columns

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(workload_module, "_gray_op_columns", spy)
        config = WorkloadConfig(
            recordcount=10,
            operationcount=50,
            distribution=distribution,
            **MIX_CONFIGS["scans"],
        )
        workload = CoreWorkload(config)
        for streams in (1, 2):
            list(workload.all_operations())
            assert len(calls) == (streams if distribution in GRAY_DISTRIBUTIONS else 0)


class TestSlottedOperation:
    def test_no_instance_dict(self):
        op = Operation(OperationType.UPDATE, 3, value_size=100)
        assert not hasattr(op, "__dict__")
        assert Operation.__slots__ == ("type", "key", "value_size", "scan_length")

    def test_frozen(self):
        op = Operation(OperationType.SCAN, 3, scan_length=9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.key = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.scan_length = None

    def test_equality_and_hash_by_fields(self):
        op = Operation(OperationType.INSERT, 7, value_size=100)
        assert op == Operation(OperationType.INSERT, 7, 100, None)
        assert hash(op) == hash((OperationType.INSERT, 7, 100, None))
        assert op != Operation(OperationType.UPDATE, 7, value_size=100)
        assert len({op, Operation(OperationType.INSERT, 7, value_size=100)}) == 1

    def test_replace(self):
        op = Operation(OperationType.UPDATE, 5, value_size=100)
        moved = dataclasses.replace(op, key=6)
        assert moved == Operation(OperationType.UPDATE, 6, value_size=100)
        assert op.key == 5

    @pytest.mark.parametrize(
        "op",
        (
            Operation(OperationType.DELETE, 2**70),
            Operation(OperationType.SCAN, "user1", scan_length=12),
        ),
    )
    def test_pickle_round_trip(self, op):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(op, protocol)) == op
