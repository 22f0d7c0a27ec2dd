"""The YCSB core workload: load + run phases (paper §5.1).

:class:`WorkloadConfig` mirrors the YCSB properties the paper names:
``recordcount`` (load-phase inserts), ``operationcount`` (run-phase
operations), the operation mix proportions and the key-access
distribution.  :class:`CoreWorkload` turns a config into the two
operation streams:

* :meth:`CoreWorkload.load_operations` — inserts keys ``0..recordcount-1``
  into the empty database.
* :meth:`CoreWorkload.run_operations` — ``operationcount`` CRUD
  operations; reads/updates/deletes pick existing keys via the
  configured distribution, inserts append fresh keys (growing the key
  space seen by the choosers, exactly as YCSB's transaction phase does).

Everything is driven by one seeded :mod:`random.Random`, so a config is
a complete, reproducible description of a workload.

Those two generators are the per-op reference.  The streams the engine
consumes come from :meth:`CoreWorkload.all_operations`, which draws the
whole load + run stream as columns at its first item
(:meth:`CoreWorkload.op_stream_columns`, the word-stream kernel for the
Gray-sampling choosers) and builds its ``Operation`` objects from them
one slice at a time: the same operations and the same rng,
``inserted_count`` and zeta state afterwards, but that state jumps to the
stream's end at the first item.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from .distributions import DEFAULT_ZIPFIAN_THETA, KeyChooser, make_chooser
from .operations import CODE_OP_TYPES, OP_TYPE_CODES, Operation, OperationType
from .wordstream import gray_op_columns as _gray_op_columns

#: ``getrandbits(k)`` is one Mersenne-Twister word up to k == 32, which
#: makes "one word per scan-length try" an invariant of every stream.
_MAX_SCAN_LENGTH_LIMIT = 2**32

#: Operations built per slice of the columns by ``all_operations``.
_SLICE_OPS = 1 << 16

_READ_CODE = OP_TYPE_CODES[OperationType.READ]
_SCAN_CODE = OP_TYPE_CODES[OperationType.SCAN]
#: Op-type code -> OperationType, as a gather table.
_TYPE_OF_CODE = np.array(CODE_OP_TYPES, dtype=object)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a YCSB core workload.

    Proportions need not sum to one; they are normalized.  The paper's
    experiments use insert/update mixes only (reads and deletes do not
    modify sstables and are ignored by the simulator), but the full mix
    is supported for driving the LSM engine.
    """

    recordcount: int = 1000
    operationcount: int = 10_000
    insert_proportion: float = 0.0
    update_proportion: float = 1.0
    read_proportion: float = 0.0
    delete_proportion: float = 0.0
    scan_proportion: float = 0.0
    distribution: str = "latest"
    zipfian_theta: float = DEFAULT_ZIPFIAN_THETA
    value_size: int = 100
    max_scan_length: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.recordcount < 1:
            raise WorkloadError("recordcount must be at least 1")
        if self.operationcount < 0:
            raise WorkloadError("operationcount must be non-negative")
        if self.value_size < 0:
            raise WorkloadError("value_size must be non-negative")
        if not 1 <= self.max_scan_length < _MAX_SCAN_LENGTH_LIMIT:
            raise WorkloadError(
                f"max_scan_length must be in [1, 2**32), got {self.max_scan_length}"
            )
        proportions = self._proportions()
        if any(p < 0 for p in proportions.values()):
            raise WorkloadError("operation proportions must be non-negative")
        if self.operationcount > 0 and sum(proportions.values()) <= 0:
            raise WorkloadError("at least one operation proportion must be positive")

    def _proportions(self) -> dict[OperationType, float]:
        return {
            OperationType.INSERT: self.insert_proportion,
            OperationType.UPDATE: self.update_proportion,
            OperationType.READ: self.read_proportion,
            OperationType.DELETE: self.delete_proportion,
            OperationType.SCAN: self.scan_proportion,
        }

    @classmethod
    def insert_update_mix(
        cls,
        update_fraction: float,
        recordcount: int = 1000,
        operationcount: int = 100_000,
        distribution: str = "latest",
        seed: int = 0,
        **kwargs,
    ) -> "WorkloadConfig":
        """The paper's §5.2 spectrum: insert-heavy (0.0) to update-heavy (1.0)."""
        if not 0.0 <= update_fraction <= 1.0:
            raise WorkloadError("update_fraction must be in [0, 1]")
        return cls(
            recordcount=recordcount,
            operationcount=operationcount,
            insert_proportion=1.0 - update_fraction,
            update_proportion=update_fraction,
            read_proportion=0.0,
            distribution=distribution,
            seed=seed,
            **kwargs,
        )


@dataclass
class _DiscreteChooser:
    """Weighted choice over operation types (YCSB's DiscreteGenerator)."""

    choices: list[tuple[OperationType, float]] = field(default_factory=list)
    total: float = 0.0

    @classmethod
    def from_config(cls, config: WorkloadConfig) -> "_DiscreteChooser":
        pairs = [
            (op, weight) for op, weight in config._proportions().items() if weight > 0
        ]
        return cls(choices=pairs, total=sum(weight for _, weight in pairs))

    @cached_property
    def cuts(self) -> tuple[tuple[float, OperationType], ...]:
        """Cumulative thresholds, accumulated sequentially.

        The single source of truth for the point -> type mapping: both
        :meth:`next` and the workload's columnar write stream classify
        against these cuts, so the two paths cannot drift apart.
        """
        accumulated = 0.0
        cuts = []
        for op, weight in self.choices:
            accumulated += weight
            cuts.append((accumulated, op))
        return tuple(cuts)

    def pick(self, point: float) -> OperationType:
        for cut, op in self.cuts:
            if point < cut:
                return op
        # Float edge: point rounded up to the total; keep the last type.
        return self.choices[-1][0]

    def next(self, rng: random.Random) -> OperationType:
        return self.pick(rng.random() * self.total)


class CoreWorkload:
    """Generates the load and run operation streams for a config."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._chooser: KeyChooser = make_chooser(
            config.distribution, config.zipfian_theta
        )
        self._op_chooser = _DiscreteChooser.from_config(config)
        self._inserted = 0

    # ------------------------------------------------------------------
    @property
    def inserted_count(self) -> int:
        """Keys inserted so far (load + run inserts)."""
        return self._inserted

    # ------------------------------------------------------------------
    def load_operations(self) -> Iterator[Operation]:
        """The load phase: insert ``recordcount`` fresh keys."""
        for keynum in range(self.config.recordcount):
            self._inserted += 1
            yield Operation(
                OperationType.INSERT, keynum, value_size=self.config.value_size
            )

    def run_operations(self) -> Iterator[Operation]:
        """The run phase: ``operationcount`` CRUD operations."""
        if self._inserted == 0:
            raise WorkloadError("run phase requires a load phase first")
        rng = self._rng
        config = self.config
        for _ in range(config.operationcount):
            op_type = self._op_chooser.next(rng)
            if op_type is OperationType.INSERT:
                keynum = self._inserted
                self._inserted += 1
            else:
                keynum = self._chooser.next(rng, self._inserted)
            if op_type is OperationType.SCAN:
                yield Operation(
                    op_type,
                    keynum,
                    scan_length=rng.randint(1, config.max_scan_length),
                )
            else:
                yield Operation(op_type, keynum, value_size=config.value_size)

    def all_operations(self) -> Iterator[Operation]:
        """Load phase followed by run phase, assembled from the columns.

        The first item draws the whole stream through
        :meth:`op_stream_columns` (the Gray kernel for zipfian, scrambled
        zipfian and latest, :meth:`_scalar_op_columns` for the rest), so
        the rng, :attr:`inserted_count` and the chooser's zeta state jump
        to the stream's end then, not op by op.  The operations, and that
        end state, equal :meth:`load_operations` followed by
        :meth:`run_operations`, the per-op reference.  A streaming caller
        holds the columns plus one slice of ``_SLICE_OPS`` operations.
        """
        value_size = self.config.value_size
        stream = self.op_stream_columns(include_read_ops=True)
        reads = stream.read_ops
        codes = np.frombuffer(stream.op_codes, dtype=np.uint8)
        is_read = codes == _READ_CODE
        is_scan = codes == _SCAN_CODE
        keys = np.empty(len(codes), dtype=np.int64)
        keys[is_read] = reads.read_keynums
        keys[is_scan] = reads.scan_keynums
        keys[~(is_read | is_scan)] = stream.write_keynums
        scan_lengths = iter(reads.scan_lengths)
        # The key lists now live in ``keys``; free them before the
        # operations are built.
        del stream, reads, is_read, is_scan
        for start in range(0, len(codes), _SLICE_OPS):
            window = slice(start, start + _SLICE_OPS)
            kinds = codes[window]
            at_scan = np.flatnonzero(kinds == _SCAN_CODE)
            sizes = np.full(len(kinds), value_size, dtype=object)
            sizes[at_scan] = 0
            lengths = np.full(len(kinds), None, dtype=object)
            lengths[at_scan] = list(islice(scan_lengths, len(at_scan)))
            yield from map(
                Operation,
                _TYPE_OF_CODE[kinds].tolist(),
                keys[window].tolist(),
                sizes.tolist(),
                lengths.tolist(),
            )

    # ------------------------------------------------------------------
    # Columnar op stream (the simulator's batched data plane)
    # ------------------------------------------------------------------
    def op_stream_columns(
        self, include_read_ops: bool = False
    ) -> "OpStreamColumns":
        """The whole load + run stream as flat columns.

        Consumes the workload rng **exactly** like the per-op generators
        (:meth:`load_operations`, then :meth:`run_operations`): one op-type
        draw per run operation, then the chooser's draws for
        non-inserts, then a scan-length draw for scans — so the columns,
        ``rng.getstate()``, :attr:`inserted_count` and the chooser's zeta
        state afterwards all equal that fold's.
        By default read and scan operations consume their draws and are
        dropped before the memtable ("we ignore both of them in our
        simulation", paper §5.1); their types still land in the op-type
        column.  With ``include_read_ops`` the same draws are kept as
        :class:`ReadOpColumns` for the serving phase.

        The Gray-sampling choosers (those with a ``decode_batch``:
        zipfian, scrambled zipfian, latest) are parsed out of the
        Mersenne-Twister word stream by
        :func:`repro.ycsb.wordstream.gray_op_columns`.  Rejection-sampled
        choosers (uniform, hotspot) draw a data-dependent number of words
        per key and the sequential one draws none, so
        :meth:`_scalar_op_columns` is their only generator.
        """
        if hasattr(self._chooser, "decode_batch"):
            columns = _gray_op_columns(
                self._rng,
                self._chooser,
                self._op_chooser,
                self.config,
                self._inserted,
                include_read_ops,
            )
        else:
            columns = self._scalar_op_columns(include_read_ops)
        keynums, tombstone_positions, codes, read_ops, self._inserted = columns
        return OpStreamColumns(
            write_keynums=keynums,
            tombstone_positions=tombstone_positions,
            op_codes=codes,
            total_operations=len(codes),
            read_ops=ReadOpColumns(*read_ops) if include_read_ops else None,
        )

    def _scalar_op_columns(self, include_read_ops: bool):
        """The per-op generators folded into columns one operation per
        iteration, minus the ``Operation`` objects: the generator for
        choosers without a ``decode_batch`` and the Gray kernel's oracle.

        Classifies against ``_DiscreteChooser``'s own cuts (the for/else
        inlines ``pick()``, last-choice fallback for points that round
        up to the total included).
        """
        config = self.config
        n_load = config.recordcount
        keynums: list[int] = list(range(n_load))
        inserted = self._inserted + n_load
        cuts = self._op_chooser.cuts
        last_type = self._op_chooser.choices[-1][0]
        total = self._op_chooser.total
        rng = self._rng
        rnd = rng.random
        randint = rng.randint
        next_key = self._chooser.next
        max_scan = config.max_scan_length
        insert_type = OperationType.INSERT
        read_type = OperationType.READ
        scan_type = OperationType.SCAN
        delete_type = OperationType.DELETE
        tombstone_positions: list[int] = []
        read_keynums: list[int] = []
        scan_keynums: list[int] = []
        scan_lengths: list[int] = []
        append = keynums.append
        code_of = OP_TYPE_CODES
        op_codes = bytearray([code_of[insert_type]]) * n_load
        add_code = op_codes.append
        for _ in range(config.operationcount):
            point = rnd() * total
            for cut, op_type in cuts:
                if point < cut:
                    break
            else:  # pragma: no cover - float edge, matches pick()
                op_type = last_type
            add_code(code_of[op_type])
            if op_type is insert_type:
                append(inserted)
                inserted += 1
                continue
            keynum = next_key(rng, inserted)
            if op_type is scan_type:
                length = randint(1, max_scan)
                if include_read_ops:
                    scan_keynums.append(keynum)
                    scan_lengths.append(length)
            elif op_type is read_type:
                if include_read_ops:
                    read_keynums.append(keynum)
            else:
                if op_type is delete_type:
                    tombstone_positions.append(len(keynums))
                append(keynum)
        return (
            keynums,
            tombstone_positions,
            bytes(op_codes),
            (read_keynums, scan_keynums, scan_lengths),
            inserted,
        )


@dataclass(frozen=True)
class ReadOpColumns:
    """The READ/SCAN operations of one stream in columnar form.

    ``read_keynums`` lists the point-lookup keys in stream order;
    ``scan_keynums[i]``/``scan_lengths[i]`` describe the ``i``-th range
    scan.  Collected by ``op_stream_columns(include_read_ops=True)`` and
    replayed by the simulator's serving phase against a policy's final
    sstable set.
    """

    read_keynums: list[int]
    scan_keynums: list[int]
    scan_lengths: list[int]

    @property
    def read_count(self) -> int:
        return len(self.read_keynums)

    @property
    def scan_count(self) -> int:
        return len(self.scan_keynums)

    @property
    def has_ops(self) -> bool:
        return bool(self.read_keynums or self.scan_keynums)


@dataclass(frozen=True)
class OpStreamColumns:
    """One workload's full operation stream in columnar form.

    ``write_keynums[i]`` is the key of the ``i``-th *write* (seqno
    ``i + 1``); ``tombstone_positions`` indexes into ``write_keynums``;
    ``op_codes`` holds one :data:`~repro.ycsb.operations.OP_TYPE_CODES`
    byte per operation of the whole stream (load-phase inserts first),
    and ``total_operations == len(op_codes)``.  Reads and scans appear
    in ``op_codes`` but contribute nothing to the write columns; their
    keys are kept in ``read_ops`` only when collection was requested.
    """

    write_keynums: Sequence[int]
    tombstone_positions: list[int]
    op_codes: bytes
    total_operations: int
    read_ops: Optional[ReadOpColumns] = None

    @property
    def write_count(self) -> int:
        return len(self.write_keynums)
