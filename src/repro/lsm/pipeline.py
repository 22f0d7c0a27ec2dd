"""The flush queue: a bounded, order-preserving build/publish pipeline.

:class:`~repro.lsm.engine.LSMEngine` freezes a full memtable onto this
queue instead of flushing it in place; the queue decides *who* builds
the sstable and *when* the writer must wait:

* ``workers >= 1`` — background threads claim frozen memtables in
  freeze order and build them while the writer keeps ingesting; the
  writer waits only while more than ``max_pending`` are unpublished.
* ``workers == 0`` — **inline**: nobody builds in the background, so
  when the bound is exceeded (and on ``drain()``) the producer itself
  builds and publishes the queue head.  ``max_pending=0`` with no
  workers is the classic stop-the-world flush.

Either way a wait is a counted, timed **write stall**, and two rules
make the outcome independent of scheduling (docs/concurrency.md):

1. whatever names the result (the engine's table id) is claimed by the
   producer *before* ``submit``, so names follow submit order;
2. **publication is serialized in submit order**: a worker that
   finishes early parks its result until every earlier item has
   published, and every shared-state mutation lives in the publish
   step.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Iterable, Optional

from ..errors import ConfigError, StorageError


def _interval_union_seconds(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


class PipelineMetrics:
    """A snapshot of one pipeline's ingest/flush overlap accounting."""

    __slots__ = (
        "freezes",
        "flushes",
        "write_stall_count",
        "write_stall_seconds",
        "flush_busy_seconds",
        "ingest_wall_seconds",
        "flush_overlap_seconds",
    )

    def __init__(
        self,
        freezes: int = 0,
        flushes: int = 0,
        write_stall_count: int = 0,
        write_stall_seconds: float = 0.0,
        flush_busy_seconds: float = 0.0,
        ingest_wall_seconds: float = 0.0,
        flush_overlap_seconds: float = 0.0,
    ) -> None:
        self.freezes = freezes
        self.flushes = flushes
        self.write_stall_count = write_stall_count
        self.write_stall_seconds = write_stall_seconds
        self.flush_busy_seconds = flush_busy_seconds
        self.ingest_wall_seconds = ingest_wall_seconds
        self.flush_overlap_seconds = flush_overlap_seconds

    @property
    def flush_overlap_fraction(self) -> float:
        """Share of the ingest wall during which a flush was running.

        1.0 means flushes were fully hidden behind ingest; 0.0 means
        every flush second extended the wall (the serial engine's
        behaviour by construction).
        """
        if self.ingest_wall_seconds <= 0.0:
            return 0.0
        return min(1.0, self.flush_overlap_seconds / self.ingest_wall_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PipelineMetrics(freezes={self.freezes}, flushes={self.flushes}, "
            f"stalls={self.write_stall_count}, "
            f"wall={self.ingest_wall_seconds:.3f}s, "
            f"overlap={self.flush_overlap_fraction:.0%})"
        )


class _Unit:
    """One submitted work item and its (eventual) build result."""

    __slots__ = ("item", "result", "done")

    def __init__(self, item) -> None:
        self.item = item
        self.result = None
        self.done = False


class FlushPipeline:
    """A bounded, order-preserving build/publish pipeline.

    ``submit(item)`` enqueues an item, then stalls (and counts the
    stall) while more than ``max_pending`` items are unpublished.
    ``build(item)`` is the expensive, shared-state-free step: worker
    threads run it concurrently, claiming items in submit order; with
    ``workers=0`` the stalled (or draining) producer runs it itself.
    Results are published by calling ``publish(item, result)``
    **strictly in submit order**, so downstream state advances exactly
    as a serial loop would no matter how builds interleave.  The first
    exception raised on a worker fails the pipeline and re-surfaces
    from ``submit``/``drain``/``close``; an inline build raises straight
    into the producer.

    One producer thread; any number of workers.  ``pause()`` /
    ``resume()`` gate the workers (tests use this to hold items in
    flight deterministically); ``drain()`` resumes and blocks until
    everything submitted has published; ``close()`` stops the workers
    where they are — whatever has not published by then never will.
    """

    def __init__(
        self,
        build: Callable[[object], object],
        publish: Callable[[object, object], None],
        max_pending: int = 2,
        workers: int = 1,
        name: str = "flush",
    ) -> None:
        if max_pending < 0:
            raise ConfigError(f"max_pending must be >= 0, got {max_pending}")
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        self._build = build
        self._publish = publish
        self._max_pending = max_pending
        self.workers = workers
        self._cond = threading.Condition()
        self._units: list[Optional[_Unit]] = []
        self._claim_index = 0
        self._publish_index = 0
        self._closed = False
        self._paused = False
        self._error: Optional[BaseException] = None
        # Raw accounting; metrics() folds it into a PipelineMetrics.
        self._stall_count = 0
        self._stall_seconds = 0.0
        self._build_intervals: list[tuple[float, float]] = []
        self._first_submit: Optional[float] = None
        self._ingest_end: Optional[float] = None
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- producer side --------------------------------------------------
    def submit(self, item) -> None:
        """Enqueue one item, stalling while the pipeline is over its bound."""
        with self._cond:
            self._raise_if_failed()
            if self._closed:
                raise StorageError("cannot submit to a closed pipeline")
            if self._first_submit is None:
                self._first_submit = perf_counter()
            self._units.append(_Unit(item))
            self._cond.notify_all()
            if self._pending > self._max_pending:
                self._stall_count += 1
                stall_start = perf_counter()
                self._wait_until(self._max_pending)
                self._stall_seconds += perf_counter() - stall_start

    def drain(self) -> None:
        """Resume (if paused) and block until every submit has published."""
        with self._cond:
            self._paused = False
            self._ingest_end = perf_counter()
            self._cond.notify_all()
            self._wait_until(0)

    def _wait_until(self, pending: int) -> None:
        """Block (or, inline, work) until at most ``pending`` are unpublished."""
        while self._pending > pending and self._error is None and not self._closed:
            if self.workers:
                self._cond.wait()
            else:
                unit = self._units[self._publish_index]
                unit.result = self._timed_build(unit)
                unit.done = True
                self._publish_done()
        self._raise_if_failed()

    def pause(self) -> None:
        """Stop workers from claiming new items (in-flight builds finish)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def close(self, raise_error: bool = True) -> None:
        """Stop the workers (idempotent) without draining or publishing more."""
        with self._cond:
            self._closed = True
            self._paused = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        if raise_error:
            with self._cond:
                self._raise_if_failed()

    def __enter__(self) -> "FlushPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(raise_error=exc_type is None)

    # -- introspection ---------------------------------------------------
    @property
    def _pending(self) -> int:
        return len(self._units) - self._publish_index

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending

    def metrics(self) -> PipelineMetrics:
        """Current counters plus the overlap computed from build intervals.

        The ingest wall runs from the first ``submit`` to the latest
        ``drain`` call; the overlap is the union of the build intervals
        clipped to that window, so double-counted concurrency (two
        workers busy at once) never inflates the fraction past 1.  An
        inline build runs *on* the producer, so it overlaps nothing.
        """
        with self._cond:
            first = self._first_submit
            end = self._ingest_end
            wall = (end - first) if first is not None and end is not None else 0.0
            overlap = (
                _interval_union_seconds(self._build_intervals, first, end)
                if wall > 0.0 and self.workers
                else 0.0
            )
            return PipelineMetrics(
                freezes=len(self._units),
                flushes=self._publish_index,
                write_stall_count=self._stall_count,
                write_stall_seconds=self._stall_seconds,
                flush_busy_seconds=sum(
                    end - start for start, end in self._build_intervals
                ),
                ingest_wall_seconds=wall,
                flush_overlap_seconds=overlap,
            )

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    # -- build / publish -------------------------------------------------
    def _timed_build(self, unit: _Unit):
        start = perf_counter()
        result = self._build(unit.item)
        self._build_intervals.append((start, perf_counter()))
        return result

    def _publish_done(self) -> None:
        """Publish every consecutive finished unit, in submit order."""
        while self._publish_index < len(self._units):
            head = self._units[self._publish_index]
            if not head.done:
                break
            self._publish(head.item, head.result)
            # Free the payload; the slot only marks order.
            self._units[self._publish_index] = None
            self._publish_index += 1

    def _worker(self) -> None:
        while True:
            with self._cond:
                while (
                    self._paused or self._claim_index >= len(self._units)
                ) and not self._closed and self._error is None:
                    self._cond.wait()
                if self._closed or self._error is not None:
                    return
                unit = self._units[self._claim_index]
                self._claim_index += 1
            try:
                result = self._timed_build(unit)
            except BaseException as exc:  # surface to the producer
                self._fail(exc)
                return
            with self._cond:
                if self._closed or self._error is not None:
                    return
                unit.result = result
                unit.done = True
                try:
                    # This worker may publish results built by others
                    # that finished out of order.
                    self._publish_done()
                except BaseException as exc:
                    self._fail(exc)
                self._cond.notify_all()

    def _fail(self, exc: BaseException) -> None:
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()
