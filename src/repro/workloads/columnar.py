"""Columnar ACT traces: the array-backed twin of :mod:`.trace`.

The iterator world (:class:`~repro.workloads.trace.ActEvent` streams)
is the package's lingua franca, but a Python object per ACT is exactly
what makes full-tREFW runs minutes-long.  This module keeps the same
*semantics* in a columnar layout -- one :class:`TraceArray` holds three
parallel numpy arrays (``time_ns``/``bank``/``row``) -- and provides
vectorized versions of the :mod:`.trace` helpers:

* :meth:`TraceArray.from_events` / :meth:`TraceArray.__iter__` convert
  to and from the iterator world losslessly;
* :func:`pace_array` is :func:`~repro.workloads.trace.pace`;
* :func:`merge_arrays` is :func:`~repro.workloads.trace.merge_streams`;
* :func:`collect_stats_array` is
  :func:`~repro.workloads.trace.collect_stats`.

**Equivalence is bit-exact, not approximate.**  The iterator helpers
accumulate timestamps with sequential float64 additions (``time +=
interval``), so the vectorized versions reproduce the *same sequence
of floating-point operations*: running sums use ``np.cumsum`` seeded
with the live accumulator value (numpy's accumulate is sequential
left-to-right, unlike ``np.sum``'s pairwise reduction), and the tRFC
blackout push of :func:`pace` is applied with the identical scalar
expression at each affected element.  The tests in
``tests/test_columnar.py`` pin this down element-for-element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..dram.timing import DDR4_2400, DramTimings
from .trace import ActEvent, TraceStats

__all__ = [
    "TraceArray",
    "iter_chunk_arrays",
    "pace_array",
    "merge_arrays",
    "collect_stats_array",
]


@dataclass
class TraceArray:
    """A time-sorted ACT trace as three parallel numpy arrays.

    Attributes:
        time_ns: float64 activation timestamps (nondecreasing).
        bank: int64 flat bank indices.
        row: int64 row addresses.
    """

    time_ns: np.ndarray
    bank: np.ndarray
    row: np.ndarray

    def __post_init__(self) -> None:
        self.time_ns = np.asarray(self.time_ns, dtype=np.float64)
        self.bank = np.asarray(self.bank, dtype=np.int64)
        self.row = np.asarray(self.row, dtype=np.int64)
        if not (len(self.time_ns) == len(self.bank) == len(self.row)):
            raise ValueError(
                f"column lengths differ: {len(self.time_ns)} times, "
                f"{len(self.bank)} banks, {len(self.row)} rows"
            )

    # ------------------------------------------------------------------
    # Conversions to/from the iterator world
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[ActEvent]) -> "TraceArray":
        """Materialize an event iterable into columns (consumes it)."""
        if isinstance(events, cls):
            return events
        times: list[float] = []
        banks: list[int] = []
        rows: list[int] = []
        for event in events:
            times.append(event.time_ns)
            banks.append(event.bank)
            rows.append(event.row)
        return cls(
            time_ns=np.array(times, dtype=np.float64),
            bank=np.array(banks, dtype=np.int64),
            row=np.array(rows, dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "TraceArray":
        return cls(
            time_ns=np.empty(0, dtype=np.float64),
            bank=np.empty(0, dtype=np.int64),
            row=np.empty(0, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.time_ns)

    def __iter__(self) -> Iterator[ActEvent]:
        """Yield native :class:`ActEvent` objects (lossless round-trip)."""
        for t, b, r in zip(self.time_ns, self.bank, self.row):
            yield ActEvent(float(t), int(b), int(r))

    def to_events(self) -> list[ActEvent]:
        """The whole trace as a list of :class:`ActEvent`."""
        return list(self)

    # ------------------------------------------------------------------
    # Chunked access
    # ------------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "TraceArray":
        """Zero-copy view of events ``[start, stop)``."""
        return TraceArray(
            time_ns=self.time_ns[start:stop],
            bank=self.bank[start:stop],
            row=self.row[start:stop],
        )

    def chunks(self, size: int) -> Iterator["TraceArray"]:
        """Yield consecutive views of at most ``size`` events."""
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        for start in range(0, len(self), size):
            yield self.slice(start, start + size)

    def bank_runs(self) -> Iterator[tuple[int, int, int]]:
        """Yield maximal same-bank runs as ``(start, stop, bank)``.

        Processing runs in order preserves the global event order
        per bank *and* across banks, which is what lets the fast-path
        controller dispatch whole runs while reproducing the reference
        engine's directive order exactly.
        """
        n = len(self)
        if n == 0:
            return
        boundaries = np.flatnonzero(np.diff(self.bank)) + 1
        start = 0
        for stop in boundaries:
            yield int(start), int(stop), int(self.bank[start])
            start = int(stop)
        yield int(start), n, int(self.bank[start])

    def bank_partition(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(bank, indices)`` with the global indices of every
        event on that bank, in ascending (= time) order.

        Unlike :meth:`bank_runs` -- which yields maximal *contiguous*
        same-bank runs and therefore degenerates to length-1 runs on a
        round-robin interleave -- this partitions the whole trace, so a
        consumer that treats banks as independent lanes (the fast-path
        controller does, between blocking events) gets each bank's full
        event sequence in one slab regardless of interleaving.  The
        stable argsort keeps each lane's indices strictly increasing,
        which is what lets per-lane outputs be merged back into exact
        global order.
        """
        n = len(self)
        if n == 0:
            return
        order = np.argsort(self.bank, kind="stable")
        grouped = self.bank[order]
        boundaries = np.flatnonzero(np.diff(grouped)) + 1
        for lane in np.split(order, boundaries):
            yield int(self.bank[lane[0]]), lane

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def is_time_sorted(self) -> bool:
        if len(self) < 2:
            return True
        return bool(np.all(np.diff(self.time_ns) >= 0.0))


def iter_chunk_arrays(
    events: "TraceArray | Iterable[ActEvent]", chunk_events: int
) -> Iterator[TraceArray]:
    """Yield consecutive :class:`TraceArray` chunks of at most
    ``chunk_events`` events.

    The streaming entry point of the fast path's chunked execution
    mode: a :class:`TraceArray` input yields zero-copy views (no extra
    memory at all), while *any other* event iterable -- including a
    lazy generator that never materializes the full trace -- is
    buffered one chunk at a time, so peak memory is bounded by the
    chunk size regardless of trace length.  Chunk boundaries carry no
    semantic weight: consumers (``FastMemoryController.run``) keep all
    kernel/bank state across chunks, so a chunked run is bit-identical
    to an unchunked one.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    if isinstance(events, TraceArray):
        yield from events.chunks(chunk_events)
        return
    times: list[float] = []
    banks: list[int] = []
    rows: list[int] = []
    for event in events:
        times.append(event.time_ns)
        banks.append(event.bank)
        rows.append(event.row)
        if len(times) == chunk_events:
            yield TraceArray(
                time_ns=np.array(times, dtype=np.float64),
                bank=np.array(banks, dtype=np.int64),
                row=np.array(rows, dtype=np.int64),
            )
            times, banks, rows = [], [], []
    if times:
        yield TraceArray(
            time_ns=np.array(times, dtype=np.float64),
            bank=np.array(banks, dtype=np.int64),
            row=np.array(rows, dtype=np.int64),
        )


def _sequential_cumsum(base: float, increments: np.ndarray) -> np.ndarray:
    """Running sum ``((base + inc0) + inc1) + ...`` with scalar-loop
    rounding: numpy's accumulate is sequential left-to-right, so seeding
    it with ``base`` as element zero reproduces the exact partial sums a
    ``time += interval`` loop would produce."""
    seeded = np.empty(len(increments) + 1, dtype=np.float64)
    seeded[0] = base
    seeded[1:] = increments
    return np.cumsum(seeded)[1:]


def pace_array(
    rows: Sequence[int] | np.ndarray,
    interval_ns: float,
    bank: int = 0,
    start_ns: float = 0.0,
    timings: DramTimings = DDR4_2400,
    honor_refresh_gaps: bool = True,
) -> TraceArray:
    """Vectorized :func:`~repro.workloads.trace.pace` (bit-identical).

    The iterator version advances a scalar accumulator and, when an ACT
    would land inside the tRFC blackout after a tREFI boundary, pushes
    it past the blackout (``time += trfc - time % trefi``).  Here the
    accumulator runs as a seeded ``cumsum`` segment; the first element
    flagged inside a blackout is pushed with the identical scalar
    expression and becomes the seed of the next segment, so every
    emitted timestamp matches the iterator's float64 value exactly.
    """
    if interval_ns < timings.trc:
        raise ValueError(
            f"interval {interval_ns}ns violates tRC={timings.trc}ns"
        )
    row_array = np.asarray(rows, dtype=np.int64)
    n = len(row_array)
    if n == 0:
        return TraceArray.empty()
    times = np.empty(n, dtype=np.float64)
    trefi = timings.trefi
    trfc = timings.trfc
    anchor = start_ns
    emitted = 0
    while emitted < n:
        remaining = n - emitted
        # Candidate timestamps if no blackout intervened: the anchor,
        # then one sequential +interval per ACT.
        candidates = _sequential_cumsum(
            anchor, np.full(remaining - 1, interval_ns, dtype=np.float64)
        )
        candidates = np.concatenate(([anchor], candidates))
        if honor_refresh_gaps:
            blocked = np.mod(candidates, trefi) < trfc
            first = int(np.argmax(blocked)) if blocked.any() else remaining
        else:
            first = remaining
        # Everything before the first blackout hit is final.
        times[emitted:emitted + first] = candidates[:first]
        emitted += first
        if emitted >= n:
            break
        # Push the blocked ACT past the blackout with the iterator's
        # exact scalar arithmetic, then restart the accumulator there.
        time_ns = float(candidates[first])
        since_boundary = time_ns % trefi
        time_ns += trfc - since_boundary
        times[emitted] = time_ns
        emitted += 1
        anchor = time_ns + interval_ns
    return TraceArray(
        time_ns=times,
        bank=np.full(n, bank, dtype=np.int64),
        row=row_array,
    )


def merge_arrays(*traces: TraceArray) -> TraceArray:
    """Vectorized :func:`~repro.workloads.trace.merge_streams`.

    ``heapq.merge`` is stable: on equal timestamps the earlier input
    stream wins.  Concatenating in argument order and stable-sorting by
    time reproduces that order exactly.
    """
    parts = [t for t in traces if len(t)]
    if not parts:
        return TraceArray.empty()
    time_ns = np.concatenate([t.time_ns for t in parts])
    bank = np.concatenate([t.bank for t in parts])
    row = np.concatenate([t.row for t in parts])
    order = np.argsort(time_ns, kind="stable")
    return TraceArray(
        time_ns=time_ns[order], bank=bank[order], row=row[order]
    )


def collect_stats_array(
    trace: TraceArray,
    window_ns: float = DDR4_2400.trefw,
) -> TraceStats:
    """Vectorized :func:`~repro.workloads.trace.collect_stats`."""
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    n = len(trace)
    if n == 0:
        return TraceStats(
            total_acts=0,
            duration_ns=0.0,
            banks=0,
            max_row_acts_per_window=0,
            distinct_rows=0,
        )
    # int(t // w) in the scalar loop: both operands positive, and
    # numpy's floor_divide matches Python's float floor division.
    windows = np.floor_divide(trace.time_ns, window_ns).astype(np.int64)
    keys = np.stack([trace.bank, trace.row, windows], axis=1)
    _, window_counts = np.unique(keys, axis=0, return_counts=True)
    pairs = np.stack([trace.bank, trace.row], axis=1)
    distinct_rows = len(np.unique(pairs, axis=0))
    return TraceStats(
        total_acts=n,
        duration_ns=float(trace.time_ns[-1] - trace.time_ns[0]),
        banks=len(np.unique(trace.bank)),
        max_row_acts_per_window=int(window_counts.max()),
        distinct_rows=distinct_rows,
    )
