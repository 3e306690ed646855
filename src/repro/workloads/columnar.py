"""Columnar ACT traces: the form every workload generator emits.

A Python object per ACT is what makes full-tREFW runs minutes-long, so
traces are built and simulated as one :class:`TraceArray` -- three
parallel numpy arrays (``time_ns``/``bank``/``row``) -- and the
:class:`~repro.workloads.trace.ActEvent` streams of :mod:`.trace` are
lazy views over it for the reference engine and streaming consumers:

* :meth:`TraceArray.from_events` / :meth:`TraceArray.__iter__` convert
  to and from the iterator world losslessly;
* :func:`pace_segments` is the one pacing implementation: bounded
  segments of at most ``floor(tREFI / interval) + 2`` ACTs between tRFC
  blackouts, so pacing is linear in the trace length.
  :func:`pace_array`, :func:`~repro.workloads.trace.pace` and the
  synthetic generators (:mod:`.synthetic`) are built on it; the
  realistic profiles (:mod:`.spec_like`) emit one array per chunk of
  RNG draws;
* :func:`merge_arrays` is :func:`~repro.workloads.trace.merge_streams`;
* :func:`collect_stats_array` is
  :func:`~repro.workloads.trace.collect_stats`.

**Timestamps are bit-exact, not approximate.**  Generators define
their timestamps as sequential float64 additions (``time +=
interval``), so running sums use ``np.cumsum`` seeded with the live
accumulator value (numpy's accumulate is sequential left-to-right,
unlike ``np.sum``'s pairwise reduction), and the tRFC blackout push
is applied with the scalar expression ``time += trfc - time % trefi``
at each affected element.  ``tests/test_workloads.py`` checks every
generator against the per-event loops it replaced, and
``tests/test_columnar.py`` pins the helpers element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..dram.timing import DDR4_2400, DramTimings
from .trace import ActEvent, TraceStats

__all__ = [
    "TraceArray",
    "iter_chunk_arrays",
    "pace_segments",
    "pace_array",
    "merge_arrays",
    "collect_stats_array",
]


#: Events per ``tolist`` slice when a :class:`TraceArray` is iterated.
_ITER_SLICE = 8192

#: ``ActEvent`` from a ``(time, bank, row)`` tuple without a Python-level
#: ``__new__`` call per event.
_new_event = partial(tuple.__new__, ActEvent)


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
    def concat(cls, parts: Sequence["TraceArray"]) -> "TraceArray":
        """Join consecutive traces end to end (no re-sorting)."""
        if not parts:
            return cls.empty()
        return cls(
            time_ns=np.concatenate([part.time_ns for part in parts]),
            bank=np.concatenate([part.bank for part in parts]),
            row=np.concatenate([part.row for part in parts]),
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
        """Yield native :class:`ActEvent` objects (lossless round-trip).

        Fields are plain ``float`` / ``int`` / ``int``.  Columns are
        converted with ``tolist`` one bounded slice at a time, so a long
        trace never holds more than one slice of Python objects.
        """
        for start in range(0, len(self), _ITER_SLICE):
            stop = start + _ITER_SLICE
            yield from map(_new_event, zip(
                self.time_ns[start:stop].tolist(),
                self.bank[start:stop].tolist(),
                self.row[start:stop].tolist(),
            ))

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


def _check_interval(interval_ns: float, timings: DramTimings) -> None:
    if interval_ns < timings.trc:
        raise ValueError(
            f"interval {interval_ns}ns violates tRC={timings.trc}ns"
        )


def _paced_times(
    interval_ns: float,
    start_ns: float,
    timings: DramTimings,
    honor_refresh_gaps: bool,
    duration_ns: float | None,
) -> Iterator[np.ndarray]:
    """Timestamps of an ACT every ``interval_ns``, in bounded segments.

    A segment opens on an ACT that, if it would land inside the tRFC
    blackout after a tREFI boundary, is pushed past it with the scalar
    expression ``time += trfc - time % trefi``.  It then runs by
    sequential ``+interval`` additions (a seeded ``cumsum``) up to, not
    including, the next ACT that lands in a blackout -- and never past
    ``floor(tREFI / interval) + 2`` ACTs, so each segment costs
    O(tREFI / interval) however long the stream is.  With
    ``duration_ns`` the stream ends before the first ACT with
    ``time - start_ns >= duration_ns``; without it, it never ends.
    """
    trefi = timings.trefi
    trfc = timings.trfc
    span = int(trefi // interval_ns) + 2
    seeded = np.full(span + 1, interval_ns, dtype=np.float64)
    anchor = start_ns
    while True:
        if honor_refresh_gaps:
            since_boundary = anchor % trefi
            if since_boundary < trfc:
                anchor += trfc - since_boundary
        seeded[0] = anchor
        chain = np.cumsum(seeded)
        count = span
        if honor_refresh_gaps:
            blocked = np.mod(chain[1:], trefi) < trfc
            first = int(blocked.argmax())
            if blocked[first]:
                count = first + 1
        times = chain[:count]
        if duration_ns is not None and times[-1] - start_ns >= duration_ns:
            cut = int(np.searchsorted(times - start_ns, duration_ns))
            if cut:
                yield times[:cut]
            return
        yield times
        anchor = float(chain[count])


def pace_segments(
    rows: Iterable[int],
    interval_ns: float,
    bank: int = 0,
    start_ns: float = 0.0,
    timings: DramTimings = DDR4_2400,
    honor_refresh_gaps: bool = True,
    duration_ns: float | None = None,
) -> Iterator[TraceArray]:
    """Pace a row sequence into consecutive :class:`TraceArray` segments.

    The one pacing implementation behind :func:`pace_array`,
    :func:`~repro.workloads.trace.pace` and the synthetic generators;
    see :func:`~repro.workloads.trace.pace` for the arguments.  Each
    segment's timestamps are computed before any row is pulled, then
    exactly that many rows are taken from ``rows`` (fewer ends the
    stream).  With ``duration_ns`` the stream ends before the first ACT
    at ``time - start_ns >= duration_ns``, and no row is pulled for it:
    a shared row iterator is left positioned after the last emitted
    row.  Raises ``ValueError`` at once for an interval below tRC.
    """
    _check_interval(interval_ns, timings)
    return _bind_rows(
        iter(rows),
        _paced_times(
            interval_ns, start_ns, timings, honor_refresh_gaps, duration_ns
        ),
        bank,
    )


def _bind_rows(
    rows: Iterator[int], segments: Iterator[np.ndarray], bank: int
) -> Iterator[TraceArray]:
    for times in segments:
        taken = np.fromiter(islice(rows, len(times)), dtype=np.int64)
        count = len(taken)
        if count:
            yield TraceArray(
                time_ns=times[:count],
                bank=np.full(count, bank, dtype=np.int64),
                row=taken,
            )
        if count < len(times):
            return


def pace_array(
    rows: Sequence[int] | np.ndarray,
    interval_ns: float,
    bank: int = 0,
    start_ns: float = 0.0,
    timings: DramTimings = DDR4_2400,
    honor_refresh_gaps: bool = True,
) -> TraceArray:
    """:func:`~repro.workloads.trace.pace` as one :class:`TraceArray`.

    Runs the same segments as the iterator (a seeded ``cumsum`` per
    blackout-free stretch, the scalar push at each blackout), so every
    timestamp matches the scalar loop's float64 value exactly, in time
    linear in the trace length.
    """
    _check_interval(interval_ns, timings)
    row_array = np.asarray(rows, dtype=np.int64)
    n = len(row_array)
    if n == 0:
        return TraceArray.empty()
    parts = []
    paced = 0
    for times in _paced_times(
        interval_ns, start_ns, timings, honor_refresh_gaps, None
    ):
        parts.append(times)
        paced += len(times)
        if paced >= n:
            break
    return TraceArray(
        time_ns=np.concatenate(parts)[:n],
        bank=np.full(n, bank, dtype=np.int64),
        row=row_array,
    )


def merge_arrays(*traces: TraceArray) -> TraceArray:
    """Vectorized :func:`~repro.workloads.trace.merge_streams`.

    ``heapq.merge`` is stable: on equal timestamps the earlier input
    stream wins.  Concatenating in argument order and stable-sorting by
    time reproduces that order exactly.
    """
    joined = TraceArray.concat(traces)
    order = np.argsort(joined.time_ns, kind="stable")
    return TraceArray(
        time_ns=joined.time_ns[order],
        bank=joined.bank[order],
        row=joined.row[order],
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
