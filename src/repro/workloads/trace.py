"""ACT-stream trace model.

Every workload in this package ultimately produces a time-ordered
stream of :class:`ActEvent` objects -- (time, bank, row) triples naming
DRAM row activations.  That is exactly the granularity every mitigation
scheme in the paper operates at (each is consulted per ACT command),
and the granularity the fault model is defined at, so traces are the
lingua franca between workloads, controller, mitigations and referee.

Helpers here cover pacing (turning abstract access sequences into
timed streams honoring DRAM's maximum per-bank ACT rate), merging
per-bank streams, serializing traces to a simple text format, and
computing the summary statistics that the realistic-workload
substitution is calibrated on (per-bank intensity, per-row maxima).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ..dram.timing import DDR4_2400, DramTimings

__all__ = [
    "ActEvent",
    "TraceStats",
    "pace",
    "merge_streams",
    "collect_stats",
    "write_trace",
    "read_trace",
    "take_until",
]


class ActEvent(NamedTuple):
    """One row activation: ``row`` of ``bank`` is opened at ``time_ns``."""

    time_ns: float
    bank: int
    row: int


def pace(
    rows: Iterable[int],
    interval_ns: float,
    bank: int = 0,
    start_ns: float = 0.0,
    timings: DramTimings = DDR4_2400,
    honor_refresh_gaps: bool = True,
) -> Iterator[ActEvent]:
    """Attach timestamps to a row sequence at a fixed ACT interval.

    A lazy event view over
    :func:`~repro.workloads.columnar.pace_segments`: rows are pulled one
    bounded segment (at most about one tREFI of ACTs) ahead of the
    consumer.

    Args:
        rows: The row addresses, in order.
        interval_ns: Time between consecutive ACTs; must be >= tRC
            (``ValueError`` at the call otherwise).
        bank: Bank the stream targets.
        start_ns: Timestamp of the first ACT.
        timings: Timing bundle (validates the interval; provides the
            refresh schedule when ``honor_refresh_gaps`` is set).
        honor_refresh_gaps: When True, an ACT that would land inside
            the tRFC blackout after a tREFI boundary is pushed past it
            (``time += trfc - time % trefi``), as real command streams
            must -- this is what limits a maximal attacker to ``W``
            ACTs per window rather than ``tREFW / tRC``.  Timestamps
            otherwise accumulate by sequential ``time += interval``.
    """
    from .columnar import pace_segments  # columnar imports this module

    return itertools.chain.from_iterable(
        pace_segments(
            rows, interval_ns, bank, start_ns, timings, honor_refresh_gaps
        )
    )


def merge_streams(*streams: Iterable[ActEvent]) -> Iterator[ActEvent]:
    """Merge time-sorted per-bank streams into one time-sorted stream."""
    return heapq.merge(*streams, key=lambda event: event.time_ns)


def take_until(
    events: Iterable[ActEvent], end_ns: float
) -> Iterator[ActEvent]:
    """Pass events through until the first one at or past ``end_ns``."""
    for event in events:
        if event.time_ns >= end_ns:
            return
        yield event


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of an ACT trace.

    These two numbers -- per-bank intensity and the per-row maximum
    within a window -- are the properties the paper's "no victim
    refreshes on realistic workloads" result depends on, and the ones
    the synthetic workload profiles are calibrated against.
    """

    total_acts: int
    duration_ns: float
    banks: int
    max_row_acts_per_window: int
    distinct_rows: int

    @property
    def acts_per_second_per_bank(self) -> float:
        if self.duration_ns <= 0 or self.banks == 0:
            return 0.0
        return self.total_acts / self.banks / (self.duration_ns / 1e9)


def collect_stats(
    events: Iterable[ActEvent],
    window_ns: float = DDR4_2400.trefw,
) -> TraceStats:
    """Compute :class:`TraceStats` in one pass (consumes the iterator)."""
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    total = 0
    first_ns = None
    last_ns = 0.0
    banks: set[int] = set()
    rows: set[tuple[int, int]] = set()
    window_counts: dict[tuple[int, int, int], int] = {}
    max_row_acts = 0
    for event in events:
        total += 1
        if first_ns is None:
            first_ns = event.time_ns
        last_ns = event.time_ns
        banks.add(event.bank)
        rows.add((event.bank, event.row))
        key = (event.bank, event.row, int(event.time_ns // window_ns))
        count = window_counts.get(key, 0) + 1
        window_counts[key] = count
        if count > max_row_acts:
            max_row_acts = count
    duration = 0.0 if first_ns is None else last_ns - first_ns
    return TraceStats(
        total_acts=total,
        duration_ns=duration,
        banks=len(banks),
        max_row_acts_per_window=max_row_acts,
        distinct_rows=len(rows),
    )


def write_trace(events: Iterable[ActEvent], path: str) -> int:
    """Serialize a trace as ``time_ns bank row`` lines; returns count."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# graphene-repro ACT trace v1: time_ns bank row\n")
        for event in events:
            handle.write(f"{event.time_ns:.3f} {event.bank} {event.row}\n")
            count += 1
    return count


def read_trace(path: str) -> Iterator[ActEvent]:
    """Parse a trace produced by :func:`write_trace`."""
    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_number}: expected 'time bank row', "
                    f"got {line!r}"
                )
            yield ActEvent(float(parts[0]), int(parts[1]), int(parts[2]))
