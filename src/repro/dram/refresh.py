"""Auto-refresh engine.

DDR4 refresh is distributed: the memory controller issues one REF
command every tREFI, and the device refreshes an implementation-chosen
chunk of rows per command such that every row is visited once per tREFW
(Section II-A).  With 64K rows, tREFW = 64 ms and tREFI = 7.8 us this is
8 rows per command across 8192 commands.

The engine produces the (time, rows) schedule; the simulator feeds the
rows into the fault model (restoring victim charge) and charges tRFC of
bank-blocked time per command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .timing import DramTimings

__all__ = ["RefreshEvent", "AutoRefreshEngine"]


@dataclass(frozen=True)
class RefreshEvent:
    """One REF command: ``rows`` are refreshed starting at ``time_ns``."""

    time_ns: float
    first_row: int
    row_count: int

    @property
    def rows(self) -> range:
        return range(self.first_row, self.first_row + self.row_count)


class AutoRefreshEngine:
    """Generates the per-bank distributed refresh schedule.

    Args:
        rows: Rows in the bank.
        timings: Timing bundle; tREFI/tREFW define the schedule.
        start_ns: Time of the first REF command (defaults to one tREFI).
    """

    def __init__(
        self, rows: int, timings: DramTimings, start_ns: float | None = None
    ) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.rows = rows
        self.timings = timings
        self.commands_per_window = timings.refreshes_per_window
        if self.commands_per_window <= 0:
            raise ValueError("tREFW must cover at least one tREFI")
        # Ceil so the full row space is covered even when rows does not
        # divide evenly; the final command of a window simply wraps less.
        self.rows_per_command = -(-rows // self.commands_per_window)
        self._next_time_ns = timings.trefi if start_ns is None else start_ns
        self._pointer = 0
        self.commands_issued = 0

    @property
    def next_time_ns(self) -> float:
        """Issue time of the next REF command."""
        return self._next_time_ns

    def row_refresh_period_ns(self, row: int) -> float:
        """Interval between two refreshes of the same row (== tREFW)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        return self.timings.trefi * self.commands_per_window

    def pop_due(self, until_ns: float) -> Iterator[RefreshEvent]:
        """Yield (and consume) every REF command due by ``until_ns``."""
        for time_ns, first, count in self.issue_due(until_ns):
            yield RefreshEvent(
                time_ns=time_ns, first_row=first, row_count=count
            )

    def issue_due(self, until_ns: float) -> Iterator[tuple[float, int, int]]:
        """Consume every REF command due by ``until_ns``, yielding its
        issue time, first row and row count (the last command of a sweep
        may be short; the pointer then wraps to row 0)."""
        while self._next_time_ns <= until_ns:
            time_ns, first = self._next_time_ns, self._pointer
            count = min(self.rows_per_command, self.rows - first)
            self._pointer = (first + count) % self.rows
            self._next_time_ns += self.timings.trefi
            self.commands_issued += 1
            yield time_ns, first, count

    def due_times(self, until_ns: float) -> list[float]:
        """Issue times of the REF commands due by ``until_ns``, in order.

        Read-only: the times :meth:`pop_due` would yield, from the same
        sequential ``+= tREFI`` sums.
        """
        times, time_ns = [], self._next_time_ns
        while time_ns <= until_ns:
            times.append(time_ns)
            time_ns += self.timings.trefi
        return times

    def peek_rows_for_next(self) -> range:
        """Rows the next REF command will refresh (schedule preview)."""
        count = min(self.rows_per_command, self.rows - self._pointer)
        return range(self._pointer, self._pointer + count)

    def rows_refreshed_per_window(self) -> int:
        """Rows refreshed by regular refresh over one tREFW.

        This is the denominator of the paper's "increase of refresh
        energy" metric: extra victim-row refreshes are reported relative
        to this count (Figures 8 and 9).
        """
        return self.rows
