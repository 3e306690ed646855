"""The Graphene Row Hammer prevention engine (paper Section III-B).

One :class:`GrapheneEngine` protects one DRAM bank.  It owns a
Misra-Gries counter table sized per :class:`~repro.core.config.
GrapheneConfig`, observes every ACT to the bank, and emits a
:class:`VictimRefreshRequest` whenever a tracked row's estimated count
reaches a multiple of the tracking threshold ``T``.  The memory
controller turns each request into an NRR command.

The table and spillover count are reset every ``tREFW / k`` (the reset
window); the engine performs this lazily at the first ACT of a new
window, which is behaviorally identical to an eager reset because the
table is only consulted on ACTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry import runtime as _telemetry
from ..telemetry.events import (
    SpilloverBump,
    TableEvict,
    TableInsert,
    WindowReset,
)
from .config import GrapheneConfig
from .misra_gries import MisraGriesTable

__all__ = ["VictimRefreshRequest", "GrapheneStats", "GrapheneEngine"]


@dataclass(frozen=True)
class VictimRefreshRequest:
    """Directive to refresh the neighborhood of a potential aggressor.

    Attributes:
        bank: Flat index of the bank the aggressor lives in.
        aggressor_row: The row whose estimated count crossed a multiple
            of ``T``.
        victim_rows: The rows the resulting NRR must refresh (aggressor
            neighborhood out to the blast radius, clipped at bank edges).
        time_ns: The ACT time that triggered the request.
        threshold_multiple: Which multiple of ``T`` was crossed (1 for
            the first trigger on this row this window, 2 for ``2T``...).
    """

    bank: int
    aggressor_row: int
    victim_rows: tuple[int, ...]
    time_ns: float
    threshold_multiple: int


@dataclass
class GrapheneStats:
    """Counters describing what one engine did."""

    activations: int = 0
    table_hits: int = 0
    table_insertions: int = 0
    spillover_increments: int = 0
    victim_refresh_requests: int = 0
    victim_rows_refreshed: int = 0
    window_resets: int = 0

    @property
    def max_possible_spillover_fraction(self) -> float:
        """Spillover increments as a fraction of activations."""
        if self.activations == 0:
            return 0.0
        return self.spillover_increments / self.activations


class GrapheneEngine:
    """Per-bank Graphene protection engine.

    Args:
        config: Fully derived parameter set.
        bank: Flat bank index (labelling of emitted requests).

    Usage::

        engine = GrapheneEngine(GrapheneConfig.paper_optimized())
        for act_time, row in act_stream:
            for request in engine.on_activate(row, act_time):
                issue_nrr(request)
    """

    def __init__(self, config: GrapheneConfig, bank: int = 0) -> None:
        self.config = config
        self.bank = bank
        self.table = MisraGriesTable(config.num_entries)
        self.threshold = config.tracking_threshold
        self.rows = config.rows_per_bank
        self._window_length_ns = config.reset_window_ns
        self._current_window = 0
        self.stats = GrapheneStats()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def on_activate(self, row: int, time_ns: float) -> list[VictimRefreshRequest]:
        """Process one ACT; return victim-refresh directives (usually [])."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        if time_ns < 0:
            raise ValueError("time must be non-negative")
        self._maybe_reset(time_ns)
        self.stats.activations += 1

        table = self.table
        was_tracked = row in table
        # Telemetry rides behind one branch: with no bus installed the
        # hot path allocates nothing and does no extra work.  A
        # metrics-level bus takes no per-ACT events.
        bus = _telemetry.BUS
        if bus is not None and not bus.per_act:
            bus = None
        was_full = bus is not None and len(table) >= table.capacity
        new_count = table.observe(row)
        if new_count is None:
            self.stats.spillover_increments += 1
            if bus is not None:
                bus.publish(
                    SpilloverBump(
                        time_ns=time_ns,
                        bank=self.bank,
                        row=row,
                        spillover=table.spillover,
                    )
                )
            return []
        if was_tracked:
            self.stats.table_hits += 1
        else:
            self.stats.table_insertions += 1
            if bus is not None:
                if was_full:
                    bus.publish(
                        TableEvict(
                            time_ns=time_ns,
                            bank=self.bank,
                            row=table.last_evicted,
                            inherited_count=new_count - 1,
                            new_row=row,
                        )
                    )
                bus.publish(
                    TableInsert(
                        time_ns=time_ns,
                        bank=self.bank,
                        row=row,
                        count=new_count,
                    )
                )

        if new_count % self.threshold != 0:
            return []

        request = VictimRefreshRequest(
            bank=self.bank,
            aggressor_row=row,
            victim_rows=self.victim_rows_of(row),
            time_ns=time_ns,
            threshold_multiple=new_count // self.threshold,
        )
        self.stats.victim_refresh_requests += 1
        self.stats.victim_rows_refreshed += len(request.victim_rows)
        return [request]

    def victim_rows_of(self, aggressor_row: int) -> tuple[int, ...]:
        """Rows an NRR for ``aggressor_row`` refreshes (edge-clipped)."""
        radius = self.config.blast_radius
        return tuple(
            victim
            for distance in range(1, radius + 1)
            for victim in (aggressor_row - distance, aggressor_row + distance)
            if 0 <= victim < self.rows
        )

    # ------------------------------------------------------------------
    # Window management
    # ------------------------------------------------------------------

    def _maybe_reset(self, time_ns: float) -> None:
        window = int(time_ns // self._window_length_ns)
        if window != self._current_window:
            if window < self._current_window:
                raise ValueError(
                    f"time moved backwards across windows: window {window} "
                    f"after window {self._current_window}"
                )
            bus = _telemetry.BUS
            if bus is not None and bus.per_act:
                bus.publish(
                    WindowReset(
                        time_ns=time_ns,
                        bank=self.bank,
                        window=window,
                        tracked_rows=len(self.table),
                        spillover=self.table.spillover,
                    )
                )
            self.table.reset()
            self.stats.window_resets += 1
            self._current_window = window

    @property
    def current_window(self) -> int:
        """Index of the reset window the engine last observed."""
        return self._current_window

    def window_of(self, time_ns: float) -> int:
        """Reset-window index containing ``time_ns``."""
        return int(time_ns // self._window_length_ns)

    def force_reset(self) -> None:
        """Explicitly reset table and spillover count (test hook)."""
        self.table.reset()
        self.stats.window_resets += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def tracked_aggressors(self) -> dict[int, int]:
        """Currently tracked rows and their estimated counts."""
        return self.table.tracked()

    def hottest_rows(self, limit: int = 10) -> list[tuple[int, int]]:
        """The ``limit`` highest-estimated rows, hottest first.

        Ties break on the row address (ascending) so snapshots are
        stable across Python hash seeds and interpreter runs.
        """
        ranked = sorted(
            self.table.tracked().items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:limit]

    @property
    def table_bits(self) -> int:
        """Storage footprint of this engine's table (Table IV metric)."""
        return self.config.table_bits_per_bank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrapheneEngine(bank={self.bank}, T={self.threshold}, "
            f"N_entry={self.config.num_entries}, window={self._current_window})"
        )
