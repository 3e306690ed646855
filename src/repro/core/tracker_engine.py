"""Graphene-style prevention engine over any frequent-elements tracker.

Generalizes :class:`~repro.core.graphene.GrapheneEngine` to the
Section-VI design space: the same window-reset + threshold-crossing
protection loop, parameterized by the tracking substrate (Misra-Gries,
Space-Saving, Lossy Counting or a Count-Min sketch).

The protection argument carries over for any tracker whose estimate is
an **upper bound on the true count**: a row's actual count cannot reach
``T`` without its estimate reaching ``T``, and a threshold-crossing
estimate always produces a victim refresh.  What differs per tracker is
the *false positive* rate (sketches collide; Lossy Counting's deltas
inflate) and the hardware story -- which is what the comparison bench
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import runtime as _telemetry
from ..telemetry.events import (
    NrrEmit,
    SpilloverBump,
    TableEvict,
    TableInsert,
    WindowReset,
)
from .config import GrapheneConfig
from .graphene import VictimRefreshRequest
from .misra_gries import MisraGriesTable
from .trackers import (
    AggressorTracker,
    CountMinSketch,
    LossyCountingTable,
    SpaceSavingTable,
)

__all__ = ["TrackerBackedEngine", "build_tracker"]


def build_tracker(kind: str, config: GrapheneConfig) -> AggressorTracker:
    """Construct a tracking substrate sized for ``config``.

    Args:
        kind: "misra-gries", "space-saving", "lossy-counting" or
            "count-min".
        config: Supplies ``W`` and ``T`` for the sizing rules:
            Misra-Gries needs ``> W/T - 1`` entries, Space-Saving
            ``>= W/T``, Lossy Counting ``epsilon = T/W`` (minus one
            count of slack so boundary deletions cannot erase a row
            exactly at the threshold), Count-Min a width that keeps the
            expected collision inflation under ``T``.
    """
    w = config.max_activations_per_window
    t = config.tracking_threshold
    if kind == "misra-gries":
        return MisraGriesTable(config.num_entries)
    if kind == "space-saving":
        return SpaceSavingTable(max(1, -(-w // t)))
    if kind == "lossy-counting":
        return LossyCountingTable(epsilon=max(1e-9, (t - 1) / max(t, w)))
    if kind == "count-min":
        # Expected inflation ~ W/width per row; keep it below T/2 so
        # benign rows rarely cross, with 4 hash rows for the min.
        width = max(16, 2 * -(-w // t))
        return CountMinSketch(width=width, depth=4)
    raise ValueError(
        f"unknown tracker kind {kind!r}; choose misra-gries, "
        "space-saving, lossy-counting or count-min"
    )


@dataclass
class TrackerEngineStats:
    activations: int = 0
    victim_refresh_requests: int = 0
    victim_rows_refreshed: int = 0
    window_resets: int = 0
    #: Misra-Gries-only: observations that grew the spillover count.
    spillover_bumps: int = 0


class TrackerBackedEngine:
    """The Graphene protection loop over a pluggable tracker.

    Because generic trackers do not expose Misra-Gries' exact
    "count just became a multiple of T" transition, the engine detects
    crossings from the estimate returned by ``observe``: a refresh is
    emitted whenever the estimate enters a new multiple-of-T stratum
    for that row within the window.  Per-row last-stratum state is kept
    in a side dict (hardware would fold this into the entry, as the
    overflow bit does for Misra-Gries).
    """

    def __init__(
        self,
        config: GrapheneConfig,
        tracker: AggressorTracker | str = "misra-gries",
        bank: int = 0,
    ) -> None:
        self.config = config
        self.bank = bank
        if isinstance(tracker, str):
            tracker = build_tracker(tracker, config)
        self.tracker = tracker
        self.threshold = config.tracking_threshold
        self.rows = config.rows_per_bank
        self._window_length_ns = config.reset_window_ns
        self._current_window = 0
        #: row -> highest multiple-of-T stratum already refreshed for.
        self._strata: dict[int, int] = {}
        self.stats = TrackerEngineStats()

    def on_activate(self, row: int, time_ns: float) -> list[VictimRefreshRequest]:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        bus = _telemetry.BUS
        if bus is not None and not bus.per_act:
            bus = None
        window = int(time_ns // self._window_length_ns)
        if window != self._current_window:
            if window < self._current_window:
                raise ValueError("time moved backwards across windows")
            if bus is not None:
                tracked = getattr(self.tracker, "__len__", None)
                bus.publish(
                    WindowReset(
                        time_ns=time_ns,
                        bank=self.bank,
                        window=window,
                        tracked_rows=tracked() if tracked else 0,
                        spillover=getattr(self.tracker, "spillover", 0),
                    )
                )
            self.tracker.reset()
            self._strata.clear()
            self._current_window = window
            self.stats.window_resets += 1
        self.stats.activations += 1

        if bus is not None:
            was_tracked = row in self.tracker
            capacity = getattr(self.tracker, "capacity", None)
            was_full = (
                capacity is not None and len(self.tracker) >= capacity
            )
        estimate = self.tracker.observe(row)
        if estimate is None:
            self.stats.spillover_bumps += 1
            if bus is not None:
                bus.publish(
                    SpilloverBump(
                        time_ns=time_ns,
                        bank=self.bank,
                        row=row,
                        spillover=getattr(self.tracker, "spillover", 0),
                    )
                )
            return []
        if bus is not None and not was_tracked and row in self.tracker:
            if was_full:
                bus.publish(
                    TableEvict(
                        time_ns=time_ns,
                        bank=self.bank,
                        row=getattr(self.tracker, "last_evicted", None),
                        inherited_count=estimate - 1,
                        new_row=row,
                    )
                )
            bus.publish(
                TableInsert(
                    time_ns=time_ns, bank=self.bank, row=row, count=estimate
                )
            )
        stratum = estimate // self.threshold
        if stratum <= self._strata.get(row, 0):
            return []
        self._strata[row] = stratum
        victims = self.victim_rows_of(row)
        self.stats.victim_refresh_requests += 1
        self.stats.victim_rows_refreshed += len(victims)
        if bus is not None:
            bus.publish(
                NrrEmit(
                    time_ns=time_ns,
                    bank=self.bank,
                    aggressor_row=row,
                    victim_rows=len(victims),
                    reason=f"T x {stratum}",
                )
            )
        return [
            VictimRefreshRequest(
                bank=self.bank,
                aggressor_row=row,
                victim_rows=victims,
                time_ns=time_ns,
                threshold_multiple=stratum,
            )
        ]

    def victim_rows_of(self, aggressor_row: int) -> tuple[int, ...]:
        radius = self.config.blast_radius
        return tuple(
            victim
            for distance in range(1, radius + 1)
            for victim in (aggressor_row - distance, aggressor_row + distance)
            if 0 <= victim < self.rows
        )

    def describe(self) -> str:
        return (
            f"tracker-engine({type(self.tracker).__name__}, "
            f"T={self.threshold})"
        )
