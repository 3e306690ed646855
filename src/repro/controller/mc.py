"""The memory controller: where mitigation engines live (Section IV-A).

Graphene and the compared schemes are all deployed inside the memory
controller: every ACT command is reported to the bank's mitigation
engine, and any :class:`~repro.mitigations.base.RefreshDirective` the
engine returns is executed immediately as an NRR command -- blocking
the bank for ``tRC`` per refreshed row plus a ``tRP`` precharge, the
paper's overhead accounting.  Regular REF commands (one per tREFI,
handled by the device's refresh engine) are forwarded to engines with
periodic behavior (TWiCe pruning, PRoHIT piggyback refreshes).

ACTs arrive with trace timestamps; if the bank is still blocked
(refresh, NRR, tRC), the command is delayed and the delay recorded --
that queueing is the entire performance-overhead mechanism of the
paper's evaluation (Section V-B methodology).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from ..dram.device import DramDevice
from ..dram.faults import BitFlip
from ..mitigations.base import MitigationEngine, MitigationFactory, RefreshDirective
from ..telemetry import runtime as _telemetry
from ..telemetry.events import NrrEmit, SchedStall
from ..workloads.trace import ActEvent
from .scheduler import LatencySummary, LatencyTracker

__all__ = ["ControllerCounters", "MemoryController", "event_time_error"]

#: What the first event's time is checked against: any finite time
#: passes, ``-inf`` does not.
FIRST_EVENT_FLOOR_NS = -sys.float_info.max


def event_time_error(time_ns: float, previous_ns: float) -> ValueError:
    """The error both engines raise for a non-finite or unsorted time."""
    if not math.isfinite(time_ns):
        return ValueError(f"event time {time_ns!r} ns is not finite")
    return ValueError(
        f"event time {time_ns!r} ns precedes the previous event's "
        f"{previous_ns!r} ns; ACT streams must be sorted by time"
    )


def _engine_probe(engine: MitigationEngine):
    """Build a sampler probe reading one engine's live tracking state.

    Works for any scheme: table-backed engines (Graphene wraps a
    :class:`~repro.core.misra_gries.MisraGriesTable` behind an
    ``engine.table`` attribute) report occupancy and spillover;
    everything reports cumulative refresh work from the shared stats.
    """
    inner = getattr(engine, "engine", engine)
    table = getattr(inner, "table", None)

    def probe() -> dict[str, float]:
        snapshot: dict[str, float] = {
            "rows_refreshed": engine.stats.rows_refreshed,
            "directives": engine.stats.refresh_directives,
        }
        if table is not None:
            snapshot["occupancy"] = len(table)
            snapshot["spillover"] = getattr(table, "spillover", 0)
        return snapshot

    return probe


@dataclass
class ControllerCounters:
    """MC-level tallies accumulated over a run."""

    acts_issued: int = 0
    nrr_commands: int = 0
    nrr_rows: int = 0
    ref_ticks_forwarded: int = 0
    bit_flips: int = 0


class MemoryController:
    """Binds a DRAM device to per-bank mitigation engines.

    Args:
        device: The DRAM device model (banks + refresh + fault referee).
        factory: Builds one mitigation engine per bank.
        keep_directive_log: Retain every executed directive (memory cost
            proportional to directive count; enable for fine-grained
            analyses, off by default for long runs).
    """

    def __init__(
        self,
        device: DramDevice,
        factory: MitigationFactory,
        keep_directive_log: bool = False,
    ) -> None:
        self.device = device
        rows = device.geometry.rows_per_bank
        self.engines: list[MitigationEngine] = [
            factory(bank, rows) for bank in range(device.geometry.total_banks)
        ]
        self.latency = LatencyTracker()
        self.counters = ControllerCounters()
        self.bit_flips: list[BitFlip] = []
        self.directive_log: list[RefreshDirective] | None = (
            [] if keep_directive_log else None
        )
        self._last_time_ns = FIRST_EVENT_FLOOR_NS
        bus = _telemetry.BUS
        if bus is not None and bus.sampler is not None:
            for bank, engine in enumerate(self.engines):
                bus.sampler.add_probe(f"bank{bank}", _engine_probe(engine))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, events: Iterable[ActEvent]) -> None:
        """Drive the full system from a time-sorted ACT stream.

        A non-finite time, or one before the previous event's, raises
        ``ValueError`` (:func:`event_time_error`) at that event.
        """
        for event in events:
            self.step(event)

    def step(self, event: ActEvent) -> list[RefreshDirective]:
        """Process one ACT end to end; returns directives it caused."""
        time_ns = event.time_ns
        if not self._last_time_ns <= time_ns < math.inf:
            raise event_time_error(time_ns, self._last_time_ns)
        self._last_time_ns = time_ns
        engines = self.engines
        if not 0 <= event.bank < len(engines):
            raise IndexError(
                f"bank {event.bank} out of range [0, {len(engines)})"
            )
        bank_model = self.device.bank(event.bank)
        engine = engines[event.bank]

        # 1. Schedule the ACT at the first legal time; the wait (bank
        #    blocked by refresh/NRR/tRC) is the performance overhead.
        issue_ns = bank_model.earliest_activate(event.time_ns)
        delay_ns = issue_ns - event.time_ns
        self.latency.record(delay_ns)
        if delay_ns > 0:
            bus = _telemetry.BUS
            if bus is not None and bus.per_act:
                bus.publish(
                    SchedStall(
                        time_ns=event.time_ns,
                        bank=event.bank,
                        row=event.row,
                        delay_ns=delay_ns,
                    )
                )
        flips = bank_model.activate(event.row, issue_ns)
        if flips:
            self.bit_flips.extend(flips)
            self.counters.bit_flips += len(flips)
        self.counters.acts_issued += 1

        directives: list[RefreshDirective] = []

        # 2. Forward any regular REF commands that elapsed, so periodic
        #    schemes (TWiCe, PRoHIT) can act on their tREFI tick.
        for ref_event in bank_model.drain_refresh_events():
            self.counters.ref_ticks_forwarded += 1
            directives.extend(engine.on_refresh_command(ref_event.time_ns))

        # 3. Report the ACT to the mitigation engine.
        directives.extend(engine.on_activate(event.row, issue_ns))

        # 4. Execute every directive as an NRR, immediately.  The NRR
        #    lands on the bank the directive names -- not necessarily
        #    the ACT's bank: cross-bank trackers (ABACuS) refresh the
        #    victim neighborhood in *every* bank on one trigger.
        for directive in directives:
            self._execute_directive(
                self.device.bank(directive.bank), directive, issue_ns
            )
        return directives

    def _execute_directive(self, bank_model, directive, now_ns: float) -> None:
        rows = list(directive.victim_rows)
        if not rows:
            return
        bank_model.bank.nearby_row_refresh(len(rows), now_ns)
        if bank_model.faults is not None:
            bank_model.faults.on_refresh_range(rows)
        self.counters.nrr_commands += 1
        self.counters.nrr_rows += len(rows)
        bus = _telemetry.BUS
        if bus is not None and bus.per_act:
            bus.publish(
                NrrEmit(
                    time_ns=now_ns,
                    bank=directive.bank,
                    aggressor_row=directive.aggressor_row,
                    victim_rows=len(rows),
                    reason=directive.reason,
                )
            )
        if self.directive_log is not None:
            self.directive_log.append(directive)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def latency_summary(self) -> LatencySummary:
        return self.latency.summary()

    def engine_stats(self):
        """Per-bank mitigation statistics."""
        return [engine.stats for engine in self.engines]

    def total_victim_rows_refreshed(self) -> int:
        return sum(engine.stats.rows_refreshed for engine in self.engines)

    def describe(self) -> str:
        scheme = self.engines[0].describe() if self.engines else "none"
        return (
            f"MemoryController(banks={len(self.engines)}, scheme={scheme})"
        )
