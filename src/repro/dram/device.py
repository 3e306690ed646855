"""DRAM device model: banks + auto refresh + the fault referee.

:class:`DramBankModel` is the unit of simulation: one bank's state
machine, its distributed-refresh schedule, and the Row Hammer fault
model, kept mutually consistent.  :class:`DramDevice` is a thin
container over all banks of a system.

The device understands the paper's NRR protocol extension natively
(Section IV-A): :meth:`DramBankModel.nearby_row_refresh` takes an
*aggressor* row and refreshes its neighborhood out to the device's
blast radius, so the aggressor-to-victim mapping stays inside the
device, as the paper argues it must (internal remapping).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bank import Bank, BankStats
from .faults import BitFlip, CouplingProfile, HammerFaultModel
from .geometry import DramGeometry
from .refresh import AutoRefreshEngine, RefreshEvent
from .timing import DramTimings

__all__ = ["DramBankModel", "DramDevice"]


class DramBankModel:
    """One protected bank: timing, auto refresh and fault bookkeeping.

    Args:
        bank_id: Flat bank index.
        rows: Rows in the bank.
        timings: DRAM timing bundle.
        hammer_threshold: ``T_RH`` for the fault model.
        coupling: Disturbance-vs-distance profile (defaults to +-1).
        track_faults: Disable to skip fault bookkeeping for pure
            performance/energy runs (large speedup on long traces).
    """

    def __init__(
        self,
        bank_id: int,
        rows: int,
        timings: DramTimings,
        hammer_threshold: float,
        coupling: CouplingProfile | None = None,
        track_faults: bool = True,
    ) -> None:
        self.bank_id = bank_id
        self.rows = rows
        self.timings = timings
        self.coupling = coupling or CouplingProfile.adjacent_only()
        self.bank = Bank(bank_id, rows, timings)
        self.refresh_engine = AutoRefreshEngine(rows, timings)
        self.faults: HammerFaultModel | None = (
            HammerFaultModel(
                threshold=hammer_threshold,
                rows=rows,
                coupling=self.coupling,
                bank=bank_id,
            )
            if track_faults
            else None
        )
        self._clock_ns = 0.0
        self._undrained_refreshes: list[RefreshEvent] = []

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------

    def advance_to(self, time_ns: float) -> list["RefreshEvent"]:
        """Process all auto-refresh commands due by ``time_ns``.

        Returns the REF events executed, so the memory controller can
        forward the per-tREFI tick to mitigation engines with periodic
        behavior (TWiCe pruning, PRoHIT's piggybacked refreshes).
        """
        if time_ns < self._clock_ns:
            raise ValueError(
                f"time moved backwards: {time_ns} < {self._clock_ns}"
            )
        processed: list[RefreshEvent] = []
        for tick, first, rows in self.refresh_engine.issue_due(time_ns):
            self.bank.auto_refresh(tick)
            event = RefreshEvent(time_ns=tick, first_row=first, row_count=rows)
            if self.faults is not None:
                self.faults.on_refresh_range(event.rows)
            processed.append(event)
        self._clock_ns = time_ns
        self._undrained_refreshes.extend(processed)
        return processed

    def refresh_plan(self, until_ns: float) -> tuple[list[float], list[float]]:
        """The REF ticks :meth:`advance_to` would apply by ``until_ns``.

        Read-only.  Returns each tick's issue time and the bank's
        refresh completion after it, from the same float operations as
        :meth:`Bank.auto_refresh <repro.dram.bank.Bank.auto_refresh>`
        (``busy = max(t_ref, busy) + tRFC``).  The batched engine reads
        the completions to keep ACTs out of each tick's tRFC blackout.
        """
        ticks = self.refresh_engine.due_times(until_ns)
        trfc = self.bank.timings.trfc
        busy = self.bank._busy_until_ns
        ends = []
        for time_ns in ticks:
            busy = max(time_ns, busy) + trfc
            ends.append(busy)
        return ticks, ends

    def skip_refreshes_to(self, until_ns: float) -> int:
        """``advance_to(until_ns)`` then ``drain_refresh_events()``, in one
        call.

        For callers with no use for the events -- a mitigation engine
        that does nothing at a REF.  Applies each tick as
        :meth:`advance_to` does, so it leaves the bank, the schedule and
        the fault model exactly as that pair of calls would, but builds
        no :class:`RefreshEvent`.  Returns the number of ticks applied.
        """
        if until_ns < self._clock_ns:
            raise ValueError(
                f"time moved backwards: {until_ns} < {self._clock_ns}"
            )
        bank, faults = self.bank, self.faults
        count = 0
        for time_ns, first, rows in self.refresh_engine.issue_due(until_ns):
            bank.auto_refresh(time_ns)
            if faults is not None:
                faults.on_refresh_range(range(first, first + rows))
            count += 1
        self._clock_ns = until_ns
        return count

    def drain_refresh_events(self) -> list["RefreshEvent"]:
        """Return (and clear) REF events executed since the last drain.

        ``activate``/``earliest_activate`` advance time implicitly; this
        buffer lets the controller observe every REF tick regardless of
        which call triggered it.
        """
        drained = self._undrained_refreshes
        self._undrained_refreshes = []
        return drained

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def earliest_activate(self, now_ns: float) -> float:
        """First legal ACT time at or after ``now_ns``.

        Accounts for pending auto-refresh commands, including REFs that
        fall *inside* the wait itself: executing the refreshes due by a
        candidate issue time can push the bank's ready time further
        out, so iterate until the candidate is stable.
        """
        candidate = max(now_ns, self._clock_ns)
        while True:
            self.advance_to(candidate)
            legal = self.bank.earliest_activate(candidate)
            if legal <= candidate + 1e-9:
                return candidate
            candidate = legal

    def activate(self, row: int, now_ns: float) -> list[BitFlip]:
        """Execute ACT at ``now_ns``; returns bit flips it caused."""
        self.advance_to(max(now_ns, self._clock_ns))
        self.bank.activate(row, now_ns)
        if self.faults is None:
            return []
        return self.faults.on_activate(row, now_ns)

    def nearby_row_refresh(self, aggressor_row: int, now_ns: float) -> float:
        """Execute NRR for ``aggressor_row``; returns completion time.

        Refreshes every potential victim within the coupling profile's
        blast radius (clipped at bank edges).
        """
        self.advance_to(max(now_ns, self._clock_ns))
        victims = [
            victim
            for distance in range(1, self.coupling.blast_radius + 1)
            for victim in (aggressor_row - distance, aggressor_row + distance)
            if 0 <= victim < self.rows
        ]
        if not victims:
            raise ValueError(
                f"row {aggressor_row} has no in-range victims to refresh"
            )
        done = self.bank.nearby_row_refresh(len(victims), now_ns)
        if self.faults is not None:
            self.faults.on_refresh_range(victims)
        return done

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> BankStats:
        return self.bank.stats

    @property
    def bit_flips(self) -> list[BitFlip]:
        return [] if self.faults is None else self.faults.flips

    @property
    def clock_ns(self) -> float:
        return self._clock_ns


@dataclass
class DramDevice:
    """All banks of a memory system, indexed flat.

    Construct via :meth:`build`; direct instantiation takes a prebuilt
    bank list (useful in tests).
    """

    geometry: DramGeometry
    timings: DramTimings
    banks: list[DramBankModel]

    @classmethod
    def build(
        cls,
        geometry: DramGeometry,
        timings: DramTimings,
        hammer_threshold: float,
        coupling: CouplingProfile | None = None,
        track_faults: bool = True,
    ) -> "DramDevice":
        banks = [
            DramBankModel(
                bank_id=index,
                rows=geometry.rows_per_bank,
                timings=timings,
                hammer_threshold=hammer_threshold,
                coupling=coupling,
                track_faults=track_faults,
            )
            for index in range(geometry.total_banks)
        ]
        return cls(geometry=geometry, timings=timings, banks=banks)

    def bank(self, index: int) -> DramBankModel:
        return self.banks[index]

    def total_stats(self) -> BankStats:
        """Aggregate statistics across every bank."""
        total = BankStats()
        for bank in self.banks:
            total = total.merged_with(bank.stats)
        return total

    def all_bit_flips(self) -> list[BitFlip]:
        flips: list[BitFlip] = []
        for bank in self.banks:
            flips.extend(bank.bit_flips)
        return flips
