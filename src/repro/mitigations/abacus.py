"""ABACuS: all-bank activation counters (Olgun et al., USENIX Sec 2024).

ABACuS (arXiv 2310.09977) keeps ONE activation-counter table per rank,
indexed by **row ID**, shared by every bank -- exploiting the
observation that workloads activate the same row address in many banks
near-simultaneously, so per-bank tables mostly store duplicates.  Each
entry pairs a Row Activation Counter (RAC) with a Sibling Activation
Vector (SAV), one bit per bank:

* an ACT from bank ``b`` whose SAV bit is **clear** just sets the bit
  (a sibling catching up -- no count);
* an ACT from bank ``b`` whose SAV bit is **set** increments the RAC
  and resets the SAV to ``{b}`` (bank ``b`` pulled ahead -- everyone
  else must catch up again before their next ACT counts).

This "sibling activation count" trick keeps ``RAC >= max_b c_b - 1``
(any bank's true count exceeds the RAC by at most one), so triggering
a victim refresh in *every* bank each time the RAC crosses a multiple
of ``T - 1`` bounds every per-bank gap by ``T`` -- the same guarantee
Graphene proves per bank, at roughly ``1/banks`` the counter storage.

The table itself is Misra-Gries, like Graphene's (insert at
``spillover + 1``, evict the smallest-row entry sitting exactly at the
spillover floor), but sized against the *rank-wide* ACT budget: every
ACT in the window adds at most one unit of count mass (a RAC increment
or a spillover bump), so Lemma 2's ``spillover <= W_total/(N+1)``
argument transfers with ``W_total = banks x W_bank``.  Out-of-domain
streams (more ACTs than the configured budget) are still safe: an
entry inserted already at-or-past the trigger threshold refreshes
immediately rather than waiting for the next exact multiple.

Cross-bank sharing is what makes ABACuS the adversarial example for
the fast path: one tracking structure fed by every bank breaks the
per-bank lane independence assumption, which is why the fast kernel
declares ``cross_bank=True`` (see ``repro.core.fast_kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.config import GrapheneConfig
from ..dram.timing import DDR4_2400, DramTimings
from .base import MitigationEngine, MitigationFactory, RefreshDirective

__all__ = [
    "AbacusEntry",
    "AbacusState",
    "AbacusMitigation",
    "abacus_factory",
]

#: Default bank count the shared table is sized for when the factory
#: cannot see the device geometry (one DDR4 rank).  Oversizing is safe
#: (more tracked rows, never fewer triggers), so the default protects
#: any device with at most this many banks.
DEFAULT_TOTAL_BANKS = 16


@dataclass
class AbacusEntry:
    """One shared-table entry: row activation counter + sibling vector."""

    rac: int
    sav: int  # bitmask, bit b == bank b activated since the last RAC bump


@dataclass
class AbacusStateStats:
    """Shared-table tallies (per-bank protocol stats live on engines)."""

    observations: int = 0
    rac_increments: int = 0
    sav_sets: int = 0
    insertions: int = 0
    evictions: int = 0
    spillover_increments: int = 0
    window_resets: int = 0
    triggers: int = 0
    insert_triggers: int = 0
    extra: dict = field(default_factory=dict)


class AbacusState:
    """The rank-level shared counter table all banks feed.

    Args:
        threshold: RAC trigger period ``T_abacus`` (Graphene's tracking
            threshold minus one -- the SAV trick's off-by-one headroom).
        window_ns: Reset window (``tREFW / k``); the table and spillover
            clear lazily on the first ACT of each new window.
        num_entries: Misra-Gries capacity, sized against the rank-wide
            ACT budget (Inequality 1 with ``W_total``).
    """

    def __init__(self, threshold: int, window_ns: float, num_entries: int):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if num_entries < 1:
            raise ValueError(f"num_entries must be >= 1, got {num_entries}")
        self.threshold = threshold
        self.window_ns = window_ns
        self.num_entries = num_entries
        self.entries: dict[int, AbacusEntry] = {}
        self.spillover = 0
        self.current_window = 0
        self.registered_banks: list[int] = []
        self.stats = AbacusStateStats()
        #: Fault-injection seam for the adversarial harness: a positive
        #: offset re-creates the classic Misra-Gries off-by-one (insert
        #: at ``spillover`` instead of ``spillover + 1``), which
        #: undercounts churned rows and must be caught by the gap
        #: oracle.  Production value is 0.
        self.insert_offset = 0

    def register_bank(self, bank: int) -> None:
        """Record a bank attaching to this table (directive fan-out set)."""
        if bank not in self.registered_banks:
            self.registered_banks.append(bank)
            self.registered_banks.sort()

    def observe(self, bank: int, row: int, time_ns: float) -> bool:
        """Feed one ACT; returns True when a victim refresh must fire."""
        if time_ns < 0:
            raise ValueError("time must be non-negative")
        self._maybe_reset(time_ns)
        self.stats.observations += 1
        bit = 1 << bank
        entry = self.entries.get(row)
        if entry is not None:
            if entry.sav & bit:
                entry.rac += 1
                entry.sav = bit
                self.stats.rac_increments += 1
                if entry.rac % self.threshold == 0:
                    self.stats.triggers += 1
                    return True
                return False
            entry.sav |= bit
            self.stats.sav_sets += 1
            return False
        # Misra-Gries miss handling on the shared table.
        if len(self.entries) < self.num_entries:
            self.entries[row] = AbacusEntry(rac=1, sav=bit)
            self.stats.insertions += 1
            return self._insert_trigger(1)
        replaceable = [
            r for r, e in self.entries.items() if e.rac == self.spillover
        ]
        if replaceable:
            del self.entries[min(replaceable)]
            self.stats.evictions += 1
            rac = max(1, self.spillover + 1 - self.insert_offset)
            self.entries[row] = AbacusEntry(rac=rac, sav=bit)
            self.stats.insertions += 1
            return self._insert_trigger(rac)
        self.spillover += 1
        self.stats.spillover_increments += 1
        return False

    def _insert_trigger(self, rac: int) -> bool:
        """Trigger policy for a freshly inserted entry.

        Exact multiples trigger as usual.  Additionally, an entry born
        at or past the threshold triggers immediately: spillover can
        exceed ``T_abacus`` on out-of-domain streams, and waiting for
        the next exact multiple would let the inserted row skip one
        whole trigger period.  In-domain (Lemma-2-sized) streams keep
        ``spillover < T_abacus`` so this conservative arm never fires.
        """
        if rac % self.threshold == 0 or rac >= self.threshold:
            self.stats.triggers += 1
            if rac % self.threshold != 0:
                self.stats.insert_triggers += 1
            return True
        return False

    def _maybe_reset(self, time_ns: float) -> None:
        window = int(time_ns // self.window_ns)
        if window != self.current_window:
            if window < self.current_window:
                raise ValueError(
                    f"time moved backwards across windows: window {window} "
                    f"after window {self.current_window}"
                )
            self.entries.clear()
            self.spillover = 0
            self.stats.window_resets += 1
            self.current_window = window

    def tracked(self) -> dict[int, tuple[int, int]]:
        """row -> (rac, sav) snapshot of the shared table."""
        return {row: (e.rac, e.sav) for row, e in self.entries.items()}

    def table_bits(self, rows_per_bank: int, banks: int) -> int:
        address_bits = max(1, math.ceil(math.log2(max(2, rows_per_bank))))
        count_bits = 16  # the paper's RAC width
        return self.num_entries * (address_bits + count_bits + banks)


class AbacusMitigation(MitigationEngine):
    """One bank's view onto the shared ABACuS table.

    Every bank engine forwards its ACTs into the same
    :class:`AbacusState`; when the shared RAC crosses a trigger
    multiple, the *activating* engine emits one directive per
    registered bank -- the row neighborhood is refreshed everywhere,
    because the shared counter cannot tell which sibling bank's copy
    is the dangerous one.
    """

    name = "abacus"

    def __init__(
        self,
        bank: int,
        rows: int,
        state: AbacusState,
        blast_radius: int = 1,
    ) -> None:
        super().__init__(bank, rows)
        self.state = state
        self.blast_radius = blast_radius
        state.register_bank(bank)

    def _process_activation(
        self, row: int, time_ns: float
    ) -> list[RefreshDirective]:
        if not self.state.observe(self.bank, row, time_ns):
            return []
        victims = self.neighbors_of(row, self.blast_radius)
        return [
            RefreshDirective(
                bank=bank,
                victim_rows=victims,
                time_ns=time_ns,
                aggressor_row=row,
                reason="abacus-rac",
            )
            for bank in self.state.registered_banks
        ]

    def table_bits(self) -> int:
        banks = max(1, len(self.state.registered_banks))
        # The shared table is counted once per rank; report each bank's
        # share so per-bank sums match the physical budget.
        return self.state.table_bits(self.rows, banks) // banks

    def describe(self) -> str:
        return (
            f"abacus(T_abacus={self.state.threshold}, "
            f"entries={self.state.num_entries}, "
            f"banks={len(self.state.registered_banks)})"
        )


def _sized_entries(total_activations: int, threshold: int) -> int:
    """Inequality 1 against the rank-wide budget: N > W_total/T - 1."""
    minimum = math.floor(total_activations / threshold - 1) + 1
    if minimum <= total_activations / threshold - 1:
        minimum += 1
    return max(1, minimum)


def abacus_factory(
    hammer_threshold: int,
    timings: DramTimings = DDR4_2400,
    reset_window_divisor: int = 2,
    total_banks: int = DEFAULT_TOTAL_BANKS,
    num_entries: int | None = None,
    blast_radius: int | None = None,
) -> MitigationFactory:
    """Factory wiring every built bank engine to ONE shared table.

    A fresh :class:`AbacusState` is created whenever bank 0 is built,
    and subsequent banks attach to it -- matching how ``simulate`` and
    the fast-path builders construct engines (bank 0 first, ascending).
    Reusing one factory across runs is therefore safe as long as each
    run builds its engines starting from bank 0.

    Args:
        total_banks: Rank-wide bank count the shared table is sized
            for.  Oversizing (the default: one 16-bank rank) is safe
            for smaller devices; it only adds tracking capacity.
        num_entries: Explicit table capacity override (testing / area
            studies); default sizes by Inequality 1 with ``W_total``.
    """
    if total_banks < 1:
        raise ValueError(f"total_banks must be >= 1, got {total_banks}")
    #: (state, blast_radius) shared by the current run's bank engines.
    shared: list[tuple[AbacusState, int]] = []

    def build(bank: int, rows: int) -> AbacusMitigation:
        if bank == 0 or not shared:
            config = GrapheneConfig(
                hammer_threshold=hammer_threshold,
                timings=timings,
                rows_per_bank=max(2, rows),
                reset_window_divisor=reset_window_divisor,
            )
            threshold = max(1, config.tracking_threshold - 1)
            entries = num_entries
            if entries is None:
                budget = total_banks * config.max_activations_per_window
                entries = _sized_entries(budget, threshold)
            state = AbacusState(
                threshold=threshold,
                window_ns=config.reset_window_ns,
                num_entries=entries,
            )
            radius = (
                config.blast_radius if blast_radius is None else blast_radius
            )
            shared[:] = [(state, radius)]
        state, radius = shared[0]
        return AbacusMitigation(bank, rows, state, blast_radius=radius)

    return build
