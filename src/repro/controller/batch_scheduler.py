"""PAR-BS-flavored request scheduling (the paper's Table III policy).

The paper's simulated memory controller uses Parallelism-Aware Batch
Scheduling (Mutlu & Moscibroda, ISCA 2008) with a minimalist-open page
policy.  This module implements the request-level scheduler so the
performance substrate matches Table III in structure, not just in
spirit:

* outstanding requests wait in **per-bank queues**;
* periodically the scheduler forms a **batch**: up to ``batch_cap``
  oldest requests per (core, bank) are *marked*; marked requests
  strictly outrank unmarked ones (this is PAR-BS's starvation-freedom
  and fairness device);
* cores are **ranked** within a batch by their maximum queue load
  (shorter-job-first across banks maximizes bank-level parallelism);
* within the same mark/rank class, **row-buffer hits go first**
  (FR-FCFS locality), then age.

Victim refreshes and auto-refresh block banks exactly as in the rest of
the stack, and every ACT (row miss) is reported to the bank's
mitigation engine.  The simulator is event-driven over bank-free times.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from ..dram.device import DramDevice
from ..dram.geometry import DramGeometry
from ..dram.timing import DDR4_2400, DramTimings
from ..mitigations.base import MitigationFactory
from ..telemetry import runtime as _telemetry
from ..telemetry.events import NrrEmit, SchedStall

__all__ = ["MemRequest", "BatchSchedulerResult", "run_batch_scheduler"]


@dataclass(order=True)
class MemRequest:
    """One memory request (order by arrival for heap use)."""

    arrival_ns: float
    sequence: int = field(compare=True)
    core: int = field(compare=False, default=0)
    bank: int = field(compare=False, default=0)
    row: int = field(compare=False, default=0)
    is_write: bool = field(compare=False, default=False)
    # Scheduling state:
    marked: bool = field(compare=False, default=False)
    start_ns: float = field(compare=False, default=0.0)
    finish_ns: float = field(compare=False, default=0.0)


@dataclass
class BatchSchedulerResult:
    """Outcome of a scheduled run."""

    requests: int
    acts: int
    row_hits: int
    batches_formed: int
    mean_latency_ns: float
    max_latency_ns: float
    per_core_mean_latency_ns: dict[int, float]
    victim_rows_refreshed: int
    bit_flips: int

    @property
    def row_hit_rate(self) -> float:
        total = self.acts + self.row_hits
        return self.row_hits / total if total else 0.0

    def fairness_ratio(self) -> float:
        """Max/min per-core mean latency (1.0 = perfectly fair)."""
        values = [v for v in self.per_core_mean_latency_ns.values() if v > 0]
        if len(values) < 2:
            return 1.0
        return max(values) / min(values)


def run_batch_scheduler(
    requests: Iterable[MemRequest],
    factory: MitigationFactory,
    banks: int = 8,
    rows_per_bank: int = 65536,
    batch_cap: int = 5,
    timings: DramTimings = DDR4_2400,
    hammer_threshold: float = 50_000,
    track_faults: bool = False,
    max_row_run: int = 4,
) -> BatchSchedulerResult:
    """Schedule a request trace under PAR-BS + minimalist-open.

    Args:
        requests: Arrival-timed requests (sorted by arrival).
        factory: Mitigation engine factory (one per bank).
        banks: Banks in the channel.
        batch_cap: PAR-BS marking cap per (core, bank).
        max_row_run: Minimalist-open close-after-N-hits bound.
    """
    geometry = DramGeometry(
        channels=1, ranks_per_channel=1, banks_per_rank=banks,
        rows_per_bank=rows_per_bank,
    )
    device = DramDevice.build(
        geometry, timings, hammer_threshold, track_faults=track_faults
    )
    engines = [factory(b, rows_per_bank) for b in range(banks)]

    pending = sorted(requests)
    queues: list[list[MemRequest]] = [[] for _ in range(banks)]
    run_length = [0] * banks
    completed: list[MemRequest] = []
    acts = row_hits = batches = 0
    nrr_rows = 0
    bit_flips = 0
    next_arrival = 0
    now_ns = pending[0].arrival_ns if pending else 0.0

    service_hit = timings.tcl + timings.tbus
    service_miss = timings.trcd + timings.tcl + timings.tbus

    def admit_until(time_ns: float) -> None:
        nonlocal next_arrival
        while next_arrival < len(pending) and (
            pending[next_arrival].arrival_ns <= time_ns
        ):
            request = pending[next_arrival]
            queues[request.bank].append(request)
            next_arrival += 1

    def any_marked() -> bool:
        return any(r.marked for queue in queues for r in queue)

    def form_batch() -> None:
        nonlocal batches
        per_core_bank: dict[tuple[int, int], int] = {}
        for queue in queues:
            for request in sorted(queue, key=lambda r: r.arrival_ns):
                key = (request.core, request.bank)
                if per_core_bank.get(key, 0) < batch_cap:
                    request.marked = True
                    per_core_bank[key] = per_core_bank.get(key, 0) + 1
        batches += 1

    def core_ranks() -> dict[int, int]:
        """PAR-BS shortest-job ranking: cores with the smallest maximum
        per-bank marked load go first (rank 0 = best)."""
        load: dict[int, int] = {}
        for queue in queues:
            counts: dict[int, int] = {}
            for request in queue:
                if request.marked:
                    counts[request.core] = counts.get(request.core, 0) + 1
            for core, count in counts.items():
                load[core] = max(load.get(core, 0), count)
        ordered = sorted(load, key=lambda core: load[core])
        return {core: rank for rank, core in enumerate(ordered)}

    while next_arrival < len(pending) or any(queues):
        admit_until(now_ns)
        if not any(queues):
            # Idle: jump to the next arrival.
            now_ns = pending[next_arrival].arrival_ns
            continue
        if not any_marked():
            form_batch()
        ranks = core_ranks()

        progressed = False
        for bank_index in range(banks):
            queue = queues[bank_index]
            if not queue:
                continue
            bank_model = device.bank(bank_index)
            free_at = bank_model.earliest_activate(now_ns)
            if free_at > now_ns:
                continue  # bank busy; try others
            open_row = bank_model.bank.open_row

            def priority(request: MemRequest):
                is_hit = (
                    open_row == request.row
                    and run_length[bank_index] < max_row_run
                )
                return (
                    0 if request.marked else 1,
                    0 if is_hit else 1,
                    ranks.get(request.core, len(ranks)),
                    request.arrival_ns,
                )

            request = min(
                (r for r in queue if r.arrival_ns <= now_ns),
                key=priority,
                default=None,
            )
            if request is None:
                continue
            queue.remove(request)
            is_hit = (
                open_row == request.row
                and run_length[bank_index] < max_row_run
            )
            request.start_ns = now_ns
            if is_hit:
                row_hits += 1
                run_length[bank_index] += 1
                request.finish_ns = now_ns + service_hit
                # Occupy the bank for the burst (modeled via a column
                # access; the bank keeps its row open).
                bank_model.bank.access(request.row, now_ns,
                                       request.is_write)
            else:
                flips = bank_model.activate(request.row, now_ns)
                bit_flips += len(flips)
                acts += 1
                run_length[bank_index] = 0
                request.finish_ns = now_ns + service_miss
                bus = _telemetry.BUS
                if bus is not None and not bus.per_act:
                    bus = None
                for ref_event in bank_model.drain_refresh_events():
                    for directive in engines[bank_index].on_refresh_command(
                        ref_event.time_ns
                    ):
                        rows = list(directive.victim_rows)
                        bank_model.bank.nearby_row_refresh(
                            len(rows), ref_event.time_ns
                        )
                        if bank_model.faults is not None:
                            bank_model.faults.on_refresh_range(rows)
                        nrr_rows += len(rows)
                        if bus is not None:
                            bus.publish(
                                NrrEmit(
                                    time_ns=ref_event.time_ns,
                                    bank=bank_index,
                                    aggressor_row=directive.aggressor_row,
                                    victim_rows=len(rows),
                                    reason=directive.reason,
                                )
                            )
                for directive in engines[bank_index].on_activate(
                    request.row, now_ns
                ):
                    rows = list(directive.victim_rows)
                    bank_model.bank.nearby_row_refresh(len(rows), now_ns)
                    if bank_model.faults is not None:
                        bank_model.faults.on_refresh_range(rows)
                    nrr_rows += len(rows)
                    if bus is not None:
                        bus.publish(
                            NrrEmit(
                                time_ns=now_ns,
                                bank=bank_index,
                                aggressor_row=directive.aggressor_row,
                                victim_rows=len(rows),
                                reason=directive.reason,
                            )
                        )
                if request.start_ns > request.arrival_ns:
                    if bus is not None:
                        bus.publish(
                            SchedStall(
                                time_ns=request.arrival_ns,
                                bank=bank_index,
                                row=request.row,
                                delay_ns=request.start_ns
                                - request.arrival_ns,
                            )
                        )
            completed.append(request)
            progressed = True
        if not progressed:
            # Everything is blocked: advance to the earliest of the next
            # bank-free time or the next arrival.
            candidates = [
                device.bank(b).earliest_activate(now_ns)
                for b in range(banks)
                if queues[b]
            ]
            if next_arrival < len(pending):
                candidates.append(pending[next_arrival].arrival_ns)
            now_ns = max(min(candidates), now_ns + timings.trc / 4)

    latencies = [r.finish_ns - r.arrival_ns for r in completed]
    per_core: dict[int, list[float]] = {}
    for request in completed:
        per_core.setdefault(request.core, []).append(
            request.finish_ns - request.arrival_ns
        )
    return BatchSchedulerResult(
        requests=len(completed),
        acts=acts,
        row_hits=row_hits,
        batches_formed=batches,
        mean_latency_ns=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        max_latency_ns=max(latencies, default=0.0),
        per_core_mean_latency_ns={
            core: sum(values) / len(values)
            for core, values in per_core.items()
        },
        victim_rows_refreshed=nrr_rows,
        bit_flips=bit_flips,
    )


def requests_from_profile(
    workload: str,
    duration_ns: float,
    cores: int = 4,
    banks: int = 8,
    rows_per_bank: int = 65536,
    seed: int = 0,
) -> list[MemRequest]:
    """Arrival-timed request trace derived from a workload profile.

    Requests arrive open-loop at the profile's calibrated rate, spread
    over cores round-robin, with rows drawn from the profile's event
    generator (so spatial structure carries over).
    """
    from ..workloads.spec_like import REALISTIC_PROFILES, profile_events

    profile = REALISTIC_PROFILES[workload]
    counter = itertools.count()
    requests = []
    for event in profile_events(
        profile, duration_ns, banks=1, rows_per_bank=rows_per_bank,
        seed=seed,
    ):
        sequence = next(counter)
        requests.append(
            MemRequest(
                arrival_ns=event.time_ns,
                sequence=sequence,
                core=sequence % cores,
                bank=(event.row >> 6) % banks,
                row=event.row,
                is_write=sequence % 4 == 0,
            )
        )
    return requests
