"""The trace-driven simulation harness.

:func:`simulate` wires one workload trace through the full stack --
memory controller, mitigation engines, DRAM banks, auto refresh, fault
referee -- and returns a :class:`~repro.sim.metrics.SimulationResult`.
Every figure-regenerating experiment in :mod:`repro.experiments` is a
set of :func:`simulate` calls with different factories and traces.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable

from ..controller.mc import MemoryController
from ..dram.device import DramDevice
from ..dram.faults import CouplingProfile
from ..dram.geometry import DramGeometry
from ..dram.timing import DDR4_2400, DramTimings
from ..mitigations.base import MitigationFactory
from ..telemetry import runtime as _telemetry
from ..telemetry.events import FastPathFallback
from ..workloads.trace import ActEvent
from .metrics import SimulationResult

__all__ = ["simulate", "build_device"]

_log = logging.getLogger("repro.sim")


def build_device(
    banks: int = 1,
    rows_per_bank: int = 65536,
    timings: DramTimings = DDR4_2400,
    hammer_threshold: float = 50_000,
    coupling: CouplingProfile | None = None,
    track_faults: bool = True,
    ranks: int = 1,
) -> DramDevice:
    """Construct a compact single-channel device for experiments.

    The paper's per-bank metrics are independent across banks, so most
    experiments run a handful of banks rather than all 64 of Table III;
    results are always normalized per bank per window.  ``ranks``
    scales the geometry to whole ranks (``ranks * banks`` total banks,
    flat bank indices) for system-scale sweeps such as the multi-rank
    hot-path bench.
    """
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=ranks,
        banks_per_rank=banks,
        rows_per_bank=rows_per_bank,
    )
    return DramDevice.build(
        geometry=geometry,
        timings=timings,
        hammer_threshold=hammer_threshold,
        coupling=coupling,
        track_faults=track_faults,
    )


def simulate(
    events: Iterable[ActEvent],
    factory: MitigationFactory,
    scheme: str,
    workload: str,
    banks: int = 1,
    rows_per_bank: int = 65536,
    timings: DramTimings = DDR4_2400,
    hammer_threshold: float = 50_000,
    coupling: CouplingProfile | None = None,
    track_faults: bool = True,
    duration_ns: float | None = None,
    fast: bool = False,
    chunk_events: int | None = None,
    ranks: int = 1,
) -> SimulationResult:
    """Run one (workload, scheme) pair through the full system.

    Args:
        events: Time-sorted ACT stream (from :mod:`repro.workloads`).
        factory: Builds one mitigation engine per bank.
        scheme: Label for the result.
        workload: Label for the result.
        banks: Banks per rank in the simulated device; events' ``bank``
            fields must be < ``banks * ranks``.
        rows_per_bank: Row address space per bank.
        timings: DRAM timing bundle.
        hammer_threshold: ``T_RH`` for the fault referee.
        coupling: Disturbance profile for the referee and NRR radius.
        track_faults: Disable for pure overhead runs (big speedup, no
            bit-flip verdicts).
        duration_ns: Period the result is normalized over; defaults to
            the last event time rounded up to a whole refresh window
            (per-window metrics need whole windows), or 0 when the
            stream is empty.
        fast: Route through the columnar batch engine
            (:mod:`repro.core.fastpath`) when the scheme supports it;
            results are byte-identical to the reference engine, which
            remains the automatic fallback (an ``events``-level
            telemetry bus installed, or a scheme without a batched
            kernel; a ``metrics``-level bus keeps the fast engine).  A
            fallback logs a one-line warning on the ``repro.sim``
            logger naming the reason, and with a bus installed also
            publishes a :class:`~repro.telemetry.events.FastPathFallback`
            event, so a silent ~1x run is visible.
        chunk_events: With ``fast=True``, stream the trace through the
            engine in chunks of at most this many events (state carried
            across chunk boundaries; bit-identical).  Bounds working
            memory for traces larger than RAM.
        ranks: Ranks in the device (``banks`` is per rank); flat bank
            indices span ``banks * ranks``.

    Returns:
        The complete result bundle.
    """
    total_banks = banks * ranks
    device = build_device(
        banks=banks,
        rows_per_bank=rows_per_bank,
        timings=timings,
        hammer_threshold=hammer_threshold,
        coupling=coupling,
        track_faults=track_faults,
        ranks=ranks,
    )
    controller = None
    if fast:
        from ..core.fastpath import build_fast_controller_ex

        controller, fallback_reason = build_fast_controller_ex(
            device, factory
        )
        if controller is None:
            # Make the silent ~1x fallback visible: the caller asked for
            # the batch engine and is getting the reference loop.
            _log.warning(
                "simulate(fast=True) falling back to the reference "
                "engine for scheme %r workload %r: %s",
                scheme,
                workload,
                fallback_reason,
            )
            bus = _telemetry.BUS
            if bus is not None:
                bus.publish(
                    FastPathFallback(
                        time_ns=0.0,
                        scheme=scheme,
                        workload=workload,
                        reason=str(fallback_reason),
                    )
                )

    last_time_ns = 0.0
    if controller is not None:
        controller.run(events, chunk_events=chunk_events)
        last_time_ns = controller.last_event_ns
    else:
        controller = MemoryController(device, factory)
        for event in events:
            controller.step(event)
            last_time_ns = event.time_ns

    if duration_ns is None:
        if controller.counters.acts_issued == 0:
            # An empty stream simulated nothing: report a zero-length
            # run instead of fabricating a whole refresh window.
            duration_ns = 0.0
        else:
            windows = max(1, math.ceil(last_time_ns / timings.trefw))
            duration_ns = windows * timings.trefw

    stats = device.total_stats()
    largest = max(
        (engine.stats.largest_directive_rows for engine in controller.engines),
        default=0,
    )
    return SimulationResult(
        scheme=scheme,
        workload=workload,
        banks=total_banks,
        rows_per_bank=rows_per_bank,
        duration_ns=duration_ns,
        acts=controller.counters.acts_issued,
        victim_refresh_directives=controller.counters.nrr_commands,
        victim_rows_refreshed=controller.counters.nrr_rows,
        largest_directive_rows=largest,
        bit_flips=controller.counters.bit_flips,
        latency=controller.latency_summary(),
        bank_stats=stats,
        timings=timings,
    )
