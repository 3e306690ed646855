"""Observability for the simulated machine (engine-level telemetry).

The paper's guarantees are statements about counter *dynamics* --
Misra-Gries insertions and evictions, spillover growth, NRR bursts,
window resets -- but a :class:`~repro.sim.metrics.SimulationResult`
only reports end-of-run aggregates.  This package makes the dynamics
visible without taxing untraced runs:

* :mod:`~repro.telemetry.registry` -- ``Counter`` / ``Gauge`` /
  ``Histogram`` metrics with a shared no-op singleton for disabled
  mode;
* :mod:`~repro.telemetry.events` -- the typed event vocabulary
  (``TableInsert``, ``TableEvict``, ``SpilloverBump``, ``NrrEmit``,
  ``WindowReset``, ``SchedStall``, ``CacheHit``/``CacheMiss``,
  ``FastPathFallback``);
* :mod:`~repro.telemetry.runtime` -- the :class:`TelemetryBus` and the
  process-wide ``BUS`` switch; hot paths pay exactly one branch when
  telemetry is off.  A bus runs at the ``events`` level (per-ACT
  records, reference engine only) or the ``metrics`` level
  (``TelemetryBus(events=False)``: counters and histograms, which the
  fast engine supports);
* :mod:`~repro.telemetry.sampler` -- fixed simulated-time-interval
  snapshots of per-bank table occupancy, spillover and NRR rate;
* :mod:`~repro.telemetry.export` -- JSONL logs, Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` or Perfetto) and
  terminal summaries.

Turn it on with ``repro trace <workload> <scheme>`` or
``repro experiment <name> --telemetry``; programmatically::

    from repro.telemetry import TelemetryBus, session, write_chrome_trace

    with session(TelemetryBus()) as bus:
        simulate(events, factory, ...)
    write_chrome_trace(bus.events, "run.trace.json")

See ``docs/observability.md`` for the event taxonomy and formats.
"""

from .events import (
    EVENT_TYPES,
    CacheHit,
    CacheMiss,
    FastPathFallback,
    NrrEmit,
    OracleViolation,
    SchedStall,
    SpilloverBump,
    TableEvict,
    TableInsert,
    TelemetryEvent,
    WindowReset,
    event_from_record,
    event_record,
)
from .export import (
    iter_jsonl,
    summarize,
    summarize_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .registry import NULL_METRIC, Counter, Gauge, Histogram, MetricsRegistry
from .runtime import TelemetryBus, current, install, session, uninstall
from .sampler import TimeSeriesSampler

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "TelemetryBus",
    "TimeSeriesSampler",
    "TelemetryEvent",
    "TableInsert",
    "TableEvict",
    "SpilloverBump",
    "NrrEmit",
    "WindowReset",
    "SchedStall",
    "CacheHit",
    "CacheMiss",
    "OracleViolation",
    "FastPathFallback",
    "EVENT_TYPES",
    "event_record",
    "event_from_record",
    "install",
    "uninstall",
    "current",
    "session",
    "write_jsonl",
    "iter_jsonl",
    "write_chrome_trace",
    "summarize",
    "summarize_jsonl",
]
