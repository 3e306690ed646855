"""The telemetry bus and the process-wide on/off switch.

The whole subsystem hangs off one module global, :data:`BUS`.  It is
``None`` by default, and instrumented hot paths gate *all* telemetry
work behind a single read-and-branch::

    from ..telemetry import runtime as _telemetry
    ...
    bus = _telemetry.BUS
    if bus is not None:
        bus.publish(TableInsert(...))

With telemetry disabled that costs one module-attribute load and one
``is not None`` test per ACT -- no allocation, no call.  Engines must
read ``_telemetry.BUS`` (attribute access on the module object) rather
than ``from ... import BUS``, so mid-process installs are observed.

A bus runs at one of two levels, fixed at construction:

* ``events`` (the default, ``TelemetryBus()``) retains per-ACT records
  -- ``TableInsert``, ``TableEvict``, ``SpilloverBump``, ``NrrEmit``,
  ``WindowReset``, ``SchedStall`` -- on top of the metrics.  Only the
  reference engine can produce them, so the fast path declines to
  build under an ``events`` bus;
* ``metrics`` (``TelemetryBus(events=False)``) keeps counters and
  histograms plus job-level events (cache outcomes, fast-path
  fallbacks, oracle violations).  Per-ACT publish sites gate on
  ``bus is not None and bus.per_act``, so they publish nothing, and
  the fast engine runs, folding its aggregates into the registry.

:func:`session` is the supported way to turn telemetry on: it installs
a bus for the duration of a ``with`` block and restores the previous
state afterwards, so nested sessions and test isolation both work.
Worker processes in the experiment runner open their own session
around each job and ship the bus state back to the parent
(:meth:`TelemetryBus.export_state` / :meth:`TelemetryBus.absorb`).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Iterator, Mapping

from .events import TelemetryEvent
from .registry import MetricsRegistry
from .sampler import TimeSeriesSampler

__all__ = [
    "TelemetryBus",
    "BUS",
    "install",
    "uninstall",
    "current",
    "session",
]


class TelemetryBus:
    """Collects published events, counts them, and fans out to hooks.

    Args:
        registry: Metrics store; a fresh enabled one by default.
        sampler: Optional time-series sampler fed every event.
        max_events: Retention cap on the in-memory event list.  Beyond
            the cap events are *counted but dropped* (the
            ``events.dropped`` counter records how many), so a
            long-running traced simulation degrades to metrics-only
            instead of exhausting memory.  ``None`` retains everything.
        events: ``True`` for the ``events`` level (per-ACT records),
            ``False`` for the ``metrics`` level; stored as
            :attr:`per_act` (:attr:`events` is the retained list).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sampler: TimeSeriesSampler | None = None,
        max_events: int | None = None,
        events: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = sampler
        self.max_events = max_events
        #: Whether per-ACT sites publish into this bus (``events``
        #: level) or leave it to counters and histograms (``metrics``).
        self.per_act = events
        self.events: list[TelemetryEvent] = []
        self.dropped = 0
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []
        self._absorbed_samples: list[dict[str, Any]] = []

    @property
    def level(self) -> str:
        """``"events"`` or ``"metrics"``."""
        return "events" if self.per_act else "metrics"

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self, event: TelemetryEvent) -> None:
        """Record one event (called from instrumented hot paths)."""
        self.registry.counter(f"events.{type(event).__name__}").inc()
        if self.max_events is None or len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
            self.registry.counter("events.dropped").inc()
        sampler = self.sampler
        if sampler is not None:
            sampler.observe(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        """Invoke ``fn`` synchronously on every future publish."""
        self._subscribers.append(fn)

    # ------------------------------------------------------------------
    # Process-boundary transport
    # ------------------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Picklable snapshot: events + metrics + samples + drop count."""
        if self.sampler is not None:
            self.sampler.finish()
        return {
            "events": list(self.events),
            "metrics": self.registry.snapshot(),
            "samples": list(self.sampler.samples) if self.sampler else [],
            "dropped": self.dropped,
        }

    def absorb(
        self, state: Mapping[str, Any], job: str | None = None
    ) -> None:
        """Merge a worker bus's :meth:`export_state` into this bus.

        Events and samples append in the order given (callers merge in
        deterministic submission order, which is what makes parallel
        traces reproducible); ``job`` stamps each absorbed event so a
        merged stream still attributes events to their run.
        """
        for event in state.get("events", ()):
            if job is not None and event.job is None:
                event = dataclasses.replace(event, job=job)
            if self.max_events is None or len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped += 1
                self.registry.counter("events.dropped").inc()
        self.registry.merge(state.get("metrics", {}))
        samples = state.get("samples", ())
        if samples:
            self.absorbed_samples.extend(
                dict(sample, job=job) if job is not None else dict(sample)
                for sample in samples
            )
        self.dropped += state.get("dropped", 0)

    @property
    def absorbed_samples(self) -> list[dict[str, Any]]:
        """Samples merged in from worker buses."""
        return self._absorbed_samples

    def all_samples(self) -> list[dict[str, Any]]:
        """This bus's own samples plus everything absorbed."""
        own = list(self.sampler.samples) if self.sampler else []
        return own + self.absorbed_samples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TelemetryBus(level={self.level}, events={len(self.events)}, "
            f"dropped={self.dropped}, sampler={self.sampler is not None})"
        )


#: The process-wide active bus; ``None`` means telemetry is off and
#: instrumented code takes its zero-cost branch.
BUS: TelemetryBus | None = None


def install(bus: TelemetryBus) -> TelemetryBus:
    """Make ``bus`` the active bus; returns it."""
    global BUS
    BUS = bus
    return bus


def uninstall() -> None:
    """Turn telemetry off (restores the zero-cost fast path)."""
    global BUS
    BUS = None


def current() -> TelemetryBus | None:
    """The active bus, or ``None`` when telemetry is off."""
    return BUS


@contextlib.contextmanager
def session(bus: TelemetryBus | None = None) -> Iterator[TelemetryBus]:
    """Activate a bus for a ``with`` block; restore the old state after.

    A fresh default bus is created when none is given.
    """
    global BUS
    active = bus if bus is not None else TelemetryBus()
    previous = BUS
    BUS = active
    try:
        yield active
    finally:
        BUS = previous
