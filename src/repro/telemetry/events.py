"""Typed telemetry events: the vocabulary engines publish in.

Each event is a small frozen dataclass naming one thing that happened
inside the simulated machine, stamped with the *simulated* time it
happened at (``time_ns``) and the bank it happened in where that is
meaningful.  The taxonomy follows the counter dynamics the paper's
guarantees live in:

* :class:`TableInsert` / :class:`TableEvict` -- Misra-Gries (or
  Space-Saving) entry turnover;
* :class:`SpilloverBump` -- the miss-with-no-replaceable-entry path
  whose growth Lemma 2 bounds;
* :class:`NrrEmit` -- a victim-refresh directive executed by the
  memory controller (any scheme);
* :class:`WindowReset` -- a tREFW/k table reset, carrying the state
  being discarded;
* :class:`SchedStall` -- an ACT delayed because its bank was blocked
  (the paper's entire performance-overhead mechanism);
* :class:`CacheHit` / :class:`CacheMiss` -- result-cache outcomes in
  the experiment runner (host-side; ``time_ns`` is 0);
* :class:`OracleViolation` -- the adversarial-verification subsystem
  (:mod:`repro.verify`) caught an implementation disagreeing with the
  exact-count protection oracle (host-side; ``time_ns`` is 0);
* :class:`FastPathFallback` -- ``simulate(fast=True)`` ran on the
  reference loop instead, and why (host-side; ``time_ns`` is 0).

The first six are *per-ACT* events: only a bus at the ``events`` level
receives them (see :mod:`repro.telemetry.runtime`).  The host-side
ones are job-level and reach a bus at either level.

Every event carries an optional ``job`` label, stamped when per-job
event streams are merged across the process-pool boundary so a merged
trace still attributes events to the simulation that produced them.

``event_record`` / ``event_from_record`` convert events to and from
flat JSON-able dicts -- the one serialization the JSONL exporter, the
Chrome-trace exporter and cross-process shipping all share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

__all__ = [
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
]


@dataclass(frozen=True, slots=True)
class TableInsert:
    """A row entered the counter table (fresh slot or post-eviction)."""

    time_ns: float
    bank: int
    row: int
    #: The entry's estimated count right after insertion (1 for a fresh
    #: slot, spillover + 1 after a carry-over replacement).
    count: int
    job: str | None = None


@dataclass(frozen=True, slots=True)
class TableEvict:
    """A tracked row was replaced by an incoming miss."""

    time_ns: float
    bank: int
    #: The row that lost its entry.
    row: int
    #: The count the incoming row inherited (the carry-over that makes
    #: estimates over-approximate).
    inherited_count: int
    #: The row that took the slot.
    new_row: int
    job: str | None = None


@dataclass(frozen=True, slots=True)
class SpilloverBump:
    """A miss found no replaceable entry; only the spillover grew."""

    time_ns: float
    bank: int
    row: int
    #: Spillover count after the increment.
    spillover: int
    job: str | None = None


@dataclass(frozen=True, slots=True)
class NrrEmit:
    """A victim-refresh directive was executed as an NRR command."""

    time_ns: float
    bank: int
    #: Suspected aggressor, when the scheme knows it (None for CBT's
    #: region refreshes).
    aggressor_row: int | None
    #: How many victim rows the NRR refreshed.
    victim_rows: int
    #: The scheme's reason label ("T x 2", "probabilistic", ...).
    reason: str = "threshold"
    job: str | None = None


@dataclass(frozen=True, slots=True)
class WindowReset:
    """A tREFW/k reset wiped the table and spillover count."""

    time_ns: float
    bank: int
    #: Index of the window being *entered*.
    window: int
    #: Entries discarded by the reset.
    tracked_rows: int
    #: Spillover count discarded by the reset.
    spillover: int
    job: str | None = None


@dataclass(frozen=True, slots=True)
class SchedStall:
    """An ACT could not issue at its arrival time (bank blocked)."""

    time_ns: float
    bank: int
    row: int
    #: How long the ACT queued before the bank freed up.
    delay_ns: float
    job: str | None = None


@dataclass(frozen=True, slots=True)
class CacheHit:
    """The result cache satisfied a job without recomputing."""

    time_ns: float
    key: str
    label: str = ""
    job: str | None = None


@dataclass(frozen=True, slots=True)
class CacheMiss:
    """The result cache had no usable entry for a job."""

    time_ns: float
    key: str
    label: str = ""
    job: str | None = None


@dataclass(frozen=True, slots=True)
class OracleViolation:
    """A differential-fuzzing check failed against the exact oracle.

    Published by :mod:`repro.verify` campaigns so traced fuzz runs
    surface failures inside the same event stream as everything else.
    """

    time_ns: float
    #: Which implementation failed ("graphene", "tracker:count-min",
    #: "hardware-vs-logical", "mitigation:twice", ...).
    subject: str
    #: Violation class ("theorem", "lemma1", "lemma2", "gap",
    #: "divergence", "bit-flips", "crash").
    kind: str
    #: Generator that produced the offending stream.
    generator: str
    #: Stream seed (replays the failure deterministically).
    seed: int
    #: Stream index at which the violation was detected (None when the
    #: check only runs at end of stream).
    step: int | None = None
    detail: str = ""
    job: str | None = None


@dataclass(frozen=True, slots=True)
class FastPathFallback:
    """``simulate(fast=True)`` fell back to the reference loop.

    Published once per simulation, so a campaign or traced experiment
    can name every cell that ran slow and why.
    """

    time_ns: float
    scheme: str
    workload: str
    #: Why the fast controller declined (``build_fast_controller_ex``).
    reason: str
    job: str | None = None


TelemetryEvent = (
    TableInsert
    | TableEvict
    | SpilloverBump
    | NrrEmit
    | WindowReset
    | SchedStall
    | CacheHit
    | CacheMiss
    | OracleViolation
    | FastPathFallback
)

#: Name -> class, for deserialization and exporter dispatch.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        TableInsert,
        TableEvict,
        SpilloverBump,
        NrrEmit,
        WindowReset,
        SchedStall,
        CacheHit,
        CacheMiss,
        OracleViolation,
        FastPathFallback,
    )
}


def event_record(event: TelemetryEvent | Mapping[str, Any]) -> dict[str, Any]:
    """Flatten an event to ``{"type": name, **fields}`` (JSON-able).

    Mappings pass through as-is (they are already records): exporters
    re-serializing a stream that contains foreign event types -- e.g. a
    JSONL log written by a newer version of this package -- must not
    lose those records just because this version cannot type them.
    """
    if isinstance(event, Mapping):
        return dict(event)
    record = asdict(event)
    record["type"] = type(event).__name__
    return record


def event_from_record(
    record: Mapping[str, Any], strict: bool = True
) -> TelemetryEvent | dict[str, Any]:
    """Rebuild an event from :func:`event_record` output.

    With ``strict=True`` (the default) an unknown event type or an
    unexpected field raises ``ValueError``.  With ``strict=False`` such
    records come back as plain dicts instead -- the forward-compatible
    mode log readers use so a stream written by a newer version (new
    event types, new fields) survives a round trip byte-identically
    rather than crashing the reader.
    """
    data = dict(record)
    name = data.pop("type", None)
    cls = EVENT_TYPES.get(name)
    if cls is None:
        if strict:
            raise ValueError(f"unknown telemetry event type {name!r}")
        return dict(record)
    allowed = {f.name for f in fields(cls)}
    unexpected = set(data) - allowed
    if unexpected:
        if strict:
            raise ValueError(
                f"unexpected fields for {name}: {sorted(unexpected)}"
            )
        return dict(record)
    return cls(**data)
