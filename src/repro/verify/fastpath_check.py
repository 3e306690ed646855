"""Differential subject: the columnar fast path vs the reference engine.

The fast path (:mod:`repro.core.fastpath`) promises *byte-identical*
results, not approximately-equal ones, and since the kernel registry
covers every scheme in :data:`KERNEL_SCHEMES` the promise is
per-scheme.  This subject runs every verify stream through the
reference stack and three fast stacks -- the whole stream at once, a
lazy ``ActEvent`` stream in three chunks, and the whole stream under a
``metrics``-level telemetry bus (``/metrics``) -- once per kernel
scheme and compares everything observable:

* the serialized :class:`~repro.sim.metrics.SimulationResult` (which
  folds in latency buckets, bank stats and controller counters),
* the full executed-directive log (order, victim rows, reasons),
* every recorded :class:`~repro.dram.faults.BitFlip`,
* each bank's final tracking-table state (Misra-Gries table, TWiCe
  entry table, CBT leaf partition, PARA generator state, PRoHIT's
  hot/cold tables and generator state, CRA's counter cache and backing
  table, MRLoc's history queue, generator state and hit/miss counts,
  refresh-rate pointer, the unprotected baseline's ACT count --
  see :func:`repro.core.fast_kernels.reference_state`);
* for the ``/metrics`` stack, the registry snapshot against the
  reference run under its own ``metrics`` bus (``fastpath.*`` keys
  aside), and that neither bus retained a per-ACT event.

PARA, PRoHIT and MRLoc are probabilistic but the comparison is still
exact:
both stacks build their engines from the same seeded factory, and the
kernel contract includes leaving the generator in the bit-identical
state the scalar loop would.  Any mismatch is a ``divergence`` violation,
addressable enough for the shrinker to minimize.  The stream is
repaced to DDR4 timings exactly like the ``mitigation:*`` subjects so
the two layers see the same traffic.  When the fast path declines to
build (an ``events``-level telemetry bus active, as under
``verify --telemetry``), the subject reports itself skipped rather
than silently passing.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Sequence

from ..core.fastpath import build_fast_controller_ex
from ..dram.timing import DDR4_2400
from ..telemetry.runtime import TelemetryBus, session
from ..workloads.trace import ActEvent
from .generators import VerifyScale

__all__ = [
    "KERNEL_SCHEMES",
    "run_fastpath_check",
    "fastpath_subject",
    "without_fastpath",
]

#: Same DDR4 pacing the mitigation subjects use (one ACT per tRC).
_PACE_INTERVAL_NS = 45.0

#: Every scheme with a registered batched kernel; each verify stream is
#: differentially checked once per entry.  ABACuS declares the
#: ``cross_bank`` capability, so both of its fast stacks run on the
#: vectorized cross-bank lane -- ``commit_run_banked`` over interleaved
#: multi-bank segments.  PARA, PRoHIT and MRLoc carry RNG state, so
#: their generator positions are compared too; MRLoc's kernel is also
#: the one that returns directives from ``commit_run``.  The
#: unprotected ``none`` is the entry whose hammering streams actually
#: flip bits, so it is what checks the batched fault referee against
#: the reference.  The oracle has no kernel and is not listed.
KERNEL_SCHEMES = (
    "graphene", "para", "twice", "cbt", "refresh-rate", "comet", "abacus",
    "none", "prohit", "cra", "mrloc",
)


def _result_dict(controller, device, scheme, banks, rows_per_bank,
                 last_time_ns, duration_ns) -> dict[str, Any]:
    """Mirror :func:`repro.sim.simulator.simulate`'s result assembly."""
    from ..sim.metrics import SimulationResult

    if duration_ns is None:
        if controller.counters.acts_issued == 0:
            duration_ns = 0.0
        else:
            windows = max(1, math.ceil(last_time_ns / DDR4_2400.trefw))
            duration_ns = windows * DDR4_2400.trefw
    stats = device.total_stats()
    largest = max(
        (engine.stats.largest_directive_rows for engine in controller.engines),
        default=0,
    )
    return SimulationResult(
        scheme=scheme,
        workload="verify-fastpath",
        banks=banks,
        rows_per_bank=rows_per_bank,
        duration_ns=duration_ns,
        acts=controller.counters.acts_issued,
        victim_refresh_directives=controller.counters.nrr_commands,
        victim_rows_refreshed=controller.counters.nrr_rows,
        largest_directive_rows=largest,
        bit_flips=controller.counters.bit_flips,
        latency=controller.latency_summary(),
        bank_stats=stats,
        timings=DDR4_2400,
    ).to_dict()


def _directive_rows(log) -> list[tuple]:
    return [
        (d.bank, d.aggressor_row, tuple(d.victim_rows), d.time_ns, d.reason)
        for d in log
    ]


def _flip_rows(flips) -> list[tuple]:
    return [
        (f.bank, f.row, f.time_ns, f.disturbance, f.triggering_aggressor)
        for f in flips
    ]


def without_fastpath(snapshot: dict[str, Any]) -> dict[str, Any]:
    """A registry snapshot minus the fast engine's own ``fastpath.*``
    metrics -- what both engines must agree on."""
    return {
        kind: {
            name: value
            for name, value in metrics.items()
            if not name.startswith("fastpath.")
        }
        for kind, metrics in snapshot.items()
    }

def _check_scheme(
    scheme: str,
    paced: Sequence[ActEvent],
    duration_ns: float,
    scale: VerifyScale,
) -> tuple[list, dict[str, Any] | None, dict[str, Any]]:
    """One scheme through the reference stack and every fast stack.

    The ``/chunked`` stack streams the events as a lazy iterable in
    chunks of a third of the stream, so kernel and bank state must
    carry across chunk boundaries exactly.  The ``/metrics`` stack is
    built and run under a ``metrics``-level bus, as campaign cells
    are.  Returns ``(violations, skipped, stats)``; ``skipped`` is
    non-None only when the fast controller refused to build.
    """
    from ..controller.mc import MemoryController
    from ..core.fast_kernels import reference_state
    from ..sim.simulator import build_device
    from ..workloads.columnar import TraceArray
    from .differential import Violation, _mitigation_factory

    subject = "fastpath"
    trh = scale.mitigation_trh

    def device():
        return build_device(
            banks=scale.banks,
            rows_per_bank=scale.rows_per_bank,
            hammer_threshold=scale.mitigation_trh,
            track_faults=True,
        )

    # (label-suffix, controller, device) per fast stack.
    metrics_bus = TelemetryBus(events=False)
    stacks = []
    for label in ("", "/chunked", "/metrics"):
        fast_device = device()
        with (
            session(metrics_bus) if label == "/metrics"
            else contextlib.nullcontext()
        ):
            fast, reason = build_fast_controller_ex(
                fast_device, _mitigation_factory(scheme, trh),
                keep_directive_log=True,
            )
        if fast is None:
            return [], {"skipped": f"fast path unavailable ({reason})"}, {}
        stacks.append((label, fast, fast_device))
    (_, whole, _), (_, chunked, _), (_, metered, _) = stacks

    ref_device = device()
    reference = MemoryController(
        ref_device, _mitigation_factory(scheme, trh),
        keep_directive_log=True,
    )
    ref_bus = TelemetryBus(events=False)
    try:
        with session(ref_bus):
            reference.run(iter(paced))
        whole.run(TraceArray.from_events(paced))
        chunked.run(iter(paced), chunk_events=max(1, len(paced) // 3))
        with session(metrics_bus):
            metered.run(TraceArray.from_events(paced))
    except Exception as exc:  # noqa: BLE001 - crash capture is the point
        return (
            [Violation(
                subject, "crash", f"[{scheme}] {type(exc).__name__}: {exc}"
            )],
            None,
            {},
        )

    last_time_ns = paced[-1].time_ns if paced else 0.0
    stats = {
        "acts": whole.counters.acts_issued,
        "directives": whole.counters.nrr_commands,
        "flips": whole.counters.bit_flips,
    }

    ref_result = _result_dict(
        reference, ref_device, scheme, scale.banks, scale.rows_per_bank,
        last_time_ns, duration_ns,
    )
    ref_log = _directive_rows(reference.directive_log)
    ref_flips = _flip_rows(reference.bit_flips)

    for label, fast, fast_device in stacks:
        tag = f"{scheme}{label}"
        fast_result = _result_dict(
            fast, fast_device, scheme, scale.banks, scale.rows_per_bank,
            last_time_ns, duration_ns,
        )
        if ref_result != fast_result:
            keys = sorted(
                k for k in ref_result
                if ref_result[k] != fast_result.get(k)
            )
            return (
                [Violation(
                    subject, "divergence",
                    f"[{tag}] SimulationResult mismatch in field(s) "
                    + ", ".join(
                        f"{k}: ref={ref_result[k]!r} "
                        f"fast={fast_result.get(k)!r}"
                        for k in keys
                    ),
                )],
                None,
                stats,
            )

        fast_log = _directive_rows(fast.directive_log)
        if ref_log != fast_log:
            first = next(
                (i for i, (a, b) in enumerate(zip(ref_log, fast_log))
                 if a != b),
                min(len(ref_log), len(fast_log)),
            )
            return (
                [Violation(
                    subject, "divergence",
                    f"[{tag}] directive logs diverge at index {first}: "
                    f"ref has {len(ref_log)} directives, "
                    f"fast {len(fast_log)}; "
                    f"ref[{first}]="
                    f"{ref_log[first] if first < len(ref_log) else None!r} "
                    f"fast[{first}]="
                    f"{fast_log[first] if first < len(fast_log) else None!r}",
                )],
                None,
                stats,
            )

        if ref_flips != _flip_rows(fast.bit_flips):
            return (
                [Violation(
                    subject, "divergence",
                    f"[{tag}] bit-flip records diverge: "
                    f"ref={len(reference.bit_flips)} "
                    f"fast={len(fast.bit_flips)}",
                )],
                None,
                stats,
            )

        for bank in range(scale.banks):
            ref_state = reference_state(reference.engines[bank])
            fast_state = fast.engines[bank].table_state()
            if ref_state != fast_state:
                return (
                    [Violation(
                        subject, "divergence",
                        f"[{tag}] bank {bank} table state diverged: "
                        f"ref={ref_state!r} fast={fast_state!r}",
                    )],
                    None,
                    stats,
                )

    tag = f"{scheme}/metrics"
    ref_metrics = without_fastpath(ref_bus.registry.snapshot())
    fast_metrics = without_fastpath(metrics_bus.registry.snapshot())
    if ref_metrics != fast_metrics:
        diverged = "; ".join(
            f"{name}: ref={ref.get(name)!r} fast={fast.get(name)!r}"
            for ref, fast in (
                (ref_metrics[kind], fast_metrics[kind]) for kind in ref_metrics
            )
            for name in sorted(set(ref) | set(fast))
            if ref.get(name) != fast.get(name)
        )
        return (
            [Violation(
                subject, "divergence",
                f"[{tag}] metrics registry diverged: {diverged}",
            )],
            None,
            stats,
        )
    retained = [type(e).__name__ for e in ref_bus.events + metrics_bus.events]
    if retained:
        return (
            [Violation(
                subject, "divergence",
                f"[{tag}] a metrics bus retained per-ACT events: "
                f"{sorted(set(retained))}",
            )],
            None,
            stats,
        )
    return [], None, stats


def run_fastpath_check(
    events: Sequence[ActEvent], scale: VerifyScale,
) -> tuple[list, dict[str, Any]]:
    """Run one stream through both engines for every kernel scheme.

    Any difference for any scheme is a bug; the first divergence is
    returned (with the scheme named in the detail) so the shrinker has
    one addressable failure to minimize.  ``stats`` aggregates across
    schemes and records the roster size.
    """
    paced = [
        ActEvent(index * _PACE_INTERVAL_NS, event.bank, event.row)
        for index, event in enumerate(events)
    ]
    duration_ns = (len(paced) + 1) * _PACE_INTERVAL_NS

    totals = {"acts": 0, "directives": 0, "flips": 0}
    for scheme in KERNEL_SCHEMES:
        violations, skipped, stats = _check_scheme(
            scheme, paced, duration_ns, scale
        )
        if skipped is not None:
            # Events-level bus installed: the fast path correctly
            # refuses to build (it cannot publish per-ACT events) for
            # every scheme alike.  Nothing to compare.
            return [], skipped
        if violations:
            return violations, stats
        for key in totals:
            totals[key] += stats.get(key, 0)
    totals["schemes"] = len(KERNEL_SCHEMES)
    return [], totals


def fastpath_subject(scale: VerifyScale):
    """Subject-roster entry (shape matches ``core_subjects`` values)."""
    return lambda ev: run_fastpath_check(ev, scale)
