"""Batched hot path: per-scheme kernels + per-bank lane dispatch.

:func:`repro.sim.simulator.simulate` normally pushes every ACT through
``MemoryController.step`` one :class:`~repro.workloads.trace.ActEvent`
at a time -- per-ACT Python dispatch plus dict/set churn inside the
tracking tables is what makes full-tREFW runs minutes-long.  This
module provides the same semantics in batch form:

* :class:`FastKernel` -- the protocol a scheme implements to join the
  batch engine: a scalar path that replays the reference engine
  operation-for-operation, plus :meth:`~FastKernel.commit_run`, which
  consumes a *prefix* of a pre-validated event run in bulk;
* a **kernel registry** (:func:`register_kernel` / :func:`kernel_for`)
  mapping mitigation-engine types to kernel factories.  Every built-in
  kernel lives in :mod:`repro.core.fast_kernels` and registers on the
  first lookup;
* :class:`FastMemoryController` -- consumes a columnar
  :class:`~repro.workloads.columnar.TraceArray`, partitions it into
  **per-bank lanes** (banks are independent between blocking events),
  dispatches each lane's whole event sequence through the vector/scalar
  machinery, and merges per-lane outputs (latency samples, bit flips,
  executed directives) back into exact global event order.  A
  round-robin interleave across 8 banks -- length-1 contiguous runs,
  the old dispatcher's worst case -- batches exactly as well as a
  single-bank hammer.  ``run(..., chunk_events=N)`` streams
  arbitrarily long traces in bounded chunks with kernel/bank state
  carried across chunk boundaries, byte-identical to the in-memory
  run.  Kernels with bank-shared state (ABACuS) run on the vectorized
  cross-bank lane instead: short same-bank runs coalesce into
  multi-bank segments committed through
  :meth:`FastKernel.commit_run_banked`.  Everything runs in the
  calling process and thread; the parallel axis is the experiment
  runner's ``--jobs N`` over independent cells.

**Equivalence contract.**  Driven over the same stream, the fast
controller produces *byte-identical* state to the reference stack:
same :class:`~repro.sim.metrics.SimulationResult` (including float
latency aggregates), same directive sequence, same tracking-table
contents, same bit flips.  This is possible because:

* the scalar fallback replays ``MemoryController.step``
  operation-for-operation on the *real*
  :class:`~repro.dram.device.DramBankModel` objects;
* an ACT's issue time is either its trace time (bank idle: ``issue ==
  t``) or chained off tRC (bank saturated: ``issue = prev_issue +
  trc``, the first one at ``max(next_act, busy_until)``, so a bank
  still blocked by an NRR chains too); both recurrences vectorize
  exactly -- ``np.cumsum`` is a
  sequential left-to-right accumulate, so seeding it with the live
  accumulator reproduces the scalar loop's partial sums bit-for-bit
  (never ``np.sum``, whose pairwise reduction rounds differently);
* the REF ticks due by a vector segment's first ACT are applied before
  it, in one device call for a REF-free kernel
  (:attr:`FastKernel.ref_free`); the segment is truncated before the
  next tick, except that an idle-regime segment of a REF-free kernel
  without the fault referee absorbs its ticks and is cut before the
  first ACT inside a tick's tRFC blackout.  It is also truncated
  before the first scheme blocking boundary
  (:meth:`FastKernel.next_blocking_ns`), with the fault referee on
  before the first ACT that would flip a bit
  (:meth:`~repro.dram.faults.HammerFaultModel.batch`), and by each
  kernel's ``commit_run`` before the first event whose outcome the
  bulk update cannot reproduce (threshold crossing, RNG success, tree
  split, and for some schemes a table miss); those events take the
  scalar path, so every blocking and NRR decision is made by the exact
  reference logic;
* the per-event latency delays of *all* lanes land in one global
  scatter array and fold into :class:`LatencyTracker` afterwards with
  a seeded sequential cumsum over the positive entries in global event
  order -- the same float64 additions the reference performs; bit
  flips and executed directives are tagged with their global event
  index per lane and heap-merged, so cross-bank ordering is exact.

**Telemetry.**  Under a ``metrics``-level bus
(``TelemetryBus(events=False)``) the controller publishes what the
reference publishes, as aggregates: ``sched.acts``,
``sched.delayed_acts`` and the ``sched.delay_ns`` histogram fold in
with the latency delays, so the registry snapshot matches the
reference one bit for bit.  It adds its own ``fastpath.*`` counters
once per chunk: ``fastpath.chunks`` and, per kernel scheme,
``fastpath.<scheme>.vector_acts`` / ``fastpath.<scheme>.scalar_acts``
and ``fastpath.<scheme>.ref_ticks_batched`` (REF ticks applied in bulk;
the rest are forwarded one by one, as the reference does).

The fast path never runs under an ``events``-level bus (it cannot
produce the per-ACT records that level retains) or when any bank's
scheme has no registered kernel (the oracle; every scheme of Fig. 8
and the capability matrix has one);
:func:`build_fast_controller` returns ``None`` (and
:func:`build_fast_controller_ex` additionally names the reason) and
callers fall back to the reference engine.
``docs/performance.md`` ("Hot path") documents the design, the
per-scheme kernel coverage and the measured speedups.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..controller.mc import (
    FIRST_EVENT_FLOOR_NS,
    ControllerCounters,
    event_time_error,
)
from ..controller.scheduler import LatencySummary, LatencyTracker
from ..dram.device import DramDevice
from ..dram.faults import BitFlip
from ..mitigations.base import (
    MitigationEngine,
    MitigationFactory,
    MitigationStats,
    RefreshDirective,
)
from ..telemetry import runtime as _telemetry
from ..telemetry.registry import Histogram
from ..workloads.columnar import TraceArray, iter_chunk_arrays

__all__ = [
    "FastKernel",
    "FastMemoryController",
    "register_kernel",
    "kernel_for",
    "kernel_schemes",
    "build_fast_controller",
    "build_fast_controller_ex",
]

#: Maximum events examined per vector attempt (bounds temporary arrays).
_SPAN = 4096
#: Minimum remaining events for a vector attempt to be worth the setup.
_MIN_VECTOR = 8
#: Ceiling on the scalar back-off after consecutive failed vector
#: attempts; the budget doubles per failure (1, 2, 4, ... _SCALAR_RUN)
#: so one table miss costs one scalar replay, while genuinely
#: miss-heavy streams still stop paying the vector setup per event.
_SCALAR_RUN = 32
#: Back-off ceiling for the *banked* cross-bank lane, whose attempt
#: setup is an order of magnitude above a per-bank probe.
_BANKED_SCALAR_RUN = 256
#: Stay this far (ns) below a scheme blocking boundary in vector mode;
#: boundary-adjacent ACTs take the scalar path where the reference
#: ``int(t // window)`` decides.
_WINDOW_MARGIN_NS = 1e-3


@runtime_checkable
class FastKernel(Protocol):
    """What a scheme implements to join the batch engine.

    One kernel instance wraps one bank's live mitigation engine.  The
    controller owns all *timing* decisions -- issue-time regimes, REF
    truncation, bank-state commit -- and hands the kernel only the
    *tracking* phase.  The contract every method must honor is
    bit-identical equivalence with the reference engine.
    """

    #: Scheme label (matches the wrapped engine's ``name``).
    name: str
    #: The stats object ``simulate()`` reads (``MitigationStats``).
    stats: MitigationStats
    #: Declared capability: ``True`` when the kernel's tracking state is
    #: shared *across* banks (ABACuS), so per-bank lanes are not
    #: independent.  The controller then executes the trace in global
    #: order on the in-process cross-bank lane -- long same-bank runs
    #: batch through :meth:`commit_run`, and interleave-heavy stretches
    #: coalesce into multi-bank segments batched through the optional
    #: ``commit_run_banked(times, rows, banks) -> int`` hook when the
    #: kernel provides one.  Per-bank kernels leave this ``False`` (the
    #: protocol default via ``getattr``).
    cross_bank: bool

    #: Optional capability (``getattr`` default ``False``): ``True``
    #: when a REF tick can neither change the kernel's state nor emit a
    #: directive (every built-in scheme but TWiCe, PRoHIT and
    #: refresh-rate).  The controller then applies the bank's ticks as
    #: device arithmetic, in bulk, and never calls
    #: :meth:`on_refresh_command`.
    ref_free: bool

    #: Optional capability (``getattr`` default ``False``): ``True``
    #: when ACTs cannot change the kernel's tracking decisions at all
    #: (refresh-rate, whose work happens at REF ticks, and the
    #: unprotected ``none``), so a failed vector attempt is always a
    #: *timing* boundary and never a reason to back off into a scalar
    #: run.
    act_transparent: bool

    def on_activate(self, row: int, time_ns: float) -> list[RefreshDirective]:
        """Exact scalar replay of the reference engine's ``on_activate``."""
        ...

    def on_refresh_command(self, time_ns: float) -> list[RefreshDirective]:
        """Exact scalar replay of the reference REF callback."""
        ...

    def next_blocking_ns(self) -> float:
        """Next scheme-level blocking boundary (e.g. a reset-window
        edge), or ``inf``.  The controller truncates vector segments
        before it (minus a safety margin) so ``commit_run`` never sees
        an event the scheme would treat specially for *time* reasons."""
        ...

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        """Consume a prefix of a timing-validated event run in bulk.

        ``times`` are the *issue* times the controller resolved (all
        strictly below :meth:`next_blocking_ns`).  Returns ``(consumed,
        directives)``: the kernel must commit exactly ``consumed``
        events' worth of state (including ``stats.activations``) and
        truncate *before* the first event whose outcome bulk arithmetic
        cannot reproduce -- that event then replays through the scalar
        path.  Directives, if any, must be anchored at the final
        committed event (the controller executes them after the batch,
        matching the reference order).  So a kernel that triggers
        mid-run either truncates before the triggering event and lets
        the scalar replay emit it, or stops right *after* it and returns
        its directives (MRLoc, whose queue and generator cannot be
        rewound cheaply).  Kernels with draw-consuming state (PARA)
        rewind past speculative bulk work themselves.
        """
        ...

    def table_state(self) -> dict[str, Any]:
        """Comparable snapshot for differential checks."""
        ...


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------

KernelFactory = Callable[[MitigationEngine], "FastKernel"]

_KERNEL_REGISTRY: dict[type, KernelFactory] = {}
_BUILTINS_LOADED = False


def register_kernel(engine_type: type, factory: KernelFactory) -> None:
    """Register ``factory`` as the batched kernel for ``engine_type``.

    Lookup is by exact type -- a subclass that changes semantics must
    register its own kernel (or get the reference loop)."""
    _KERNEL_REGISTRY[engine_type] = factory


def _ensure_builtin_kernels() -> None:
    """Import :mod:`repro.core.fast_kernels` once (registers on import).

    Lazy so this module can be imported without dragging every
    mitigation module in, and so schemes stay optional."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from . import fast_kernels  # noqa: F401  (registration side effect)

        _BUILTINS_LOADED = True


def kernel_for(mitigation: MitigationEngine) -> "FastKernel | None":
    """Build the batched kernel wrapping ``mitigation``, or ``None``."""
    _ensure_builtin_kernels()
    factory = _KERNEL_REGISTRY.get(type(mitigation))
    return None if factory is None else factory(mitigation)


def kernel_schemes() -> tuple[str, ...]:
    """Scheme names with a registered kernel (sorted)."""
    _ensure_builtin_kernels()
    return tuple(
        sorted(
            getattr(engine_type, "name", engine_type.__name__)
            for engine_type in _KERNEL_REGISTRY
        )
    )


def _issue_regime(bank_model, t0: float) -> tuple[bool, float] | None:
    """How a bank's next ACT, at trace time ``t0``, issues.

    ``(False, t0)``: the bank is idle and the ACT issues at its trace
    time.  ``(True, seed)``: the bank is busy -- still in tRC after the
    previous ACT (saturated) or still refreshing after an NRR (blocked)
    -- and the ACT issues at ``seed = max(next_act, busy_until)``; every
    later ACT of the run chains off tRC from there.  ``None``: neither,
    and the scalar path decides.  These are the epsilon comparisons
    ``DramBankModel.earliest_activate`` makes (``legal <= candidate +
    1e-9``), so both regimes hold exactly while no REF falls at or
    before the first issue time -- the callers' ``seed >= blocking``
    check.
    """
    bank = bank_model.bank
    next_act = bank._next_act_ns
    busy = bank._busy_until_ns
    clock = bank_model._clock_ns
    if clock <= t0 and next_act <= t0 + 1e-9 and busy <= t0 + 1e-9:
        return False, t0
    seed = max(next_act, busy)
    if seed > t0 + 1e-9 and seed > clock + 1e-9:
        return True, seed
    return None


class _LaneEngine:
    """The per-bank lane executor: all scalar/vector lane machinery.

    Holds the state a lane needs beyond its bank model and kernel: the
    counters it increments and whether executed directives are logged.
    """

    def __init__(
        self,
        counters: ControllerCounters,
        keep_directive_log: bool,
        bank_of: Callable[[int], Any],
    ) -> None:
        self.counters = counters
        self.keep_directive_log = keep_directive_log
        #: Resolves a directive's target bank model, so cross-bank
        #: directives (ABACuS) land on the bank they name, as the
        #: reference MC does.
        self.bank_of = bank_of
        #: ACTs committed by vector batches so far (every other issued
        #: ACT replayed scalar); bumped once per batch.
        self.vector_acts = 0
        #: REF ticks applied in bulk for REF-free kernels (catch-up and
        #: absorption); every other tick is forwarded one by one.
        self.ref_ticks_batched = 0

    def run_lane(
        self,
        bank_model,
        kernel: FastKernel,
        times: np.ndarray,
        rows: np.ndarray,
        gids: np.ndarray,
        delays: np.ndarray,
        flips_out: list,
        directives_out: list,
    ) -> None:
        """One bank's full event sequence, vector where provable."""
        n = len(times)
        index = 0
        scalar_budget = 0
        vector_fails = 0
        act_transparent = getattr(kernel, "act_transparent", False)
        ref_free = getattr(kernel, "ref_free", False)
        # Ticks inside a run are bank arithmetic only while nothing else
        # reacts to them: a REF-free kernel and no fault referee.
        absorb = ref_free and bank_model.faults is None
        while index < n:
            pending: Sequence[RefreshDirective] = ()
            vector = scalar_budget == 0 and n - index >= _MIN_VECTOR
            if vector:
                t0 = float(times[index])
                pending = self._catch_up(bank_model, kernel, t0, ref_free)
            if vector and not pending:
                limit = min(index + _SPAN, n)
                consumed, table_bound, kernel_cut = self._try_vector(
                    bank_model, kernel, times[index:limit], rows[index:limit],
                    gids[index:limit], delays, directives_out, absorb,
                )
                if consumed or kernel_cut:
                    index += consumed
                    vector_fails = 0
                    # A cut proves the *next* event is special (miss,
                    # crossing, RNG success, bit flip): one scalar
                    # replay clears it, so skip the vector attempt that
                    # is guaranteed to return 0 on it.
                    scalar_budget = 1 if kernel_cut else 0
                    continue
                # A timing-boundary failure (REF tick, window edge) is
                # structural: one scalar step clears it, as it does any
                # failure under an ACT-transparent kernel.  A table miss
                # or trigger at the very first event *may* signal a
                # miss-heavy stream: back off exponentially -- one scalar
                # replay for an isolated miss, up to _SCALAR_RUN when
                # vector attempts keep dying.
                if table_bound and not act_transparent:
                    vector_fails += 1
                    scalar_budget = min(_SCALAR_RUN, 1 << (vector_fails - 1))
                else:
                    scalar_budget = 1
            self._scalar_step(
                bank_model, kernel, float(times[index]), int(rows[index]),
                int(gids[index]), delays, flips_out, directives_out, pending,
            )
            if scalar_budget:
                scalar_budget -= 1
            index += 1

    def _catch_up(
        self, bank_model, kernel: FastKernel, t0: float, ref_free: bool
    ) -> list[RefreshDirective]:
        """The ``advance_to(t0)`` that ``earliest_activate`` starts with,
        taken before a vector attempt at ``t0``: one device call for a
        REF-free kernel, else each tick forwarded in order.  Directives
        those ticks return run after the ACT at ``t0``, so the caller
        replays it scalar with them prepended."""
        # Every tick at or before the bank's clock is applied, so this
        # also means the clock is behind t0.
        if bank_model.refresh_engine.next_time_ns > t0:
            return []
        if ref_free:
            self.ref_ticks_batched += bank_model.skip_refreshes_to(t0)
            return []
        bank_model.advance_to(t0)
        directives: list[RefreshDirective] = []
        for ref_event in bank_model.drain_refresh_events():
            self.counters.ref_ticks_forwarded += 1
            directives.extend(kernel.on_refresh_command(ref_event.time_ns))
        return directives

    def _scalar_step(
        self,
        bank_model,
        kernel: FastKernel,
        time_ns: float,
        row: int,
        gid: int,
        delays: np.ndarray,
        flips_out: list,
        directives_out: list,
        pending: Sequence[RefreshDirective] = (),
    ) -> None:
        """One ACT, operation-for-operation as ``MemoryController.step``;
        ``pending`` directives (:meth:`_catch_up`) run first."""
        issue_ns = bank_model.earliest_activate(time_ns)
        delay_ns = issue_ns - time_ns
        if delay_ns > 0.0:
            delays[gid] = delay_ns
        flips = bank_model.activate(row, issue_ns)
        if flips:
            flips_out.append((gid, flips))
            self.counters.bit_flips += len(flips)
        self.counters.acts_issued += 1

        directives = list(pending)
        for ref_event in bank_model.drain_refresh_events():
            self.counters.ref_ticks_forwarded += 1
            directives.extend(kernel.on_refresh_command(ref_event.time_ns))
        directives.extend(kernel.on_activate(row, issue_ns))
        for directive in directives:
            self._execute_directive(directive, issue_ns, gid, directives_out)

    def _execute_directive(
        self, directive, now_ns: float, gid: int, directives_out
    ) -> None:
        rows = list(directive.victim_rows)
        if not rows:
            return
        bank_model = self.bank_of(directive.bank)
        bank_model.bank.nearby_row_refresh(len(rows), now_ns)
        if bank_model.faults is not None:
            bank_model.faults.on_refresh_range(rows)
        self.counters.nrr_commands += 1
        self.counters.nrr_rows += len(rows)
        if self.keep_directive_log:
            directives_out.append((gid, directive))

    # ------------------------------------------------------------------
    # Vector path
    # ------------------------------------------------------------------

    def _try_vector(
        self,
        bank_model,
        kernel: FastKernel,
        times: np.ndarray,
        rows: np.ndarray,
        gids: np.ndarray,
        delays: np.ndarray,
        directives_out: list,
        absorb: bool = False,
    ) -> tuple[int, bool, bool]:
        """Consume a prefix of ``times``/``rows`` in bulk; 0 if none.

        A prefix qualifies only while the per-event recurrence is one of
        two exactly-vectorizable regimes and no blocking event (REF pop,
        scheme boundary) falls inside; the kernel's ``commit_run`` then
        decides how much of the timing-valid prefix the tracking state
        can absorb in bulk.  The comparisons reuse the reference's
        epsilon expressions (``legal <= candidate + 1e-9``) verbatim so
        the regime boundary is decided by the same float operations.

        With ``absorb`` an idle-regime run carries on through REF ticks:
        it is cut before the first ACT inside a tick's tRFC blackout
        (``DramBankModel.refresh_plan``), and only the ticks up to the
        last committed ACT are applied, so every cut stays prefix-local.

        With the fault referee on, the prefix is also cut before the
        first ACT that would flip a bit (:meth:`HammerFaultModel.batch`),
        and the referee commits exactly the ACTs the kernel consumed.

        Returns ``(consumed, table_bound, kernel_cut)``: ``table_bound``
        flags a zero-consumption *tracking* failure (the stream may be
        miss-heavy; the caller backs off), ``kernel_cut`` flags a commit
        truncated by the kernel or the referee before an event that is
        provably special (exactly one scalar replay clears it).  A flip
        on the first event returns ``(0, False, True)``.  Directives
        returned with the commit execute at its last ACT, which leaves
        the bank blocked: the next attempt's first ACT waits for it in
        the saturated regime (:func:`_issue_regime`).
        """
        bank = bank_model.bank
        trc = bank.timings.trc
        if trc <= 2e-9:
            return 0, False, False
        regime = _issue_regime(bank_model, float(times[0]))
        if regime is None:
            return 0, False, False
        chained, seed = regime

        # First blocking event: the kernel's next scheme boundary
        # (conservative margin; boundary ACTs go scalar) or, unless the
        # run absorbs ticks, a REF pop (``pop_due`` pops at `<=`).
        absorb = absorb and not chained
        next_ref = bank_model.refresh_engine.next_time_ns
        blocking_ns = kernel.next_blocking_ns() - _WINDOW_MARGIN_NS
        if not absorb:
            blocking_ns = min(blocking_ns, next_ref)

        if not chained:
            # Idle regime: every ACT issues at its trace time.  Needs
            # prev_time + trc legal (within epsilon) at each successor
            # and, when absorbing, each tick's blackout over by the
            # first ACT at or after it (searchsorted: times are sorted).
            # The REF plan costs Python time per tick, and most runs end
            # at a blackout within a tick or two, so an absorbing run is
            # checked over a head that grows eightfold from 64 ACTs.
            extent = int(np.searchsorted(times, blocking_ns, side="left"))
            size = _MIN_VECTOR * 8 if absorb else extent
            while True:
                head = times[:min(size, extent)]
                cut = len(head)
                gaps_ok = (head[:-1] + trc) <= (head[1:] + 1e-9)
                if not gaps_ok.all():
                    cut = int(gaps_ok.argmin()) + 1
                if absorb and cut and next_ref <= head[cut - 1]:
                    ticks, ends = bank_model.refresh_plan(float(head[cut - 1]))
                    at = head.searchsorted(ticks)
                    blackout = np.greater(ends, head[at] + 1e-9)
                    if blackout.any():
                        cut = int(at[blackout.argmax()])
                if cut < len(head) or cut == extent:
                    break
                size *= 8
            if cut == 0:
                return 0, False, False
            extent = cut
            times = times[:extent]
            issue = times
        else:
            # Saturated regime: ACTs queue back-to-back, the first at
            # the seed and each later one at prev_issue + trc.  The
            # chain is the scalar loop's exact partial sums (cumsum
            # accumulates left-to-right).
            if seed >= blocking_ns:
                return 0, False, False
            # issue[k] ~= seed + k*trc, so this bound overshoots the
            # exact truncation below by at most a couple of elements.
            bound = min(
                len(times), int((blocking_ns - seed) / trc) + 2
            )
            times = times[:bound]
            seeded = np.full(len(times), trc, dtype=np.float64)
            seeded[0] = seed
            chain = np.cumsum(seeded)
            ok = chain > times + 1e-9
            if ok.all():
                extent = len(times)
            else:
                extent = int(np.argmin(ok))
                if extent == 0:
                    return 0, False, False
            blocked = chain[:extent] >= blocking_ns
            if blocked.any():
                extent = int(np.argmax(blocked))
                if extent == 0:
                    return 0, False, False
            issue = chain

        # Fault referee: cut before the first ACT that would flip a bit,
        # so that ACT replays scalar (where the BitFlip is built).
        timing_extent = extent
        referee = None
        if bank_model.faults is not None:
            referee = bank_model.faults.batch(rows[:extent])
            if referee.cut == 0:
                return 0, False, True
            extent = min(extent, referee.cut)

        # Tracking phase: the kernel absorbs as much of the prefix as
        # bulk arithmetic can reproduce; the truncating event (miss,
        # crossing, RNG success, split, flip) replays scalar next
        # iteration.
        consumed, directives = kernel.commit_run(
            issue[:extent], rows[:extent]
        )
        if consumed == 0:
            return 0, True, False
        # A kernel that stops *after* an ACT emitting directives (MRLoc)
        # leaves an ordinary event next; stopping before an event, or
        # the referee's cut, leaves a special one.
        kernel_cut = consumed < timing_extent and (
            not directives or consumed == extent
        )
        extent = consumed

        # ---- Commit the batch ----------------------------------------
        last_issue = float(issue[extent - 1])
        if absorb and next_ref <= last_issue:
            self.ref_ticks_batched += bank_model.skip_refreshes_to(last_issue)
        bank.open_row = int(rows[extent - 1])
        bank._last_act_ns = last_issue
        bank._next_act_ns = last_issue + trc
        bank.stats.activations += extent
        bank.stats.row_buffer_misses += extent
        bank_model._clock_ns = last_issue
        self.counters.acts_issued += extent
        self.vector_acts += extent

        if chained:
            # chain > times (strictly) on the committed prefix, so every
            # delay is positive, matching the reference's `delay > 0`
            # branch; idle-regime delays are exactly 0.0 and the scatter
            # array is already zero-initialized.
            delays[gids[:extent]] = issue[:extent] - times[:extent]

        if referee is not None:
            referee.commit(extent)

        for directive in directives:
            self._execute_directive(
                directive, last_issue, int(gids[extent - 1]), directives_out
            )
        return extent, False, kernel_cut


class FastMemoryController:
    """Per-bank-lane twin of ``MemoryController`` for kernel schemes.

    Drives the *real* :class:`~repro.dram.device.DramBankModel` objects:
    scalar steps call the same methods the reference controller calls,
    and vector segments write the same post-state the per-event calls
    would have produced.  The trace is partitioned into per-bank lanes
    up front (banks only share order-sensitive *outputs*, never state),
    each lane runs to completion, and the order-sensitive outputs --
    latency delays, bit flips, the directive log -- are merged back
    into global event order afterwards.  Construct via
    :func:`build_fast_controller`.

    ``run(..., chunk_events=N)`` streams the trace through the engine in
    bounded chunks with all kernel/bank state carried across chunk
    boundaries -- peak working memory is O(chunk), and with a lazy event
    iterable the full trace is never materialized at all.  Chunks are
    pulled from the source on the calling thread, one at a time.
    """

    def __init__(
        self,
        device: DramDevice,
        engines: list[FastKernel],
        keep_directive_log: bool = False,
    ) -> None:
        self.device = device
        self.engines = engines
        self.latency = LatencyTracker()
        self.counters = ControllerCounters()
        self.bit_flips: list[BitFlip] = []
        self.directive_log: list[RefreshDirective] | None = (
            [] if keep_directive_log else None
        )
        #: Any kernel with bank-shared tracking state forces single-lane
        #: execution: global order on the cross-bank lane, never per-bank
        #: lanes.
        self.cross_bank = any(
            getattr(engine, "cross_bank", False) for engine in engines
        )
        #: Timestamp of the last event consumed (across all chunks), so
        #: streaming callers need not keep the trace around.
        self.last_event_ns = 0.0
        #: The previous checked event's time: the next chunk's first
        #: event must not precede it.
        self._time_floor_ns = FIRST_EVENT_FLOOR_NS
        self._lane = _LaneEngine(
            self.counters, keep_directive_log, bank_of=device.bank
        )
        #: Label of the ``fastpath.<scheme>.*`` counters: every bank
        #: runs the one scheme its factory builds.
        self.scheme = engines[0].name if engines else "none"
        #: Adaptive attempt window for the banked cross-bank lane; a
        #: pure throughput heuristic (results are window-invariant),
        #: carried across segments so each slab starts where the
        #: workload's observed cadence left it.
        self._banked_span = 4 * _MIN_VECTOR

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, events, chunk_events: int | None = None) -> None:
        """Drive the full system from a time-sorted ACT stream.

        Accepts a :class:`TraceArray` or any ``ActEvent`` iterable.
        With ``chunk_events`` the stream executes in bounded chunks
        (state carried across boundaries; an iterable input is never
        fully materialized); without it, non-array input is
        materialized into one :class:`TraceArray` first.  Raises the
        reference's errors for unsorted or non-finite times and
        out-of-range banks or rows, at the same event.
        """
        if chunk_events is not None:
            chunks = iter_chunk_arrays(events, chunk_events)
        elif isinstance(events, TraceArray):
            chunks = [events]
        else:
            chunks = [TraceArray.from_events(events)]
        lane = self._lane
        for chunk in chunks:
            vector_before = lane.vector_acts
            batched_before = lane.ref_ticks_batched
            self._run_chunk(self._check_addresses(chunk))
            bus = _telemetry.BUS
            if bus is not None:
                self._publish_chunk(
                    bus.registry, len(chunk),
                    lane.vector_acts - vector_before,
                    lane.ref_ticks_batched - batched_before,
                )

    def _publish_chunk(
        self, registry, acts: int, vector: int, batched: int
    ) -> None:
        """One chunk's ``fastpath.*`` counters (never per ACT)."""
        prefix = f"fastpath.{self.scheme}"
        registry.counter("fastpath.chunks").inc()
        registry.counter(f"{prefix}.vector_acts").inc(vector)
        registry.counter(f"{prefix}.scalar_acts").inc(acts - vector)
        registry.counter(f"{prefix}.ref_ticks_batched").inc(batched)

    def _check_addresses(self, trace: TraceArray) -> TraceArray:
        """Raise the reference's error for the first bad event.

        The reference checks an event's time (finite, not before the
        previous event's) and bank in ``MemoryController.step`` and its
        row in the bank model's ``activate``; vector commits reach none
        of these, so one O(n) check per chunk stands in for all three,
        in the same order.  The previous chunk's last time carries over.
        """
        if not len(trace):
            return trace
        banks = len(self.engines)
        rows = self.device.geometry.rows_per_bank
        times = trace.time_ns
        previous = np.empty_like(times)
        previous[0] = self._time_floor_ns
        previous[1:] = times[:-1]
        # ``<=`` is False for NaN, so one comparison catches NaN too.
        bad_time = ~(previous <= times) | np.isinf(times)
        bad_bank = (trace.bank < 0) | (trace.bank >= banks)
        bad = bad_time | bad_bank | (trace.row < 0) | (trace.row >= rows)
        if bad.any():
            first = int(np.argmax(bad))
            if bad_time[first]:
                raise event_time_error(
                    float(times[first]), float(previous[first])
                )
            if bad_bank[first]:
                bank = int(trace.bank[first])
                raise IndexError(f"bank {bank} out of range [0, {banks})")
            row = int(trace.row[first])
            raise IndexError(f"row {row} out of range [0, {rows})")
        self._time_floor_ns = float(times[-1])
        return trace

    # ------------------------------------------------------------------
    # Chunk execution
    # ------------------------------------------------------------------

    def _run_chunk(self, trace: TraceArray) -> None:
        """One chunk through the per-bank lane dispatcher."""
        n = len(trace)
        if n == 0:
            return
        # Per-event issue delays, scattered by global index; folded into
        # the tracker once per chunk, in global order (see _fold_delays
        # -- the fold seeds its cumsum with the tracker's running total,
        # so chunked folding reproduces the unchunked float sums).
        delays = np.zeros(n, dtype=np.float64)
        if self.cross_bank:
            self._run_chunk_single_lane(trace, delays)
            return
        flip_lanes: list[list[tuple[int, list[BitFlip]]]] = []
        directive_lanes: list[list[tuple[int, RefreshDirective]]] = []
        for bank_index, lane_indices in trace.bank_partition():
            lane_flips: list[tuple[int, list[BitFlip]]] = []
            lane_directives: list[tuple[int, RefreshDirective]] = []
            self._lane.run_lane(
                self.device.bank(bank_index),
                self.engines[bank_index],
                trace.time_ns[lane_indices],
                trace.row[lane_indices],
                lane_indices,
                delays,
                lane_flips,
                lane_directives,
            )
            flip_lanes.append(lane_flips)
            directive_lanes.append(lane_directives)
        self._merge_chunk(
            float(trace.time_ns[-1]), delays, flip_lanes, directive_lanes
        )

    def _run_chunk_single_lane(
        self, trace: TraceArray, delays: np.ndarray
    ) -> None:
        """One chunk in global order for cross-bank kernels.

        A kernel whose tracking state spans banks (ABACuS) makes bank
        lanes order-dependent: an ACT on bank 0 can trigger refreshes
        on bank 3, and the shared table's next decision depends on the
        interleaved sequence.  So the chunk executes in global order:
        long contiguous same-bank runs go through the per-lane
        vector/scalar machinery (batching survives wherever runs are
        long), and stretches of *short* runs -- a round-robin
        interleave degenerates to length-1 runs, pure scalar under the
        old dispatcher -- coalesce into multi-bank segments that the
        vectorized cross-bank lane (:meth:`_try_vector_banked`) commits
        through the kernel's ``commit_run_banked`` hook.  Every output
        tag is globally ascending by construction (no per-lane merge
        needed).
        """
        flips_out: list[tuple[int, list[BitFlip]]] = []
        directives_out: list[tuple[int, RefreshDirective]] = []
        banked = self.engines and hasattr(
            self.engines[0], "commit_run_banked"
        )
        if not banked:
            for start, stop, bank_index in trace.bank_runs():
                self._run_lane_span(
                    trace, start, stop, bank_index,
                    delays, flips_out, directives_out,
                )
            self._merge_chunk(
                float(trace.time_ns[-1]), delays,
                [flips_out], [directives_out],
            )
            return
        # Run segmentation stays in numpy: a fully interleaved trace
        # degenerates to length-1 same-bank runs, and iterating those
        # one generator yield at a time costs more than executing them.
        # Long runs go through the per-lane machinery; everything
        # between two long runs feeds the banked engine in _SPAN-sized
        # slabs (slab boundaries only bound what one call *sees*, never
        # what a vector attempt may commit -- truncation rules are all
        # prefix-local, so placement is identity-free).
        bank_arr = trace.bank
        n = len(bank_arr)
        change = np.flatnonzero(bank_arr[1:] != bank_arr[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
        ends = np.concatenate((change, np.array([n], dtype=np.int64)))
        long_runs = np.flatnonzero((ends - starts) >= _MIN_VECTOR)
        cursor = 0
        for run in long_runs:
            a, b = int(starts[run]), int(ends[run])
            if cursor < a:
                self._emit_banked_segments(
                    trace, cursor, a, delays, flips_out, directives_out
                )
            self._run_lane_span(
                trace, a, b, int(bank_arr[a]),
                delays, flips_out, directives_out,
            )
            cursor = b
        if cursor < n:
            self._emit_banked_segments(
                trace, cursor, n, delays, flips_out, directives_out
            )
        self._merge_chunk(
            float(trace.time_ns[-1]), delays, [flips_out], [directives_out]
        )

    def _run_lane_span(
        self, trace, start, stop, bank_index,
        delays, flips_out, directives_out,
    ) -> None:
        """One contiguous same-bank run through the lane machinery."""
        self._lane.run_lane(
            self.device.bank(bank_index),
            self.engines[bank_index],
            trace.time_ns[start:stop],
            trace.row[start:stop],
            np.arange(start, stop, dtype=np.int64),
            delays,
            flips_out,
            directives_out,
        )

    def _emit_banked_segments(
        self, trace, start, stop, delays, flips_out, directives_out,
    ) -> None:
        """One interleave-heavy stretch, sliced into banked slabs.

        The stretch is everything between two long same-bank runs (or a
        chunk edge); ``_run_banked_segment`` handles any event mix, so
        the only job here is bounding slab size to keep attempt windows
        and per-slab slices cache-sized.
        """
        for a in range(start, stop, _SPAN):
            self._run_banked_segment(
                trace, a, min(a + _SPAN, stop),
                delays, flips_out, directives_out,
            )

    def _run_banked_segment(
        self, trace, seg_start, seg_stop,
        delays, flips_out, directives_out,
    ) -> None:
        """An interleave-heavy stretch of a cross-bank chunk.

        The same vector/scalar alternation as ``run_lane`` -- with the
        same exponential back-off -- but a vector attempt spans every
        bank in the segment: per-bank timing regimes validate
        independently (banks share no timing state) and the shared
        table commits in global order via ``commit_run_banked``.

        Attempt windows are *adaptive*: a banked attempt's setup cost
        (unique/argsort/grouping over the window) is paid whether or
        not the kernel consumes much, so the window tracks recent
        consumption -- doubling after a fully-consumed attempt up to
        ``_SPAN``, shrinking toward the achieved extent after a
        truncated one.  Window size only bounds how much is *offered*;
        every truncation rule depends on the prefix alone, so results
        are identical at any window size.
        """
        times = trace.time_ns[seg_start:seg_stop]
        rows = trace.row[seg_start:seg_stop]
        banks = trace.bank[seg_start:seg_stop]
        n = seg_stop - seg_start
        index = 0
        scalar_budget = 0
        vector_fails = 0
        span = self._banked_span
        while index < n:
            if scalar_budget == 0 and n - index >= _MIN_VECTOR:
                limit = min(index + span, n)
                consumed, table_bound, kernel_cut = self._try_vector_banked(
                    times[index:limit],
                    rows[index:limit],
                    banks[index:limit],
                    seg_start + index,
                    delays,
                )
                if consumed:
                    if consumed == limit - index:
                        span = min(_SPAN, span * 2)
                        scalar_budget = 0
                        vector_fails = 0
                    elif consumed >= 4 * _MIN_VECTOR:
                        span = min(span, max(4 * _MIN_VECTOR, 2 * consumed))
                        # A partial commit means the cut event itself
                        # is unconsumable right now -- blocked by a REF
                        # boundary, a timing-gap violation, or a
                        # trigger landing on it.  Retrying the vector
                        # immediately would fail on that same event, so
                        # clear it scalar first (which also forwards
                        # the REF tick when that is the blocker).
                        scalar_budget = 1
                        vector_fails = 0
                    else:
                        # A *tiny* commit repaid none of the attempt's
                        # setup (unique/argsort/grouping over the
                        # window).  Trigger-dense, miss-heavy or
                        # jittered traffic produces these back to
                        # back, so they back off exponentially exactly
                        # like failures.
                        span = max(4 * _MIN_VECTOR, span // 2)
                        vector_fails += 1
                        scalar_budget = min(
                            _BANKED_SCALAR_RUN, 1 << (vector_fails - 1)
                        )
                    index += consumed
                    continue
                if kernel_cut:
                    # The first event would flip a bit: one scalar
                    # replay builds the flip; no reason to back off.
                    scalar_budget = 1
                else:
                    span = max(4 * _MIN_VECTOR, span // 2)
                    vector_fails += 1
                    # The banked cap is far above the per-bank lane's:
                    # a banked attempt's setup (unique/argsort/grouping
                    # over the whole window) dwarfs a per-bank probe,
                    # so a stream that keeps rebuffing it -- e.g.
                    # Misra-Gries misses on nearly every row at toy
                    # thresholds -- must converge to the plain scalar
                    # loop, probing only once every few hundred events.
                    scalar_budget = min(
                        _BANKED_SCALAR_RUN, 1 << (vector_fails - 1)
                    )
            bank_index = int(banks[index])
            self._lane._scalar_step(
                self.device.bank(bank_index),
                self.engines[bank_index],
                float(times[index]),
                int(rows[index]),
                seg_start + index,
                delays,
                flips_out,
                directives_out,
            )
            if scalar_budget:
                scalar_budget -= 1
            index += 1
        # The window heuristic carries across segments and chunks: the
        # workload's trigger/REF cadence, which is what the span tracks,
        # does not reset at slab boundaries.
        self._banked_span = span

    def _try_vector_banked(
        self, times, rows, banks, gid_base, delays
    ) -> tuple[int, bool, bool]:
        """Multi-bank vector attempt for the cross-bank lane.

        Timing validation is ``_try_vector``'s per-bank logic applied
        to each bank's event subsequence against that bank's own state
        (identical regimes, identical epsilon expressions); the global
        extent is the minimum cut across banks, which keeps every
        bank's committed prefix prefix-valid.  Tracking then commits in
        *global order* through the kernel's ``commit_run_banked`` --
        issue times may interleave non-monotonically across banks, but
        the reference processes events in trace order too, so order,
        not time, is what the shared table sees.  Returns the same
        ``(consumed, table_bound, kernel_cut)`` triple as
        ``_try_vector``.

        REF boundaries cut *per bank* for a REF-free kernel: bank
        ``b``'s lane stops before its own next auto-refresh, but the
        other banks' events continue past it -- otherwise the staggered
        per-bank ticks of an 8-bank interleave bound every batch to
        ~tREFI/8 of events.  The tick itself is applied by the cut
        event's scalar replay.
        """
        if int(banks.max()) >= 63:
            # The banked kernel's SAV bits live in int64 vector math;
            # a >= 63-bank device replays scalar (Python ints) instead.
            return 0, False, False
        first_bank = int(banks[0])
        kernel = self.engines[first_bank]
        ref_free = getattr(kernel, "ref_free", False)
        blocking_ns = kernel.next_blocking_ns() - _WINDOW_MARGIN_NS
        # Cheap pre-check: a structural cut at position 0 can only come
        # from the *first* event's bank (it alone owns global position
        # 0), and that happens every time an attempt window starts on a
        # REF boundary -- the per-boundary cadence of an interleaved
        # trace.  Deciding it from one bank's scalars skips the whole
        # windowed setup; any uncertain case falls through.
        first_model = self.device.bank(first_bank)
        first_t0 = float(times[0])
        first_block = blocking_ns
        if ref_free:
            first_block = min(
                blocking_ns, first_model.refresh_engine.next_time_ns
            )
        # Neither regime matching the first event's bank, or its first
        # issue time reaching the boundary, cuts at position 0.
        regime = _issue_regime(first_model, first_t0)
        if regime is None or regime[1] >= first_block:
            return 0, False, False
        uniq_banks = np.unique(banks)
        models: dict[int, Any] = {}
        for bank_index in uniq_banks:
            model = self.device.bank(int(bank_index))
            models[int(bank_index)] = model
            if not ref_free:
                blocking_ns = min(
                    blocking_ns, model.refresh_engine.next_time_ns
                )
            if model.bank.timings.trc <= 2e-9:
                return 0, False, False
        extent = int(np.searchsorted(times, blocking_ns, side="left"))
        if extent == 0:
            return 0, False, False

        issue = times[:extent].copy()
        cut = extent
        chained: list[int] = []
        for bank_index in uniq_banks:
            b = int(bank_index)
            positions = np.flatnonzero(banks[:extent] == b)
            if not len(positions):
                continue
            model = models[b]
            bank = model.bank
            trc = bank.timings.trc
            bank_times = times[positions]
            regime = _issue_regime(model, float(bank_times[0]))
            bank_block = blocking_ns
            if ref_free:
                # This bank's own REF boundary; other banks' lanes run
                # past it.  (Without ref_free, blocking_ns
                # already folds in every bank's next REF.)
                bank_block = min(
                    blocking_ns, model.refresh_engine.next_time_ns
                )
            if regime is None:
                cut = min(cut, int(positions[0]))
            elif not regime[0]:
                # Idle regime: this bank's ACTs issue at trace time.
                ref_cut = int(
                    np.searchsorted(bank_times, bank_block, side="left")
                )
                if ref_cut < len(positions):
                    cut = min(cut, int(positions[ref_cut]))
                gaps_ok = (
                    (bank_times[:-1] + trc) <= (bank_times[1:] + 1e-9)
                )
                if not gaps_ok.all():
                    bad = int(np.argmin(gaps_ok)) + 1
                    cut = min(cut, int(positions[bad]))
            else:
                # Saturated regime: this bank's ACTs chain off tRC.
                seed = regime[1]
                if seed >= bank_block:
                    cut = min(cut, int(positions[0]))
                    continue
                seeded = np.full(len(bank_times), trc, dtype=np.float64)
                seeded[0] = seed
                chain = np.cumsum(seeded)
                ok = chain > bank_times + 1e-9
                if not ok.all():
                    cut = min(cut, int(positions[int(np.argmin(ok))]))
                blocked = chain >= bank_block
                if blocked.any():
                    cut = min(
                        cut, int(positions[int(np.argmax(blocked))])
                    )
                issue[positions] = chain
                chained.append(b)
            if cut == 0:
                return 0, False, False
        extent = cut
        if extent == 0:
            # A bank's cut can land on position 0 via a `continue`
            # branch above, skipping the in-loop early return.
            return 0, False, False

        # Fault referee, per bank on its own subsequence: cut before the
        # first ACT (in global order) that would flip a bit.
        timing_extent = extent
        referees = []
        for bank_index in uniq_banks:
            faults = models[int(bank_index)].faults
            if faults is None:
                continue
            positions = np.flatnonzero(banks[:extent] == bank_index)
            if not len(positions):
                continue
            referee = faults.batch(rows[positions])
            if referee.cut < len(positions):
                cut = int(positions[referee.cut])
                if cut == 0:
                    return 0, False, True
                extent = min(extent, cut)
            referees.append((positions, referee))

        consumed = kernel.commit_run_banked(
            issue[:extent], rows[:extent], banks[:extent]
        )
        if consumed == 0:
            return 0, True, False
        kernel_cut = consumed < timing_extent
        extent = consumed

        # ---- Commit the batch (per-bank device state, global stats) --
        for bank_index in uniq_banks:
            b = int(bank_index)
            positions = np.flatnonzero(banks[:extent] == b)
            if not len(positions):
                continue
            model = models[b]
            bank = model.bank
            last = int(positions[-1])
            last_issue = float(issue[last])
            bank.open_row = int(rows[last])
            bank._last_act_ns = last_issue
            bank._next_act_ns = last_issue + bank.timings.trc
            bank.stats.activations += len(positions)
            bank.stats.row_buffer_misses += len(positions)
            model._clock_ns = last_issue
            # Per-bank engine stats: the reference bumps the receiving
            # bank's MitigationStats per ACT; commit_run_banked owns
            # only the shared-table side.
            self.engines[b].stats.activations += len(positions)
            if b in chained:
                delays[gid_base + positions] = (
                    issue[positions] - times[positions]
                )
        self.counters.acts_issued += extent
        self._lane.vector_acts += extent

        for positions, referee in referees:
            referee.commit(int(np.searchsorted(positions, extent)))
        return extent, False, kernel_cut

    def _merge_chunk(
        self,
        last_time_ns: float,
        delays: np.ndarray,
        flip_lanes: list,
        directive_lanes: list,
    ) -> None:
        """Fold a chunk's per-lane outputs back into global order."""
        self._fold_delays(delays)
        # Each lane's tags are ascending in global index and indices are
        # unique across lanes, so a heap merge restores the exact order
        # the reference's single event loop would have produced.
        for _, flips in heapq.merge(*flip_lanes, key=lambda tag: tag[0]):
            self.bit_flips.extend(flips)
        if self.directive_log is not None:
            for _, directive in heapq.merge(
                *directive_lanes, key=lambda tag: tag[0]
            ):
                self.directive_log.append(directive)
        self.last_event_ns = last_time_ns

    def _fold_delays(self, delays: np.ndarray) -> None:
        """Fold the global delay scatter into the tracker in one pass.

        Reproduces per-event ``LatencyTracker.record`` state exactly:
        the float total is a seeded sequential cumsum over the positive
        delays *in global event order* (same rounding as the scalar
        ``+=``), and log2 bucket exponents come from ``np.frexp`` --
        exact bit manipulation -- except in the narrow band where
        ``math.log2`` may round up across an integer, which replays the
        reference's scalar expression.  All other tracker fields are
        order-independent counts.  With a bus installed the same arrays
        feed the ``sched.*`` metrics (:func:`_publish_delays`).
        """
        tracker = self.latency
        count = len(delays)
        tracker._count += count
        positive = np.flatnonzero(delays > 0.0)
        tracker._buckets[0] += count - len(positive)
        pos = delays[positive]
        bus = _telemetry.BUS
        if bus is not None:
            _publish_delays(bus.registry, count, pos)
        if not len(pos):
            return
        tracker._delayed += len(pos)
        seeded = np.empty(len(pos) + 1, dtype=np.float64)
        seeded[0] = tracker._total
        seeded[1:] = pos
        tracker._total = float(np.cumsum(seeded)[-1])
        peak = float(pos.max())
        if peak > tracker._max:
            tracker._max = peak
        floored = np.maximum(pos, 1.0)
        mantissa, frexp_exp = np.frexp(floored)
        exponents = frexp_exp.astype(np.int64) - 1
        risky = mantissa >= 1.0 - 1e-12
        if risky.any():
            for j in np.flatnonzero(risky):
                exponents[j] = max(
                    0, int(math.log2(max(float(pos[j]), 1.0)))
                )
        np.minimum(exponents, LatencyTracker._MAX_EXPONENT, out=exponents)
        bucket_counts = np.bincount(exponents + 1, minlength=32)
        buckets = tracker._buckets
        for index in np.flatnonzero(bucket_counts):
            buckets[index] += int(bucket_counts[index])

    # ------------------------------------------------------------------
    # Results (``MemoryController`` parity)
    # ------------------------------------------------------------------

    def latency_summary(self) -> LatencySummary:
        return self.latency.summary()

    def engine_stats(self):
        return [engine.stats for engine in self.engines]

    def total_victim_rows_refreshed(self) -> int:
        return sum(engine.stats.rows_refreshed for engine in self.engines)

    def describe(self) -> str:
        scheme = self.engines[0].describe() if self.engines else "none"
        return (
            f"FastMemoryController(banks={len(self.engines)}, "
            f"scheme={scheme})"
        )


def _publish_delays(registry, count: int, pos: np.ndarray) -> None:
    """Fold one chunk's delays into the ``sched.*`` metrics.

    Matches what ``LatencyTracker.record`` publishes per ACT: ``count``
    ACTs, of which ``pos`` (the positive delays, in global event order)
    were delayed.  The histogram total is a cumsum seeded with the
    running total (the scalar ``+=`` sequence), and buckets come from
    ``int(v).bit_length()`` -- ``np.frexp`` of the floored value is
    exact -- so the snapshot equals the reference one bit for bit.
    Metrics the reference would not have created stay uncreated.
    """
    if not count:
        return
    registry.counter("sched.acts").inc(count)
    if not len(pos):
        return
    registry.counter("sched.delayed_acts").inc(len(pos))
    histogram = registry.histogram("sched.delay_ns")
    if not isinstance(histogram, Histogram):
        return  # disabled registry
    histogram.count += len(pos)
    seeded = np.empty(len(pos) + 1, dtype=np.float64)
    seeded[0] = histogram.total
    seeded[1:] = pos
    histogram.total = float(np.cumsum(seeded)[-1])
    histogram.max = max(histogram.max, float(pos.max()))
    _, bit_length = np.frexp(np.floor(pos))
    index = np.where(
        pos < 1.0, 0, np.minimum(bit_length - 1, Histogram._MAX_EXPONENT) + 1
    )
    bucket_counts = np.bincount(index, minlength=len(histogram.buckets))
    for bucket in np.flatnonzero(bucket_counts):
        histogram.buckets[bucket] += int(bucket_counts[bucket])


def build_fast_controller_ex(
    device: DramDevice,
    factory: MitigationFactory,
    keep_directive_log: bool = False,
) -> tuple[FastMemoryController | None, str | None]:
    """Build the fast controller, or ``(None, reason)`` if it cannot
    apply.  Fallback triggers (the caller should use the reference
    ``MemoryController``):

    * an ``events``-level telemetry bus is installed -- the vector path
      cannot produce the per-ACT records that level retains.  Under a
      ``metrics``-level bus the controller builds and publishes its
      aggregates instead;
    * some bank's engine type has no registered kernel (see
      :func:`register_kernel`; :func:`kernel_schemes` lists coverage).
    """
    bus = _telemetry.BUS
    if bus is not None and bus.per_act:
        return None, (
            "events-level telemetry bus active (per-ACT events need "
            "the reference loop)"
        )
    mitigations = [
        factory(bank, device.geometry.rows_per_bank)
        for bank in range(device.geometry.total_banks)
    ]
    engines: list[FastKernel] = []
    for mitigation in mitigations:
        kernel = kernel_for(mitigation)
        if kernel is None:
            scheme = getattr(mitigation, "name", type(mitigation).__name__)
            return None, f"no batched kernel for scheme {scheme!r}"
        engines.append(kernel)
    return FastMemoryController(device, engines, keep_directive_log), None


def build_fast_controller(
    device: DramDevice,
    factory: MitigationFactory,
    keep_directive_log: bool = False,
) -> FastMemoryController | None:
    """:func:`build_fast_controller_ex` without the fallback reason."""
    controller, _ = build_fast_controller_ex(
        device, factory, keep_directive_log
    )
    return controller
