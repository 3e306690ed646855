"""The shared experiment runner: parallel fan-out + result caching.

Every figure- and table-regenerating experiment decomposes into
independent jobs -- mostly :func:`repro.sim.simulator.simulate` calls
over (workload, scheme, config) tuples.  This module gives them one
substrate:

* a :class:`Job` names a top-level function (``"module:callable"``)
  plus picklable keyword arguments, so the *same* description can be
  hashed for the on-disk cache and shipped to a worker process;
* :class:`ExperimentRunner` executes a batch of jobs -- serially, or
  fanned out across CPU cores with ``jobs=N`` -- consulting a
  :class:`~repro.sim.cache.ResultCache` first and emitting per-job
  progress lines plus a wall-clock/cache-hit summary;
* :func:`run_sim_spec` is the declarative form of ``simulate()``: the
  trace and the mitigation factory are described as specs (not live
  objects), which is what makes simulation jobs cacheable and
  process-portable;
* a module-level default runner (:func:`get_runner` /
  :func:`configure`) lets the CLI turn parallelism and caching on for
  every experiment without threading runner handles through each
  ``run()`` signature.

Results are bit-identical between serial and parallel execution: every
job is a pure function of its kwargs (explicit seeds everywhere), and
batch results are returned in submission order.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..dram.timing import DDR4_2400, DramTimings
from ..sim.cache import MISS, ResultCache, cache_key
from ..sim.metrics import SimulationResult
from ..sim.simulator import simulate
from ..telemetry import runtime as _telemetry

__all__ = [
    "Job",
    "JobRecord",
    "RunnerStats",
    "ExperimentRunner",
    "get_runner",
    "set_runner",
    "configure",
    "using_runner",
    "ENGINES",
    "get_engine",
    "set_engine",
    "using_engine",
    "run_sim_spec",
    "sim_job",
    "build_factory",
]

#: Simulation engine variants a job may request: the per-event
#: reference loop, or the columnar batch engine of
#: :mod:`repro.core.fastpath` (which falls back to the reference for
#: schemes without a batched kernel).
ENGINES = ("reference", "fast")

_default_engine = "reference"


def get_engine() -> str:
    """The engine variant :func:`sim_job` uses when none is requested."""
    return _default_engine


def set_engine(engine: str) -> str:
    """Install ``engine`` as the default variant; returns it."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    global _default_engine
    _default_engine = engine
    return _default_engine


@contextlib.contextmanager
def using_engine(engine: str) -> Iterator[str]:
    """Temporarily route :func:`sim_job` jobs through ``engine``."""
    previous = get_engine()
    set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)


# ----------------------------------------------------------------------
# Job description
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of work: a named top-level function plus its kwargs.

    Attributes:
        fn: ``"package.module:callable"`` path; the callable must be
            importable from a fresh process (no closures).
        kwargs: Keyword arguments; must be picklable, and hashable via
            :func:`repro.sim.cache.canonical` for cache addressing.
        label: Short human label for progress lines.
        cacheable: Disable for jobs whose outputs are not worth disk
            space or are inherently unstable.
    """

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    cacheable: bool = True

    def key(self) -> str:
        """The job's content-addressed cache key."""
        return cache_key({"fn": self.fn, "kwargs": dict(self.kwargs)})


def _resolve(path: str) -> Callable[..., Any]:
    """Import ``"module:callable"`` and return the callable."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ValueError(f"job fn must be 'module:callable', got {path!r}")
    fn = getattr(import_module(module_name), attr, None)
    if not callable(fn):
        raise ValueError(f"{path!r} does not name a callable")
    return fn


def _execute(job: Job) -> tuple[Any, float]:
    """Worker entry point: run one job (also used on the serial path).

    Returns the result and the job's own run time in seconds, measured
    where it runs, so time a parallel job spends queued for a worker is
    not counted."""
    started = time.perf_counter()
    result = _resolve(job.fn)(**job.kwargs)
    return result, time.perf_counter() - started


def _execute_traced(
    job: Job,
    sample_interval_ns: float | None,
    max_events: int | None,
    per_act: bool = True,
) -> tuple[Any, float, dict[str, Any]]:
    """Run one job inside a fresh telemetry session.

    Used whenever the *parent* has telemetry active: the job gets its
    own bus (so worker processes don't publish into an inherited copy
    that would be silently discarded) and the bus state rides home with
    the result as a picklable dict for deterministic merging.  The same
    wrapper runs on the serial path so serial and parallel executions
    produce identical event streams.  ``per_act`` carries the parent
    bus's level, so a ``metrics`` parent gets ``metrics`` job buses
    (and fast-engine jobs keep the fast engine).  Returns the result,
    the job's run time (see :func:`_execute`) and the bus state.
    """
    from ..telemetry.runtime import TelemetryBus, session
    from ..telemetry.sampler import TimeSeriesSampler

    sampler = (
        TimeSeriesSampler(sample_interval_ns) if sample_interval_ns else None
    )
    bus = TelemetryBus(sampler=sampler, max_events=max_events, events=per_act)
    with session(bus):
        result, seconds = _execute(job)
    return result, seconds, bus.export_state()


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job: how it resolved and how long it took."""

    label: str
    seconds: float
    #: "cache" or "computed".
    source: str
    #: Advisory annotation, e.g. the fast-engine fallback reason for a
    #: simulation job that silently ran on the reference loop.
    note: str = ""


@dataclass
class RunnerStats:
    """Counters accumulated across every batch a runner executes."""

    jobs: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_seconds: float = 0.0
    batches: int = 0
    #: Per-job outcomes in submission order (label, elapsed, source).
    records: list[JobRecord] = field(default_factory=list)

    def summary(self) -> str:
        """One-line report for experiment footers and the CLI."""
        return (
            f"runner: {self.jobs} job{'s' if self.jobs != 1 else ''} "
            f"({self.cache_hits} cached, {self.computed} computed) "
            f"in {self.wall_seconds:.2f}s"
        )

    def breakdown(self, limit: int = 10) -> list[str]:
        """Per-job elapsed-time and cache-hit lines for the summary.

        The ``limit`` slowest computed jobs are listed individually;
        cached jobs are aggregated (they all cost roughly one pickle
        load).  Returns an empty list when there is nothing to report.
        """
        lines: list[str] = []
        computed = [r for r in self.records if r.source == "computed"]
        cached = [r for r in self.records if r.source == "cache"]
        if computed:
            slowest = sorted(
                computed, key=lambda r: r.seconds, reverse=True
            )[:limit]
            total = sum(r.seconds for r in computed)
            lines.append(
                f"computed {len(computed)} job"
                f"{'s' if len(computed) != 1 else ''} "
                f"in {total:.2f}s of worker time; slowest:"
            )
            for record in slowest:
                lines.append(f"  {record.seconds:8.2f}s  {record.label}")
            if len(computed) > len(slowest):
                rest = total - sum(r.seconds for r in slowest)
                lines.append(
                    f"  {rest:8.2f}s  ({len(computed) - len(slowest)} more)"
                )
        if cached:
            hit_time = sum(r.seconds for r in cached)
            lines.append(
                f"cache hits: {len(cached)} job"
                f"{'s' if len(cached) != 1 else ''} "
                f"resolved from disk in {hit_time:.2f}s"
            )
        noted: dict[str, int] = {}
        for record in self.records:
            if record.note:
                noted[record.note] = noted.get(record.note, 0) + 1
        for note, count in sorted(noted.items()):
            lines.append(
                f"note ({count} job{'s' if count != 1 else ''}): {note}"
            )
        return lines


class ExperimentRunner:
    """Executes job batches with optional parallelism and caching.

    Args:
        jobs: Worker-process count; ``1`` runs in-process (the default
            and the reference semantics), ``0`` means all CPU cores.
        cache: Result cache, or ``None`` to recompute everything.
        progress: Emit per-job lines to stderr while a batch runs.
        sample_interval_ns: Simulated-time sampling interval for
            per-job telemetry sessions (None disables sampling).  Only
            consulted while a telemetry session is active in the
            parent.
        max_events_per_job: Event-retention cap per traced job; beyond
            it events are counted but dropped (reported in summaries),
            bounding memory for long traced sweeps.
        on_progress: Optional callback invoked in the *calling* process
            as each job resolves -- ``(index, job, result, seconds,
            source)`` with source ``"cache"`` or ``"computed"``.  For
            parallel batches it fires from the completion loop, in
            completion order, so live dashboards tick mid-batch.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: bool = False,
        sample_interval_ns: float | None = None,
        max_events_per_job: int | None = 200_000,
        on_progress: Callable[[int, Job, Any, float, str], None] | None = None,
    ) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.sample_interval_ns = sample_interval_ns
        self.max_events_per_job = max_events_per_job
        self.on_progress = on_progress
        self.stats = RunnerStats()

    # ------------------------------------------------------------------

    def _emit(self, index: int, total: int, job: Job, status: str) -> None:
        if not self.progress:
            return
        label = job.label or job.fn.rsplit(":", 1)[-1]
        print(
            f"  [{index + 1}/{total}] {label}: {status}",
            file=sys.stderr,
            flush=True,
        )

    @staticmethod
    def _label(job: Job) -> str:
        return job.label or job.fn.rsplit(":", 1)[-1]

    @staticmethod
    def _job_note(job: Job) -> str:
        """Advisory annotation for the job's record (may be empty).

        Currently detects fast-engine simulation jobs whose scheme has
        no batched kernel, so an ``experiment --fast`` summary names
        every silently-slow cell and why.  Kernel coverage is a
        property of the factory spec alone, so no device is built.  A
        fallback forced by an ``events``-level bus is reported by the
        ``FastPathFallback`` event ``simulate`` publishes into it.
        """
        if not job.fn.endswith(":run_sim_spec"):
            return ""
        if job.kwargs.get("engine", "reference") != "fast":
            return ""
        from ..core.fastpath import kernel_for

        try:
            factory = build_factory(
                job.kwargs["factory"],
                job.kwargs.get("hammer_threshold", 50_000),
                job.kwargs.get("timings", DDR4_2400),
            )
            probe = factory(0, int(job.kwargs.get("rows_per_bank", 65536)))
        except Exception:
            return ""  # malformed spec: let the job itself report it
        if kernel_for(probe) is None:
            scheme = getattr(probe, "name", type(probe).__name__)
            return (
                "fast engine fell back to the reference loop: no batched "
                f"kernel for scheme {scheme!r}"
            )
        return ""

    def run(self, batch: Sequence[Job]) -> list[Any]:
        """Execute every job; results come back in submission order.

        When a telemetry session is active in the calling process,
        every computed job runs inside its own telemetry session (in
        the worker for parallel runs) and the per-job event streams,
        metrics and samples are merged back into the active bus in
        *submission order* -- so a ``--jobs 4`` trace is byte-identical
        to a serial one.
        """
        _trace_memo.clear()
        try:
            return self._run_batch(batch)
        finally:
            _trace_memo.clear()

    def _run_batch(self, batch: Sequence[Job]) -> list[Any]:
        started = time.perf_counter()
        total = len(batch)
        results: list[Any] = [None] * total
        bus = _telemetry.BUS

        pending: list[int] = []
        keys: dict[int, str] = {}
        states: dict[int, dict[str, Any]] = {}
        elapsed: dict[int, float] = {}
        for index, job in enumerate(batch):
            if self.cache is not None and job.cacheable:
                key = job.key()
                keys[index] = key
                lookup_started = time.perf_counter()
                value = self.cache.get(key, label=self._label(job))
                if value is not MISS:
                    results[index] = value
                    self.stats.cache_hits += 1
                    self.stats.records.append(
                        JobRecord(
                            label=self._label(job),
                            seconds=time.perf_counter() - lookup_started,
                            source="cache",
                            note=self._job_note(job),
                        )
                    )
                    self._emit(index, total, job, "cache hit")
                    if self.on_progress is not None:
                        self.on_progress(
                            index, job, value,
                            time.perf_counter() - lookup_started, "cache",
                        )
                    continue
            pending.append(index)

        if len(pending) > 1 and self.jobs > 1:
            self._run_parallel(
                batch, pending, results, total, states, elapsed, bus,
            )
        else:
            for index in pending:
                if bus is not None:
                    (
                        results[index], elapsed[index], states[index]
                    ) = _execute_traced(
                        batch[index],
                        self.sample_interval_ns,
                        self.max_events_per_job,
                        bus.per_act,
                    )
                else:
                    results[index], elapsed[index] = _execute(batch[index])
                self._emit(
                    index, total, batch[index],
                    f"computed in {elapsed[index]:.2f}s",
                )
                if self.on_progress is not None:
                    self.on_progress(
                        index, batch[index], results[index],
                        elapsed[index], "computed",
                    )

        # Merge per-job telemetry and timing in submission order, so
        # parallel completion order cannot leak into any output.
        for index in pending:
            self.stats.records.append(
                JobRecord(
                    label=self._label(batch[index]),
                    seconds=elapsed.get(index, 0.0),
                    source="computed",
                    note=self._job_note(batch[index]),
                )
            )
            if bus is not None and index in states:
                bus.absorb(states[index], job=self._label(batch[index]))

        for index in pending:
            if self.cache is not None and batch[index].cacheable:
                self.cache.put(keys[index], results[index])
        self.stats.jobs += total
        self.stats.computed += len(pending)
        self.stats.batches += 1
        self.stats.wall_seconds += time.perf_counter() - started
        return results

    def _run_parallel(
        self,
        batch: Sequence[Job],
        pending: Sequence[int],
        results: list[Any],
        total: int,
        states: dict[int, dict[str, Any]],
        elapsed: dict[int, float],
        bus: _telemetry.TelemetryBus | None = None,
    ) -> None:
        """Fan ``pending`` out to worker processes; with ``bus`` (the
        parent's), each job runs traced at the parent bus's level.
        Each job's seconds are timed in its worker, so they exclude the
        time it waited in the pool's queue."""
        workers = min(self.jobs, len(pending))
        traced = bus is not None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if traced:
                futures = {
                    pool.submit(
                        _execute_traced,
                        batch[index],
                        self.sample_interval_ns,
                        self.max_events_per_job,
                        bus.per_act,
                    ): index
                    for index in pending
                }
            else:
                futures = {
                    pool.submit(_execute, batch[index]): index
                    for index in pending
                }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    if traced:
                        (
                            results[index], elapsed[index], states[index]
                        ) = future.result()
                    else:
                        results[index], elapsed[index] = future.result()
                    self._emit(
                        index, total, batch[index],
                        f"computed in {elapsed[index]:.2f}s",
                    )
                    if self.on_progress is not None:
                        self.on_progress(
                            index, batch[index], results[index],
                            elapsed[index], "computed",
                        )

    def call(
        self,
        fn: str,
        label: str = "",
        cacheable: bool = True,
        **kwargs: Any,
    ) -> Any:
        """Run one job through the runner (cache-aware convenience)."""
        return self.run([Job(fn, kwargs, label=label, cacheable=cacheable)])[0]

    def cache_counters(self) -> dict[str, Any] | None:
        """Cache hit/miss counters for end-of-run summaries, or ``None``.

        When a telemetry session is active its ``cache.hits`` /
        ``cache.misses`` registry counters are preferred: they include
        lookups performed *inside* worker jobs (absorbed back across
        the process boundary), which the runner-level
        :class:`~repro.sim.cache.ResultCache` session counters cannot
        see.  Stores and evictions are only tracked at the runner's own
        cache.  Returns ``None`` when the runner has no cache and no
        telemetry counters exist.
        """
        bus = _telemetry.BUS
        hits = misses = 0
        source = None
        if bus is not None and bus.registry.enabled:
            hits = bus.registry.counter("cache.hits").value
            misses = bus.registry.counter("cache.misses").value
            if hits or misses:
                source = "telemetry"
        if source is None:
            if self.cache is None:
                return None
            hits, misses = self.cache.hits, self.cache.misses
            source = "cache"
        counters: dict[str, Any] = {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "source": source,
        }
        if self.cache is not None:
            counters["stores"] = self.cache.stores
            counters["evictions"] = self.cache.evictions
        return counters

    def cache_summary(self) -> str | None:
        """One cache line for the CLI footer, or ``None`` without a cache."""
        counters = self.cache_counters()
        if counters is None:
            return None
        line = (
            f"cache: {counters['hits']:,} hit"
            f"{'s' if counters['hits'] != 1 else ''} / "
            f"{counters['misses']:,} miss"
            f"{'es' if counters['misses'] != 1 else ''} "
            f"({100.0 * counters['hit_ratio']:.1f}% hit rate)"
        )
        if "stores" in counters:
            line += (
                f", {counters['stores']:,} stored, "
                f"{counters['evictions']:,} evicted"
            )
        return line


# ----------------------------------------------------------------------
# Default runner plumbing
# ----------------------------------------------------------------------

#: Library default: serial, uncached -- experiments behave exactly as
#: plain function calls until the CLI (or a test) configures otherwise.
_default_runner = ExperimentRunner()


def get_runner() -> ExperimentRunner:
    """The runner experiments use when none is passed explicitly."""
    return _default_runner


def set_runner(runner: ExperimentRunner) -> ExperimentRunner:
    """Install ``runner`` as the default; returns it."""
    global _default_runner
    _default_runner = runner
    return _default_runner


def configure(
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | Path | None = None,
    progress: bool = False,
    sample_interval_ns: float | None = None,
    max_events_per_job: int | None = 200_000,
) -> ExperimentRunner:
    """Build and install a default runner from CLI-style knobs."""
    cache = ResultCache(cache_dir) if use_cache else None
    return set_runner(
        ExperimentRunner(
            jobs=jobs,
            cache=cache,
            progress=progress,
            sample_interval_ns=sample_interval_ns,
            max_events_per_job=max_events_per_job,
        )
    )


@contextlib.contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Temporarily install ``runner`` as the default (tests, scripts)."""
    previous = get_runner()
    set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


# ----------------------------------------------------------------------
# Declarative simulate() jobs
# ----------------------------------------------------------------------


#: The last traces :func:`_build_trace` used, as ``(key, trace)`` pairs,
#: most recent first.  Two slots: :func:`~repro.experiments.common.matrix_jobs`
#: lists every scheme of a workload back to back, and the capability
#: matrix alternates each scheme's attack and benign cells.  Emptied at
#: the start and end of every :meth:`ExperimentRunner.run` batch;
#: parallel workers are started per batch, so no trace outlives its
#: batch.
_trace_memo: list[tuple[tuple, Any]] = []
_TRACE_MEMO_SLOTS = 2


def _build_trace(
    trace: Mapping[str, Any],
    workload: str,
    duration_ns: float,
    seed: int,
    timings: DramTimings,
    rows_per_bank: int,
):
    """The read-only :class:`~repro.workloads.columnar.TraceArray` a
    trace spec describes, memoized for the next cells that use it."""
    label = trace.get("label", workload)
    key = (
        tuple(sorted(trace.items())), label, duration_ns, seed, timings,
        rows_per_bank,
    )
    for slot, (memo_key, memo_trace) in enumerate(_trace_memo):
        if memo_key == key:
            _trace_memo.insert(0, _trace_memo.pop(slot))
            return memo_trace
    kind = trace["kind"]
    if kind == "realistic":
        from ..workloads.spec_like import REALISTIC_PROFILES, profile_array

        built = profile_array(
            REALISTIC_PROFILES[label],
            duration_ns,
            rows_per_bank=rows_per_bank,
            seed=seed,
            timings=timings,
        )
    elif kind in ("synthetic", "s3_target"):
        from ..workloads.synthetic import (
            SYNTHETIC_PATTERNS,
            s3_rows,
            synthetic_array,
        )

        if kind == "synthetic":
            rows = SYNTHETIC_PATTERNS[label](rows_per_bank, seed)
        else:
            rows = s3_rows(target=trace["target"])
        built = synthetic_array(rows, duration_ns=duration_ns,
                                timings=timings)
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    for column in (built.time_ns, built.bank, built.row):
        column.flags.writeable = False
    _trace_memo[:] = [(key, built)] + _trace_memo[: _TRACE_MEMO_SLOTS - 1]
    return built


def build_factory(
    spec: Sequence[Any],
    hammer_threshold: float,
    timings: DramTimings,
):
    """Resolve a factory spec into a live per-bank engine factory.

    Specs (lists so they canonicalize identically through JSON):

    * ``["none"]`` -- the unprotected baseline;
    * ``["scaling", scheme]`` -- the Fig. 8/9 comparison set, rebuilt
      at the job's threshold via
      :func:`repro.analysis.scaling.scheme_factories`;
    * ``["capability", name]`` -- the full capability-matrix roster
      (:data:`repro.experiments.capability_matrix.SCHEMES`).
    """
    kind = spec[0]
    if kind == "none":
        from ..mitigations import no_mitigation_factory

        return no_mitigation_factory()
    if kind == "scaling":
        from ..analysis.scaling import scheme_factories

        return scheme_factories(int(hammer_threshold),
                                timings=timings)[spec[1]]
    if kind == "capability":
        from .capability_matrix import SCHEMES

        return SCHEMES[spec[1]][0](int(hammer_threshold))
    raise ValueError(f"unknown factory spec {spec!r}")


def run_sim_spec(
    *,
    trace: Mapping[str, Any],
    factory: Sequence[Any],
    scheme: str,
    workload: str,
    duration_ns: float,
    seed: int = 42,
    timings: DramTimings = DDR4_2400,
    rows_per_bank: int = 65536,
    hammer_threshold: float = 50_000,
    track_faults: bool = False,
    banks: int = 1,
    engine: str = "reference",
    chunk_events: int | None = None,
    ranks: int = 1,
) -> SimulationResult:
    """Declarative ``simulate()``: every input is a picklable spec.

    This is the function every cached/parallel simulation job resolves
    to; its keyword dictionary *is* the cache key material.  ``engine``
    selects the simulation variant (see :data:`ENGINES`); results are
    engine-independent by construction, but the variants have different
    perf envelopes, so the choice is part of the cache key whenever it
    is not the default.  The same applies to ``chunk_events`` /
    ``ranks``: results are identical at any value, and :func:`sim_job`
    keeps them out of the kwargs (and therefore the cache key) at their
    defaults so existing cache entries keep their addresses.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    events = _build_trace(
        trace, workload, duration_ns, seed, timings, rows_per_bank
    )
    return simulate(
        events,
        build_factory(factory, hammer_threshold, timings),
        scheme=scheme,
        workload=workload,
        banks=banks,
        rows_per_bank=rows_per_bank,
        timings=timings,
        hammer_threshold=hammer_threshold,
        track_faults=track_faults,
        duration_ns=duration_ns,
        fast=(engine == "fast"),
        chunk_events=chunk_events,
        ranks=ranks,
    )


def sim_job(
    *,
    trace: Mapping[str, Any],
    factory: Sequence[Any],
    scheme: str,
    workload: str,
    duration_ns: float,
    label: str = "",
    engine: str | None = None,
    **kwargs: Any,
) -> Job:
    """Build a :class:`Job` for one declarative simulation.

    ``engine`` defaults to the session engine (:func:`get_engine`); it
    enters the job's kwargs -- and therefore the cache key -- only when
    it differs from ``"reference"``, so fast-path runs are cached
    separately while every pre-existing reference cache entry keeps its
    address.
    """
    engine = engine if engine is not None else get_engine()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine != "reference":
        kwargs = dict(kwargs, engine=engine)
    return Job(
        fn="repro.experiments.runner:run_sim_spec",
        kwargs=dict(
            trace=dict(trace),
            factory=list(factory),
            scheme=scheme,
            workload=workload,
            duration_ns=duration_ns,
            **kwargs,
        ),
        label=label or f"{workload}/{scheme}",
    )
