"""Outside-in per-layer tracing for the benchmark.

The program itself carries no spans, so the tracer measures each layer
from the outside: it wraps the layer's public functions and methods
for the duration of one pass and restores them afterwards.  Two kinds
of record come out:

* **spans** for calls at cell granularity (a ``run_sim_spec`` cell,
  trace generation, ``TraceArray.from_events``, ``simulate``, the fast
  controller's ``run``, cache get/put, manifest writes, runner batches,
  campaign runs).  They are kept in memory, nest by call order, and
  are written out as one Chrome trace; a span's self time is its
  duration minus the time its child spans cover;
* **counters with accumulated time** for the per-ACT hot methods
  (``MemoryController.step``, ``HammerFaultModel.on_activate`` and the
  kernel protocol), where a span per call would swamp the run.

A module-level function is rebound in every ``repro`` module that holds
it, so each caller -- ``repro.experiments.runner.simulate`` as well as
``repro.sim.simulator.simulate`` -- sees the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["LAYER_METRICS", "Span", "Tracer", "median_metrics"]

#: Every per-layer metric the traced run reports, with its unit.
#: Kept in step with ``per_layer`` in BENCHMARK.json (a test checks).
LAYER_METRICS: dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.events": "count",
    "workloads.from_events_s": "s",
    "fastpath.run_s": "s",
    "fastpath.self_s": "s",
    "fastpath.fallback_cells": "count",
    "kernels.commit_calls": "count",
    "kernels.commit_s": "s",
    "kernels.commit_yield": "ratio",
    "kernels.vector_acts": "count",
    "kernels.scalar_acts": "count",
    "kernels.scalar_s": "s",
    "kernels.vector_frac": "ratio",
    "kernels.graphene.vector_frac": "ratio",
    "kernels.para.vector_frac": "ratio",
    "kernels.twice.vector_frac": "ratio",
    "kernels.cbt.vector_frac": "ratio",
    "kernels.refresh-rate.vector_frac": "ratio",
    "kernels.comet.vector_frac": "ratio",
    "kernels.abacus.vector_frac": "ratio",
    "mc.step_calls": "count",
    "mc.step_s": "s",
    "faults.activate_calls": "count",
    "faults.activate_s": "s",
    "faults.flips": "count",
    "sim.simulate_calls": "count",
    "sim.self_s": "s",
    "runner.jobs": "count",
    "runner.self_s": "s",
    "runner.cell_max_s": "s",
    "cache.get_calls": "count",
    "cache.get_s": "s",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "cache.hit_frac": "ratio",
    "campaign.self_s": "s",
    "campaign.record_calls": "count",
    "campaign.record_s": "s",
    "telemetry.events": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in ``Tracer.spans``, or -1.
    parent: int = -1
    #: The cell (``workload/scheme``) the span ran under, if any.
    cell: str = ""
    args: dict[str, Any] = field(default_factory=dict)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Wraps the program's layers while :meth:`installed`, recording
    only between :meth:`start` and :meth:`stop` (the timed region)."""

    def __init__(self, kernel_types: dict[type, str]) -> None:
        #: Kernel class -> scheme label, for the kernel-protocol patches.
        self.kernel_types = kernel_types
        self.active = False
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.fallback_reasons: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._cell = ""
        self._commit_depth = 0
        self._origin = 0.0
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin recording (the pass's timed region starts)."""
        self._origin = perf_counter()
        self.active = True

    def stop(self) -> None:
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str, cell: str | None = None) -> Iterator[Span]:
        span = Span(
            name,
            perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            cell=self._cell if cell is None else cell,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        previous_cell, self._cell = self._cell, span.cell
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._cell = previous_cell
            self._stack.pop()

    def _spanned(
        self, name: str, fn: Callable, label=None, after=None
    ) -> Callable:
        """``fn`` inside a span; ``label(args, kwargs)`` names a cell,
        ``after(span, result)`` annotates the span from the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            cell = label(args, kwargs) if label else None
            with self.span(name, cell=cell) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(span, result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable, after=None) -> Callable:
        """``fn`` with a call counter and accumulated time under ``key``."""
        counters = self.counters
        calls_key, seconds_key = f"{key}_calls", f"{key}_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            started = perf_counter()
            result = fn(*args, **kwargs)
            counters[seconds_key] += perf_counter() - started
            counters[calls_key] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def _patch_attr(self, owner: Any, name: str, make: Callable) -> None:
        had = name in vars(owner)
        saved = vars(owner).get(name)
        setattr(owner, name, make(getattr(owner, name)))
        if had:
            self._undo.append(lambda: setattr(owner, name, saved))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module's binding of ``original`` at
        ``wrapper``."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            self._install()
            yield self
        finally:
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()

    def _install(self) -> None:
        from repro.campaign.driver import CampaignDriver
        from repro.campaign.manifest import CampaignManifest
        from repro.controller.mc import MemoryController
        from repro.core import fastpath
        from repro.dram.faults import HammerFaultModel
        from repro.experiments import runner
        from repro.sim import simulator
        from repro.sim.cache import MISS, ResultCache
        from repro.workloads import spec_like, synthetic
        from repro.workloads.columnar import TraceArray

        counters = self.counters

        # -- workloads: generators drain inside their span ------------
        def drain(span: Span, events: Any) -> list:
            events = list(events)
            counters["workloads.events"] += len(events)
            return events

        for module, fn_name in (
            (spec_like, "profile_events"), (synthetic, "synthetic_events"),
        ):
            original = getattr(module, fn_name)
            self._rebind(
                original,
                self._spanned("workloads.generate", original, after=drain),
            )
        from_events = vars(TraceArray)["from_events"].__func__
        self._patch_attr(
            TraceArray, "from_events",
            lambda _: classmethod(
                self._spanned("workloads.from_events", from_events)
            ),
        )

        # -- experiments.runner: cells and batches --------------------
        def cell_label(args, kwargs) -> str:
            return f"{kwargs.get('workload')}/{kwargs.get('scheme')}"

        self._rebind(
            runner.run_sim_spec,
            self._spanned("cell", runner.run_sim_spec, label=cell_label),
        )

        def count_jobs(fn):
            spanned = self._spanned("runner.run", fn)

            @functools.wraps(fn)
            def wrapper(runner_self, batch, *args, **kwargs):
                if self.active:
                    counters["runner.jobs"] += len(batch)
                return spanned(runner_self, batch, *args, **kwargs)

            return wrapper

        self._patch_attr(runner.ExperimentRunner, "run", count_jobs)

        # -- sim.simulator and core.fastpath --------------------------
        self._rebind(
            simulator.simulate,
            self._spanned("sim.simulate", simulator.simulate),
        )
        self._patch_attr(
            fastpath.FastMemoryController, "run",
            lambda fn: self._spanned("fastpath.run", fn),
        )
        build_ex = fastpath.build_fast_controller_ex

        @functools.wraps(build_ex)
        def build_counted(*args, **kwargs):
            controller, reason = build_ex(*args, **kwargs)
            if self.active and controller is None:
                counters["fastpath.fallback_cells"] += 1
                self.fallback_reasons[str(reason)] += 1
            return controller, reason

        self._rebind(build_ex, build_counted)

        # -- core.fast_kernels: the kernel protocol -------------------
        for kernel_type, scheme in self.kernel_types.items():
            for method in ("commit_run", "commit_run_banked"):
                if hasattr(kernel_type, method):
                    self._patch_attr(
                        kernel_type, method,
                        lambda fn, s=scheme: self._commit_wrapper(fn, s),
                    )
            self._patch_attr(
                kernel_type, "on_activate",
                lambda fn, s=scheme: self._scalar_wrapper(fn, s),
            )

        # -- controller.mc and dram.faults: per-ACT hot methods -------
        self._patch_attr(
            MemoryController, "step", lambda fn: self._counted("mc.step", fn)
        )

        def count_flips(flips) -> None:
            counters["faults.flips"] += len(flips)

        self._patch_attr(
            HammerFaultModel, "on_activate",
            lambda fn: self._counted("faults.activate", fn, after=count_flips),
        )

        # -- sim.cache, campaign --------------------------------------
        def note_hit(span: Span, value: Any) -> Any:
            span.args["hit"] = value is not MISS
            return value

        self._patch_attr(
            ResultCache, "get",
            lambda fn: self._spanned("cache.get", fn, after=note_hit),
        )
        self._patch_attr(
            ResultCache, "put", lambda fn: self._spanned("cache.put", fn)
        )
        self._patch_attr(
            CampaignManifest, "record_cell",
            lambda fn: self._spanned("campaign.record", fn),
        )
        self._patch_attr(
            CampaignDriver, "run",
            lambda fn: self._spanned("campaign.run", fn),
        )

    def _commit_wrapper(self, fn: Callable, scheme: str) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(kernel, times, *args, **kwargs):
            if not self.active:
                return fn(kernel, times, *args, **kwargs)
            self._commit_depth += 1
            started = perf_counter()
            try:
                result = fn(kernel, times, *args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._commit_depth -= 1
            consumed = result[0] if isinstance(result, tuple) else result
            counters["kernels.commit_calls"] += 1
            counters["kernels.commit_s"] += elapsed
            counters["kernels.offered"] += len(times)
            counters["kernels.vector_acts"] += consumed
            counters[f"kernels.{scheme}.vector"] += consumed
            return result

        return wrapper

    def _scalar_wrapper(self, fn: Callable, scheme: str) -> Callable:
        """A kernel ``on_activate`` is a scalar ACT only when no
        ``commit_run`` encloses it."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            if not self.active or self._commit_depth:
                return fn(kernel, *args, **kwargs)
            started = perf_counter()
            result = fn(kernel, *args, **kwargs)
            counters["kernels.scalar_s"] += perf_counter() - started
            counters["kernels.scalar_acts"] += 1
            counters[f"kernels.{scheme}.scalar"] += 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [
            span.end - span.start - covered[index]
            for index, span in enumerate(self.spans)
        ]

    def metrics(
        self, wall_s: float, untraced_wall_s: float, telemetry_events: int
    ) -> dict[str, float]:
        """The per-layer metrics of one traced pass (``LAYER_METRICS``)."""
        c = self.counters
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for span, self_s in zip(self.spans, self.self_times()):
            total[span.name] += span.end - span.start
            own[span.name] += self_s
            calls[span.name] += 1
        cells = [s.end - s.start for s in self.spans if s.name == "cell"]
        hits = sum(
            1
            for s in self.spans
            if s.name == "cache.get" and s.args.get("hit")
        )
        vector, scalar = c["kernels.vector_acts"], c["kernels.scalar_acts"]
        out = {
            "workloads.generate_s": total["workloads.generate"],
            "workloads.events": c["workloads.events"],
            "workloads.from_events_s": total["workloads.from_events"],
            "fastpath.run_s": total["fastpath.run"],
            "fastpath.self_s": own["fastpath.run"],
            "fastpath.fallback_cells": c["fastpath.fallback_cells"],
            "kernels.commit_calls": c["kernels.commit_calls"],
            "kernels.commit_s": c["kernels.commit_s"],
            "kernels.commit_yield": _ratio(vector, c["kernels.offered"]),
            "kernels.vector_acts": vector,
            "kernels.scalar_acts": scalar,
            "kernels.scalar_s": c["kernels.scalar_s"],
            "kernels.vector_frac": _ratio(vector, vector + scalar),
        }
        for scheme in sorted(set(self.kernel_types.values())):
            v, s = c[f"kernels.{scheme}.vector"], c[f"kernels.{scheme}.scalar"]
            out[f"kernels.{scheme}.vector_frac"] = _ratio(v, v + s)
        out.update({
            "mc.step_calls": c["mc.step_calls"],
            "mc.step_s": c["mc.step_s"],
            "faults.activate_calls": c["faults.activate_calls"],
            "faults.activate_s": c["faults.activate_s"],
            "faults.flips": c["faults.flips"],
            "sim.simulate_calls": calls["sim.simulate"],
            "sim.self_s": own["sim.simulate"],
            "runner.jobs": c["runner.jobs"],
            "runner.self_s": own["runner.run"],
            "runner.cell_max_s": max(cells, default=0.0),
            "cache.get_calls": calls["cache.get"],
            "cache.get_s": total["cache.get"],
            "cache.put_calls": calls["cache.put"],
            "cache.put_s": total["cache.put"],
            "cache.hit_frac": _ratio(hits, calls["cache.get"]),
            "campaign.self_s": own["campaign.run"],
            "campaign.record_calls": calls["campaign.record"],
            "campaign.record_s": total["campaign.record"],
            "telemetry.events": telemetry_events,
            "trace.coverage": _ratio(sum(own.values()), wall_s),
            "trace.overhead": _ratio(wall_s, untraced_wall_s) - 1.0,
        })
        return out

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        events = []
        self_times = self.self_times()
        for index, (span, self_s) in enumerate(zip(self.spans, self_times)):
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start - self._origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "cell": span.cell,
                    "self_us": self_s * 1e6,
                    **span.args,
                },
            })
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "fallback_reasons": dict(self.fallback_reasons),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median across traced passes (counts repeat exactly)."""
    return {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
