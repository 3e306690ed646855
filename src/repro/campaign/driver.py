"""The checkpointed campaign driver.

Orchestration shape: the spec expands to cells, completed cells are
subtracted using the manifest, and the remainder runs through the PR-1
:class:`~repro.experiments.runner.ExperimentRunner` in batches.  Each
cell checkpoints to the manifest *as it resolves* (via the runner's
``on_progress`` hook, which also ticks the live dashboard mid-batch),
so a killed campaign loses at most the in-flight batch -- and even
those cells usually resolve from the result cache on resume, because
manifest keys and cache keys are the same digests.

A batch that raises is retried serially, cell by cell, so one poisoned
cell records a ``failed`` manifest line instead of sinking its
batch-mates.  Failed cells are retried on resume (last record wins).

The driver also owns the campaign's telemetry: the whole run executes
inside a ``metrics``-level telemetry session (counters and histograms
plus job-level events, so kernel-scheme cells stay on the fast
engine).  After every batch the job-level events (cache outcomes,
fast-path fallbacks, oracle violations) are appended to
``telemetry.jsonl`` in the campaign directory, followed by one
``CampaignMetrics`` record -- the run's cumulative registry snapshot
under a per-run id -- so the HTML report can be rendered from the
merged stream at any time, including from a half-finished campaign.
Violations are also surfaced on the dashboard as they drain.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Any, Callable

from ..experiments.runner import ExperimentRunner, Job
from ..sim.cache import ResultCache
from ..telemetry.events import event_record
from ..telemetry.runtime import TelemetryBus, session
from .grid import CampaignCell, CampaignSpec
from .manifest import CampaignManifest, CellRecord
from .progress import DashboardRenderer, ProgressSampler

__all__ = ["CampaignDriver", "METRICS_RECORD", "TELEMETRY_NAME"]

#: Merged campaign event stream, appended batch by batch.
TELEMETRY_NAME = "telemetry.jsonl"
#: ``type`` of the per-batch registry-snapshot records in that stream.
METRICS_RECORD = "CampaignMetrics"


def _chunks(items: list[Any], size: int) -> list[list[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class CampaignDriver:
    """Runs (or resumes) one campaign directory to completion.

    Args:
        spec: The campaign grid.
        manifest: The directory's manifest (create or open it first).
        workers: Runner worker processes.
        cache: Result cache; defaults to ``<campaign dir>/cache`` so
            even a lost manifest degrades to cache hits.  Pass
            ``cache=None`` with ``use_cache=False`` to disable.
        dashboard: Renderer for live progress (None = headless).
        heartbeat_s: Minimum spacing of manifest heartbeat lines.
        batch_size: Cells per runner batch (default ``4 * workers``).
        clock: Injected monotonic clock (tests pin it).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        manifest: CampaignManifest,
        workers: int = 1,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        dashboard: DashboardRenderer | None = None,
        heartbeat_s: float = 10.0,
        batch_size: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if manifest.spec_digest and manifest.spec_digest != spec.digest():
            raise ValueError(
                "campaign spec does not match the manifest in "
                f"{manifest.directory} (digest {spec.digest()[:12]} vs "
                f"{manifest.spec_digest[:12]}); resume with the original "
                "spec or start a new directory"
            )
        self.spec = spec
        self.manifest = manifest
        self.workers = max(1, workers)
        if cache is None and use_cache:
            cache = ResultCache(manifest.directory / "cache")
        self.cache = cache
        self.dashboard = dashboard
        self.heartbeat_s = heartbeat_s
        self.batch_size = batch_size or 4 * self.workers
        self._clock = clock
        self._last_heartbeat = clock()
        self.telemetry_path = manifest.directory / TELEMETRY_NAME
        #: Cache keys this session computed (not cache-resolved) --
        #: the zero-recompute proof compares these against the
        #: manifest's completed keys from the previous run.
        self.computed_keys: list[str] = []

    # ------------------------------------------------------------------

    def _drain_telemetry(
        self, bus: TelemetryBus, sampler: ProgressSampler, run_id: str
    ) -> None:
        """Append the bus's events, then one metrics record, to
        telemetry.jsonl, and clear the events.

        The metrics record carries the run's cumulative registry
        snapshot, so the last record of each run holds its totals.
        """
        metrics = {
            "type": METRICS_RECORD,
            "run": run_id,
            "metrics": bus.registry.snapshot(),
        }
        with open(self.telemetry_path, "a", encoding="utf-8") as handle:
            for event in bus.events:
                sampler.observe_event(event)
                handle.write(
                    json.dumps(event_record(event), sort_keys=True) + "\n"
                )
            handle.write(json.dumps(metrics, sort_keys=True) + "\n")
        bus.events.clear()

    def _record(
        self,
        cell: CampaignCell,
        sampler: ProgressSampler,
        *,
        seconds: float,
        source: str,
        acts: int = 0,
        error: str = "",
        runner: ExperimentRunner | None = None,
    ) -> None:
        """Checkpoint one cell outcome and tick the observability layer."""
        failed = bool(error)
        self.manifest.record_cell(
            CellRecord(
                cell_id=cell.cell_id,
                key=cell.key(),
                status="failed" if failed else "completed",
                seconds=seconds,
                source=source,
                scheme=cell.scheme,
                workload=cell.workload,
                hammer_threshold=cell.hammer_threshold,
                timing_grid=cell.timing_grid,
                acts=acts,
                error=error,
            )
        )
        if not failed and source == "computed":
            self.computed_keys.append(cell.key())
        sampler.cell_finished(
            scheme=cell.scheme,
            seconds=seconds,
            source=source,
            acts=acts,
            failed=failed,
        )
        now = self._clock()
        if now - self._last_heartbeat >= self.heartbeat_s:
            self._last_heartbeat = now
            counters = runner.cache_counters() if runner else None
            self.manifest.record_heartbeat(sampler.snapshot(counters))
        if self.dashboard is not None:
            counters = runner.cache_counters() if runner else None
            self.dashboard.paint(
                sampler.snapshot(counters), name=self.spec.name
            )

    def _run_batch(
        self,
        batch: list[CampaignCell],
        runner: ExperimentRunner,
        sampler: ProgressSampler,
    ) -> None:
        """Run one batch; on a batch error, retry unresolved cells serially."""
        resolved: set[str] = set()

        def hook(
            index: int, job: Job, result: Any, seconds: float, source: str
        ) -> None:
            cell = batch[index]
            resolved.add(cell.cell_id)
            self._record(
                cell,
                sampler,
                seconds=seconds,
                source=source,
                acts=int(getattr(result, "acts", 0)),
                runner=runner,
            )

        runner.on_progress = hook
        try:
            runner.run([cell.job() for cell in batch])
            return
        except Exception:
            # One cell poisoned the batch (and, on the parallel path,
            # may have discarded batch-mates that finished after it).
            # Retry every unresolved cell in isolation so the failure
            # lands on exactly the cell that owns it.
            pass
        serial = ExperimentRunner(jobs=1, cache=runner.cache)
        for cell in batch:
            if cell.cell_id in resolved:
                continue
            serial.on_progress = (
                lambda index, job, result, seconds, source, _cell=cell: (
                    self._record(
                        _cell,
                        sampler,
                        seconds=seconds,
                        source=source,
                        acts=int(getattr(result, "acts", 0)),
                        runner=runner,
                    )
                )
            )
            try:
                serial.run([cell.job()])
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                self._record(
                    cell,
                    sampler,
                    seconds=0.0,
                    source="computed",
                    error=f"{type(exc).__name__}: {exc}",
                    runner=runner,
                )

    # ------------------------------------------------------------------

    def run(self, max_cells: int | None = None) -> dict[str, Any]:
        """Run every pending cell (bounded by ``max_cells``).

        Returns a summary dict; ``status`` is ``"completed"``,
        ``"completed-with-failures"``, or ``"interrupted"`` (the
        ``max_cells`` bound stopped the sweep with cells pending --
        the checkpoint-then-exit path CI uses to rehearse a kill).
        """
        all_cells = self.spec.cells()
        done = set(self.manifest.completed())
        todo = [cell for cell in all_cells if cell.cell_id not in done]
        skipped = len(all_cells) - len(todo)
        interrupted = max_cells is not None and len(todo) > max_cells
        if max_cells is not None:
            todo = todo[:max_cells]

        sampler = ProgressSampler(
            total_cells=len(todo), workers=self.workers, clock=self._clock
        )
        self._last_heartbeat = self._clock()
        runner = ExperimentRunner(jobs=self.workers, cache=self.cache)
        bus = TelemetryBus(events=False)
        run_id = uuid.uuid4().hex[:12]
        with session(bus):
            for batch in _chunks(todo, self.batch_size):
                self._run_batch(batch, runner, sampler)
                self._drain_telemetry(bus, sampler, run_id)

        counters = runner.cache_counters()
        snapshot = sampler.snapshot(counters)
        self.manifest.record_heartbeat(snapshot)
        if self.dashboard is not None:
            self.dashboard.close(snapshot, name=self.spec.name)

        counts = self.manifest.status_counts()
        if interrupted:
            status = "interrupted"
        elif counts["failed"]:
            status = "completed-with-failures"
        else:
            status = "completed"
        return {
            "status": status,
            "name": self.spec.name,
            "spec_digest": self.spec.digest(),
            "cells_total": len(all_cells),
            "cells_skipped": skipped,
            "cells_run": len(todo),
            "computed_keys": list(self.computed_keys),
            "cache_counters": counters,
            "manifest": counts,
            "snapshot": snapshot,
            "telemetry_path": str(self.telemetry_path),
            "manifest_path": str(self.manifest.path),
        }

    # ------------------------------------------------------------------
    # Construction helpers (the CLI entry points)
    # ------------------------------------------------------------------

    @classmethod
    def start(
        cls,
        spec: CampaignSpec,
        directory: str | Path,
        **kwargs: Any,
    ) -> "CampaignDriver":
        """Fresh campaign: write the manifest header, then drive."""
        manifest = CampaignManifest.create(
            directory,
            spec.to_dict(),
            spec.digest(),
            total_cells=len(spec.cells()),
        )
        return cls(spec, manifest, **kwargs)

    @classmethod
    def resume(
        cls, directory: str | Path, **kwargs: Any
    ) -> "CampaignDriver":
        """Reattach to a campaign directory; the spec comes from the
        manifest header, so resume needs no spec file."""
        manifest = CampaignManifest.open(directory)
        header = manifest.header or {}
        spec = CampaignSpec.from_dict(header.get("spec", {}))
        return cls(spec, manifest, **kwargs)
