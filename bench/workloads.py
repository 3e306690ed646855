"""The benchmark's workloads: the experiments users run, at bench scale.

Each workload is built once per process from ``(seed, scale)`` -- the
set-up the ``setup_s`` metric prices -- and then runs whole *passes*.
A pass is one complete user-level experiment: a Fig. 8 matrix, a kernel
sweep, a capability matrix or a cold-plus-warm campaign.  The timed
region of a pass is marked by the caller's ``clock`` context manager,
so work a user would not wait for (collecting results, removing temp
dirs) stays outside it.  Inside it the pass calls ``clock.mark()`` as
each cell completes, which cuts the pass into the same segments on
every pass (see ``bench.worker.best_seconds``).

Every pass fills ``out.results`` with ``(label, SimulationResult)``
pairs in a deterministic order; the worker hashes them and compares
them with the same pass run on the reference engine.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Protocol

import numpy as np

from repro.campaign.driver import CampaignDriver
from repro.campaign.grid import GRID_SCHEMES, CampaignSpec
from repro.campaign.progress import DashboardRenderer
from repro.core.config import GrapheneConfig
from repro.core.fastpath import kernel_for
from repro.dram.timing import DDR4_2400
from repro.experiments import capability_matrix, fig8
from repro.experiments.runner import (
    ExperimentRunner,
    using_engine,
    using_runner,
)
from repro.mitigations import (
    abacus_factory,
    cbt_factory,
    comet_factory,
    graphene_factory,
    increased_refresh_rate_factory,
    para_factory,
    twice_factory,
)
from repro.sim import simulator
from repro.sim.cache import MISS, ResultCache
from repro.workloads.columnar import TraceArray

__all__ = ["WORKLOADS", "PassResult", "build", "kernel_types"]

TREFW = DDR4_2400.trefw

#: The multirank device: 2 ranks x 16 banks, hammered in 32-ACT bursts.
MR_BANKS = 16
MR_RANKS = 2
MR_BURST = 32
MR_THRESHOLD = 50_000


def _kernel_factories(seed: int) -> dict[str, Callable[[], Any]]:
    """Every scheme with a batched kernel, at the paper's T_RH = 50K."""
    return {
        "graphene": lambda: graphene_factory(
            GrapheneConfig(hammer_threshold=MR_THRESHOLD)
        ),
        "para": lambda: para_factory(seed=seed),
        "twice": lambda: twice_factory(MR_THRESHOLD),
        "cbt": lambda: cbt_factory(
            MR_THRESHOLD, num_counters=64, num_levels=8
        ),
        "refresh-rate": lambda: increased_refresh_rate_factory(multiplier=2),
        "comet": lambda: comet_factory(MR_THRESHOLD),
        "abacus": lambda: abacus_factory(
            MR_THRESHOLD, total_banks=MR_BANKS * MR_RANKS
        ),
    }


def kernel_types() -> dict[type, str]:
    """The class ``kernel_for()`` returns for each kernel scheme."""
    return {
        type(kernel_for(factory()(0, 65536))): scheme
        for scheme, factory in _kernel_factories(0).items()
    }


#: The campaign grid at ``bench`` scale: the schemes with a batched
#: kernel (the only cells the fast engine can speed up; the rest run
#: the reference loop and are covered by capability-faults), one
#: realistic and one attack workload, one T_RH.
CAMPAIGN_GRID: dict[str, Any] = {
    "schemes": (
        "para", "cbt", "twice", "graphene", "comet", "abacus",
        "refresh-rate-x2",
    ),
    "workloads": {"mcf": "realistic", "S3": "synthetic"},
    "thresholds": (12_500,),
}

#: Per-workload parameters at each scale.  ``bench`` sizes one pass at
#: 2-4 s on a 2-core x86 box, so a 15 s run holds about
#: ``bench.worker.TIMED_PASSES`` passes or more and the reference check
#: stays a few seconds.  Its campaign cells keep the 1 ms (tREFW/64)
#: length of ``full`` and drop cells instead.  ``full`` is one
#: user-sized experiment per pass (10-30 s): the sizes the layer mix at
#: ``bench`` scale is checked against.  ``test`` is for the suite.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "bench": {
        "fig8-fast": {"duration_ns": TREFW / 64},
        "multirank-kernels": {"span_ns": TREFW / 16},
        "capability-faults": {"duration_ns": 2e6},
        "campaign-fast": {"duration_ns": TREFW / 64, **CAMPAIGN_GRID},
    },
    "full": {
        "fig8-fast": {"duration_ns": TREFW / 8},
        "multirank-kernels": {"span_ns": TREFW / 16},
        "capability-faults": {"duration_ns": 16e6},
        "campaign-fast": {
            "duration_ns": TREFW / 64,
            "schemes": tuple(GRID_SCHEMES),
            "workloads": {
                "mcf": "realistic",
                "MICA": "realistic",
                "S2": "synthetic",
                "S3": "synthetic",
            },
            "thresholds": (50_000, 12_500),
        },
    },
    "test": {
        "fig8-fast": {
            "duration_ns": TREFW / 2048,
            "realistic": ("mcf", "omnetpp"),
            "adversarial": ("S3",),
        },
        "multirank-kernels": {"span_ns": TREFW / 512},
        "capability-faults": {"duration_ns": 2e5},
        "campaign-fast": {"duration_ns": TREFW / 4096, **CAMPAIGN_GRID},
    },
}


def _cell_digest(result: Any) -> str:
    """sha256 of a result's canonical ``to_dict()`` rendering."""
    rendered = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass delivered.  ``results`` fills as cells resolve, so
    a pass that raises still reports the cells it finished; a ``None``
    result marks a cell the pass could not produce."""

    results: list[tuple[str, Any]] = field(default_factory=list)
    #: Lines the campaign driver wrote to its ``telemetry.jsonl`` files.
    telemetry_events: int = 0

    @property
    def acts(self) -> int:
        return sum(r.acts for _, r in self.results if r is not None)

    def cells(self) -> list[tuple[str, str | None]]:
        return [
            (label, None if r is None else _cell_digest(r))
            for label, r in self.results
        ]


class Clock(ContextManager[Any], Protocol):
    def mark(self) -> None:
        """Note that a cell completed."""


class Workload:
    """One named workload bound to a seed and a scale."""

    name = ""

    def __init__(self, seed: int, scale: str, tmp_dir: Path) -> None:
        self.seed = seed
        self.params = SCALES[scale][self.name]
        self.tmp_dir = tmp_dir

    def run_pass(self, engine: str, clock: Clock, out: PassResult) -> None:
        """Run one pass on ``engine`` ("fast" or "reference") into
        ``out``, timing what a user waits for inside ``clock``."""
        raise NotImplementedError


def _runner_pass(
    call: Callable[[], Any], engine: str, clock: Clock, out: PassResult
) -> None:
    """Run an experiment on a serial, uncached runner; collect every
    cell through the runner's ``on_progress`` hook."""

    def collect(index, job, result, seconds, source) -> None:
        clock.mark()
        out.results.append((job.label, result))

    runner = ExperimentRunner(jobs=1, cache=None, on_progress=collect)
    with clock, using_runner(runner), using_engine(engine):
        call()


class Fig8Fast(Workload):
    """Fig. 8 as users regenerate it: every trace x none/PARA/CBT/TWiCe/
    Graphene, trace generation included."""

    name = "fig8-fast"

    def run_pass(self, engine: str, clock: Clock, out: PassResult) -> None:
        _runner_pass(
            lambda: fig8.run(seed=self.seed, **self.params),
            engine, clock, out,
        )


class MultirankKernels(Workload):
    """A prebuilt 32-bank double-sided hammer through every kernel."""

    name = "multirank-kernels"

    def __init__(self, seed: int, scale: str, tmp_dir: Path) -> None:
        super().__init__(seed, scale, tmp_dir)
        self.trace = multirank_trace(self.params["span_ns"], seed)

    def run_pass(self, engine: str, clock: Clock, out: PassResult) -> None:
        with clock:
            for scheme, factory in _kernel_factories(self.seed).items():
                result = simulator.simulate(
                    self.trace,
                    factory(),
                    scheme=scheme,
                    workload=self.name,
                    banks=MR_BANKS,
                    ranks=MR_RANKS,
                    track_faults=False,
                    fast=engine == "fast",
                )
                clock.mark()
                out.results.append((scheme, result))


class CapabilityFaults(Workload):
    """The capability matrix: the fault referee on, bit flips occur."""

    name = "capability-faults"

    def run_pass(self, engine: str, clock: Clock, out: PassResult) -> None:
        _runner_pass(
            lambda: capability_matrix.run(
                hammer_threshold=2000, seed=self.seed, **self.params
            ),
            engine, clock, out,
        )


class CampaignFast(Workload):
    """A campaign grid run cold, then again over its cache."""

    name = "campaign-fast"

    def _spec(self, engine: str) -> CampaignSpec:
        return CampaignSpec(
            name=self.name,
            schemes=self.params["schemes"],
            workloads=dict(self.params["workloads"]),
            thresholds=self.params["thresholds"],
            duration_ns=self.params["duration_ns"],
            seed=self.seed,
            engine=engine,
        )

    def run_pass(self, engine: str, clock: Clock, out: PassResult) -> None:
        spec = self._spec(engine)
        root = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.tmp_dir))
        try:
            summaries = []
            with clock:
                for phase in ("cold", "warm"):
                    driver = CampaignDriver.start(
                        spec,
                        root / phase,
                        cache=ResultCache(root / "cache"),
                        dashboard=_MarkingDashboard(clock),
                    )
                    summaries.append(driver.run())
            cache = ResultCache(root / "cache")
            for cell in spec.cells():
                value = cache.get(cell.key())
                out.results.append(
                    (cell.cell_id, None if value is MISS else value)
                )
            for summary in summaries:
                with open(summary["telemetry_path"], "rb") as handle:
                    out.telemetry_events += sum(1 for _ in handle)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class _MarkingDashboard(DashboardRenderer):
    """The CLI's dashboard, painting into memory: the driver paints it
    once per resolved cell (and once at close), which marks the clock."""

    def __init__(self, clock: Clock) -> None:
        super().__init__(stream=io.StringIO())
        self.clock = clock

    def paint(self, snapshot, name: str = "", force: bool = False) -> bool:
        self.clock.mark()
        return super().paint(snapshot, name=name, force=force)


def multirank_trace(span_ns: float, seed: int) -> TraceArray:
    """Double-sided hammers on all 32 banks of a 2-rank device.

    One ACT per tRC channel-wide, rotated across banks in 32-ACT
    bursts, built from numpy arithmetic (no per-event Python).  The
    seed picks the aggressor pair ``(row, row + 2)``.
    """
    total = MR_BANKS * MR_RANKS
    low = int(np.random.default_rng(seed).integers(1, 65536 - 3))
    n = int(span_ns / DDR4_2400.trc)
    n -= n % (MR_BURST * total)
    idx = np.arange(n, dtype=np.int64)
    burst, within = np.divmod(idx, MR_BURST)
    per_bank_index = (burst // total) * MR_BURST + within
    return TraceArray(
        time_ns=idx.astype(np.float64) * DDR4_2400.trc,
        bank=burst % total,
        row=np.where(per_bank_index % 2 == 0, low, low + 2),
    )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Fig8Fast, MultirankKernels, CapabilityFaults, CampaignFast)
}


def build(name: str, seed: int, scale: str, tmp_dir: Path) -> Workload:
    """Set a workload up (the part of a run ``setup_s`` measures)."""
    return WORKLOADS[name](seed, scale, tmp_dir)
