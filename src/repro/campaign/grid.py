"""Declarative campaign grids: spec -> cells -> runner jobs.

A campaign is a Cartesian sweep -- schemes x workloads x Row Hammer
threshold generations x timing grids -- expressed as one JSON-able
:class:`CampaignSpec` and expanded into :class:`CampaignCell`\\ s.  Each
cell resolves to exactly the declarative simulation job the PR-1 runner
executes (:func:`repro.experiments.runner.sim_job`), so a cell's
identity *is* its content-addressed cache key: the checkpoint manifest,
the result cache and the dashboard all key on the same digest, and a
resumed campaign can prove "nothing recomputed" by comparing key sets.

The spec vocabulary mirrors the figure experiments (Fig. 9's T_RH
scaling generations, widened across every scheme and workload), plus
named timing grids: each grid is a label mapped to
:class:`~repro.dram.timing.DramTimings` field overrides, so DDR4- and
DDR5-style geometries sweep side by side in one campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..dram.timing import DDR4_2400, DramTimings
from ..experiments.runner import ENGINES, Job, sim_job
from ..sim.cache import cache_key

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "GRID_SCHEMES",
    "CampaignCell",
    "CampaignSpec",
    "load_spec",
]

#: Bump when the spec format changes incompatibly.
SPEC_SCHEMA_VERSION = 1

#: Schemes a grid may name -> the factory spec they resolve to.  The
#: Fig. 8/9 comparison set re-derives per threshold ("scaling"); the
#: wider capability roster covers every other mitigation at a fixed
#: configuration recipe ("capability"); "none" is the unprotected
#: baseline.
GRID_SCHEMES: dict[str, Sequence[Any]] = {
    "none": ["none"],
    "para": ["scaling", "para"],
    "cbt": ["scaling", "cbt"],
    "twice": ["scaling", "twice"],
    "graphene": ["scaling", "graphene"],
    "comet": ["scaling", "comet"],
    "abacus": ["scaling", "abacus"],
    "prohit": ["capability", "prohit"],
    "mrloc": ["capability", "mrloc"],
    "cra": ["capability", "cra"],
    "refresh-rate-x2": ["capability", "refresh-rate-x2"],
}


def _workload_kind(label: str) -> str:
    """Infer a trace kind from a workload label (see run_sim_spec)."""
    from ..workloads.spec_like import REALISTIC_PROFILES
    from ..workloads.synthetic import SYNTHETIC_PATTERNS

    if label in REALISTIC_PROFILES:
        return "realistic"
    if label in SYNTHETIC_PATTERNS:
        return "synthetic"
    raise ValueError(
        f"unknown workload {label!r}: not a realistic profile or a "
        "synthetic pattern (pass {label: kind} to name the kind "
        "explicitly)"
    )


@dataclass(frozen=True)
class CampaignCell:
    """One grid point, resolvable to a runner job and its cache key."""

    scheme: str
    workload: str
    workload_kind: str
    hammer_threshold: int
    timing_grid: str
    timings: DramTimings
    duration_ns: float
    seed: int
    engine: str
    banks: int
    ranks: int
    rows_per_bank: int

    @property
    def cell_id(self) -> str:
        """Human-stable identifier used in manifests and dashboards."""
        return (
            f"{self.timing_grid}/trh={self.hammer_threshold}/"
            f"{self.workload}/{self.scheme}"
        )

    def job(self) -> Job:
        """The declarative simulation job this cell runs as."""
        extra: dict[str, Any] = {}
        if self.banks != 1:
            extra["banks"] = self.banks
        if self.ranks != 1:
            extra["ranks"] = self.ranks
        return sim_job(
            trace={"kind": self.workload_kind, "label": self.workload},
            factory=list(GRID_SCHEMES[self.scheme]),
            scheme=self.scheme,
            workload=self.workload,
            duration_ns=self.duration_ns,
            seed=self.seed,
            timings=self.timings,
            rows_per_bank=self.rows_per_bank,
            hammer_threshold=self.hammer_threshold,
            engine=self.engine,
            label=self.cell_id,
            **extra,
        )

    def key(self) -> str:
        """The cell's content-addressed cache key (the PR-1 job key)."""
        return self.job().key()


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign grid (JSON-able, content-addressable).

    Attributes:
        name: Campaign label (manifest header, report title).
        schemes: Mitigation schemes to sweep (see :data:`GRID_SCHEMES`).
        workloads: ``{label: kind}``; kinds are auto-inferred when the
            spec file gives a plain list of labels.
        thresholds: Row Hammer threshold generations (Fig. 9 style).
        duration_ns: Simulated trace length per cell.
        timing_grids: ``{grid name: DramTimings field overrides}``;
            the default single grid is stock DDR4-2400.
        seed / engine / banks / ranks / rows_per_bank: Forwarded to
            every cell's simulation job.
    """

    name: str
    schemes: tuple[str, ...]
    workloads: Mapping[str, str]
    thresholds: tuple[int, ...]
    duration_ns: float
    timing_grids: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: {"ddr4-2400": {}}
    )
    seed: int = 42
    engine: str = "reference"
    banks: int = 1
    ranks: int = 1
    rows_per_bank: int = 65536

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("campaign spec needs at least one scheme")
        for scheme in self.schemes:
            if scheme not in GRID_SCHEMES:
                raise ValueError(
                    f"unknown scheme {scheme!r}; expected one of "
                    f"{sorted(GRID_SCHEMES)}"
                )
        if not self.workloads:
            raise ValueError("campaign spec needs at least one workload")
        if not self.thresholds:
            raise ValueError("campaign spec needs at least one threshold")
        if not self.timing_grids:
            raise ValueError("campaign spec needs at least one timing grid")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")

    # ------------------------------------------------------------------

    def timings_for(self, grid: str) -> DramTimings:
        """Materialize one named timing grid's DramTimings."""
        overrides = dict(self.timing_grids[grid])
        return replace(DDR4_2400, **overrides) if overrides else DDR4_2400

    def cells(self) -> list[CampaignCell]:
        """Expand the full grid, in deterministic sweep order.

        Order: timing grid (spec order), threshold (spec order),
        workload (spec order), scheme (spec order) -- so progressive
        dashboards fill scheme-by-scheme within each sweep point, like
        the figures do.
        """
        expanded: list[CampaignCell] = []
        for grid in self.timing_grids:
            timings = self.timings_for(grid)
            for trh in self.thresholds:
                for workload, kind in self.workloads.items():
                    for scheme in self.schemes:
                        expanded.append(
                            CampaignCell(
                                scheme=scheme,
                                workload=workload,
                                workload_kind=kind,
                                hammer_threshold=int(trh),
                                timing_grid=grid,
                                timings=timings,
                                duration_ns=float(self.duration_ns),
                                seed=self.seed,
                                engine=self.engine,
                                banks=self.banks,
                                ranks=self.ranks,
                                rows_per_bank=self.rows_per_bank,
                            )
                        )
        return expanded

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (inverted by :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "schemes": list(self.schemes),
            "workloads": dict(self.workloads),
            "thresholds": list(self.thresholds),
            "duration_ns": self.duration_ns,
            "timing_grids": {
                grid: dict(overrides)
                for grid, overrides in self.timing_grids.items()
            },
            "seed": self.seed,
            "engine": self.engine,
            "banks": self.banks,
            "ranks": self.ranks,
            "rows_per_bank": self.rows_per_bank,
        }

    def digest(self) -> str:
        """Content digest identifying the grid (resume safety check)."""
        return cache_key({"campaign-spec": self.to_dict()})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a parsed JSON dict (tolerant field forms).

        ``workloads`` may be a list of labels (kinds inferred), and
        ``duration_ms`` may stand in for ``duration_ns``.
        """
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported campaign spec schema {schema!r} "
                f"(this version reads {SPEC_SCHEMA_VERSION})"
            )
        workloads = payload.pop("workloads")
        if isinstance(workloads, Mapping):
            workloads = dict(workloads)
        else:
            workloads = {label: _workload_kind(label) for label in workloads}
        if "duration_ms" in payload and "duration_ns" not in payload:
            payload["duration_ns"] = float(payload.pop("duration_ms")) * 1e6
        known = {
            "name", "schemes", "thresholds", "duration_ns", "timing_grids",
            "seed", "engine", "banks", "ranks", "rows_per_bank",
        }
        unexpected = set(payload) - known
        if unexpected:
            raise ValueError(
                f"unknown campaign spec fields: {sorted(unexpected)}"
            )
        if "timing_grids" in payload:
            payload["timing_grids"] = {
                grid: dict(overrides)
                for grid, overrides in payload["timing_grids"].items()
            }
        payload["schemes"] = tuple(payload["schemes"])
        payload["thresholds"] = tuple(
            int(trh) for trh in payload["thresholds"]
        )
        return cls(workloads=workloads, **payload)


def load_spec(path: str | Path) -> CampaignSpec:
    """Read a campaign spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return CampaignSpec.from_dict(json.load(handle))
