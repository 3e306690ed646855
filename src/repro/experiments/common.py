"""Shared utilities for the per-table/per-figure experiment modules.

Every experiment module exposes:

* ``run(...) -> dict`` -- produce the table/figure data as plain
  structures (no printing), with parameters that allow scaled-down
  executions for tests and benchmarks;
* ``main() -> None`` -- run at presentation scale and print the rows
  the paper reports (invoked by ``python -m repro.experiments.<name>``).

This module supplies the tiny text-table renderer they share and the
standard (workload x scheme) sweep harness used by Figs. 8 and 9.  The
sweep is expressed as declarative jobs for the shared
:mod:`~repro.experiments.runner`, so every cell can be cached on disk
and fanned out across CPU cores; :func:`matrix_jobs` /
:func:`assemble_matrix` expose the two halves separately for
experiments (Fig. 9) that batch several matrices into one fan-out.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..dram.timing import DDR4_2400, DramTimings
from ..sim.metrics import SimulationResult
from ..sim.performance import performance_overhead
from .runner import ExperimentRunner, Job, get_runner, sim_job

__all__ = [
    "DEFAULT_SCHEMES",
    "format_table",
    "percent",
    "matrix_jobs",
    "assemble_matrix",
    "run_workload_matrix",
]

#: Scheme labels of the Fig. 8/9 comparison set (factory spec
#: ``["scaling", <scheme>]`` -- see :func:`repro.experiments.runner.build_factory`).
DEFAULT_SCHEMES = ("para", "cbt", "twice", "graphene")


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table (monospace reports)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(line(row) for row in materialized)
    return f"{line(list(headers))}\n{separator}\n{body}"


def percent(value: float, digits: int = 3) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def matrix_jobs(
    workloads: Mapping[str, str],
    schemes: Sequence[str],
    duration_ns: float,
    seed: int = 42,
    timings: DramTimings = DDR4_2400,
    rows_per_bank: int = 65536,
    hammer_threshold: float = 50_000,
    track_faults: bool = False,
    label_prefix: str = "",
) -> list[Job]:
    """Declarative jobs for every (workload, scheme) pair + baselines.

    Per workload, the job order is the unprotected baseline followed by
    ``schemes``; :func:`assemble_matrix` relies on that layout.
    """
    jobs: list[Job] = []
    for label, kind in workloads.items():
        trace = {"kind": kind, "label": label}
        for scheme in ("none", *schemes):
            factory = ["none"] if scheme == "none" else ["scaling", scheme]
            jobs.append(
                sim_job(
                    trace=trace,
                    factory=factory,
                    scheme=scheme,
                    workload=label,
                    duration_ns=duration_ns,
                    seed=seed,
                    timings=timings,
                    rows_per_bank=rows_per_bank,
                    hammer_threshold=hammer_threshold,
                    track_faults=track_faults,
                    label=f"{label_prefix}{label}/{scheme}",
                )
            )
    return jobs


def assemble_matrix(
    results: Sequence[SimulationResult],
    workloads: Mapping[str, str],
    schemes: Sequence[str],
) -> dict[str, dict[str, object]]:
    """Fold a :func:`matrix_jobs` result list back into the matrix dict."""
    matrix: dict[str, dict[str, object]] = {}
    cursor = iter(results)
    for label in workloads:
        baseline = next(cursor)
        entry: dict[str, object] = {"none": baseline}
        overheads: dict[str, float] = {}
        for scheme in schemes:
            result = next(cursor)
            entry[scheme] = result
            overheads[scheme] = performance_overhead(result, baseline)
        entry["perf"] = overheads
        matrix[label] = entry
    return matrix


def run_workload_matrix(
    workloads: Mapping[str, str],
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    duration_ns: float = DDR4_2400.trefw,
    seed: int = 42,
    timings: DramTimings = DDR4_2400,
    rows_per_bank: int = 65536,
    hammer_threshold: float = 50_000,
    track_faults: bool = False,
    runner: ExperimentRunner | None = None,
) -> dict[str, dict[str, object]]:
    """Run every (workload, scheme) pair plus the unprotected baseline.

    Args:
        workloads: ``{label: kind}`` where kind is "realistic" or
            "synthetic" (selects the trace source for the label).
        schemes: Scheme labels from the Fig. 8/9 comparison set.
        duration_ns: Trace length per run.
        seed: Shared trace seed -- every scheme sees the same stream.
        track_faults: Enable the fault referee (slower; used by the
            protection-guarantee experiments).
        runner: Executes the cells (default: the session runner, so
            CLI ``--jobs``/caching apply automatically).

    Returns:
        ``{workload: {scheme: SimulationResult, ..., "perf": {scheme:
        overhead}}}`` -- results plus per-scheme performance overheads
        versus the baseline.
    """
    runner = runner or get_runner()
    jobs = matrix_jobs(
        workloads,
        schemes,
        duration_ns=duration_ns,
        seed=seed,
        timings=timings,
        rows_per_bank=rows_per_bank,
        hammer_threshold=hammer_threshold,
        track_faults=track_faults,
    )
    return assemble_matrix(runner.run(jobs), workloads, schemes)
