"""Fuzz campaigns: scheduled cells, shrinking, replayable artifacts.

A *campaign* is a budgeted batch of fuzz **cells**.  Each cell is one
``(generator, seed)`` stream pushed through the whole differential
executor; cells are independent, picklable and content-addressed, so
they ride the shared :class:`~repro.experiments.runner.ExperimentRunner`
-- ``--jobs N`` fans them across cores and the on-disk result cache
makes re-running a seed matrix free.  Probabilistic mitigation schemes
are rotated across cells (one per cell on top of the full
deterministic set) so a campaign covers every scheme without paying
for nine simulations per stream.

When a cell fails, the campaign regenerates the stream locally,
shrinks it with :func:`~repro.verify.shrink.shrink_stream` against a
predicate that reproduces the *same* (subject, kind) violations, and
serializes the minimal reproducer as a JSON artifact.  Artifacts are
replayable (``repro verify replay <file>``) and committable: the
regression corpus under ``tests/corpus/`` is exactly this format with
``"expect": "pass"`` and is replayed by the tier-1 suite.

The deliberate-weakening hooks run the campaign against a mutated
engine: ``threshold_offset`` keeps its historical meaning (weakened
*graphene* triggering at ``T + offset``), while the general
``weakened`` label (e.g. ``"comet-weakened+1"`` or
``"abacus-weakened-spill1"``, resolved by
:func:`~repro.verify.differential.weakened_subject`) selects any
scheme's mutant.  The self-tests in ``tests/test_verify_campaign.py``
use both to prove the oracle catches real protection bugs in every
deterministic scheme and shrinks them to few-dozen-ACT reproducers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..experiments.runner import ExperimentRunner, Job, get_runner
from ..telemetry import runtime as _telemetry
from ..telemetry.events import OracleViolation
from ..workloads.trace import ActEvent
from .differential import (
    DEFAULT_SCALE,
    DETERMINISTIC_SCHEMES,
    PROBABILISTIC_SCHEMES,
    StreamReport,
    VerifyScale,
    Violation,
    core_subjects,
    run_stream,
    weakened_graphene_subject,
    weakened_subject,
)
from .generators import GENERATOR_NAMES, StreamSpec, generate_stream
from .shrink import shrink_stream

__all__ = [
    "ARTIFACT_SCHEMA",
    "CampaignReport",
    "run_cell",
    "run_campaign",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
]

ARTIFACT_SCHEMA = 1


# ----------------------------------------------------------------------
# One cell (the picklable, cacheable unit of campaign work)
# ----------------------------------------------------------------------


def _cell_subjects(
    scale: VerifyScale, threshold_offset: int,
    weakened: str | None = None,
):
    """Subject roster for a cell.

    A ``weakened`` label (e.g. ``"abacus-weakened-spill1"``) narrows
    the roster to that one mutated engine; a non-zero
    ``threshold_offset`` keeps the historical graphene-only weakening.
    Otherwise the full core roster runs.
    """
    if weakened is not None:
        return {weakened: weakened_subject(weakened, scale)}
    if threshold_offset:
        name = f"graphene-weakened+{threshold_offset}"
        return {name: weakened_graphene_subject(scale, threshold_offset)}
    return core_subjects(scale)


def run_cell(
    *,
    generator: str,
    seed: int,
    length: int,
    schemes: Sequence[str],
    scale: Mapping[str, Any],
    threshold_offset: int = 0,
    weakened: str | None = None,
) -> dict[str, Any]:
    """Run one fuzz cell; returns a JSON-able result dict.

    Top-level and keyword-only so campaigns can ship cells through the
    experiment runner (process pools + on-disk cache).  ``scale`` is
    the :meth:`VerifyScale.describe` dict -- it is part of the cache
    key, and must match the current code's derivation (a mismatch means
    a stale caller, not a tunable).
    """
    current = DEFAULT_SCALE
    if dict(scale) != current.describe():
        raise ValueError(
            f"cell scale {dict(scale)!r} does not match this build's "
            f"verification scale {current.describe()!r}"
        )
    spec = StreamSpec(generator=generator, seed=seed, length=length)
    events = generate_stream(spec, current)
    subjects = _cell_subjects(current, threshold_offset, weakened=weakened)
    skip_mitigation = threshold_offset or weakened is not None
    report = run_stream(
        events,
        current,
        subjects=subjects,
        mitigation_schemes=() if skip_mitigation else tuple(schemes),
    )
    return {
        "generator": generator,
        "seed": seed,
        "length": length,
        "threshold_offset": threshold_offset,
        "weakened": weakened,
        "schemes": list(schemes),
        "acts": report.acts,
        "violations": [v.to_dict() for v in report.violations],
        "stats": report.subject_stats,
    }


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Aggregated outcome of one fuzz campaign."""

    budget: int
    seed: int
    length: int
    cells: list[dict[str, Any]] = field(default_factory=list)
    #: Flattened violations, each annotated with its cell's spec.
    violations: list[dict[str, Any]] = field(default_factory=list)
    #: Paths of shrunken reproducer artifacts written for failures.
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_acts(self) -> int:
        return sum(cell["acts"] for cell in self.cells)

    def summary(self) -> list[str]:
        """Human-readable campaign footer."""
        per_generator: dict[str, int] = {}
        for cell in self.cells:
            per_generator[cell["generator"]] = (
                per_generator.get(cell["generator"], 0) + 1
            )
        lines = [
            f"campaign: {self.budget} cells x {self.length} ACTs "
            f"(seed {self.seed}), {self.total_acts} ACTs total",
            "generators: "
            + ", ".join(f"{g}={n}" for g, n in sorted(per_generator.items())),
        ]
        if self.ok:
            lines.append("oracle: no violations")
        else:
            lines.append(f"oracle: {len(self.violations)} VIOLATION(S)")
            for item in self.violations:
                lines.append(
                    f"  {item['subject']}/{item['kind']} on "
                    f"{item['generator']} seed {item['seed']}"
                    + (f" step {item['step']}" if item.get("step") is not None
                       else "")
                )
            for path in self.artifacts:
                lines.append(f"  reproducer: {path}")
        return lines


def _cell_seed(campaign_seed: int, index: int) -> int:
    """Deterministic, collision-free per-cell stream seed."""
    return campaign_seed * 100_000 + index


def _reproduces(
    targets: set[tuple[str, str]],
    scale: VerifyScale,
    threshold_offset: int,
    schemes: Sequence[str],
    weakened: str | None = None,
):
    """Predicate: does a candidate stream still hit the same failures?"""
    subject_names = {subject for subject, _ in targets}
    subjects = {
        name: fn
        for name, fn in _cell_subjects(
            scale, threshold_offset, weakened=weakened
        ).items()
        if name in subject_names
    }
    mitigation = tuple(
        s for s in schemes if f"mitigation:{s}" in subject_names
    )

    def failing(events: Sequence[ActEvent]) -> bool:
        report = run_stream(
            events, scale, subjects=subjects, mitigation_schemes=mitigation
        )
        return any((v.subject, v.kind) in targets for v in report.violations)

    return failing


def run_campaign(
    budget: int,
    seed: int = 0,
    *,
    length: int = 1000,
    runner: ExperimentRunner | None = None,
    shrink: bool = True,
    artifact_dir: str | Path | None = "verify-artifacts",
    threshold_offset: int = 0,
    scale: VerifyScale = DEFAULT_SCALE,
    weakened: str | None = None,
) -> CampaignReport:
    """Run a budgeted differential-fuzzing campaign.

    Args:
        budget: Number of fuzz cells (streams); generators and
            probabilistic schemes are rotated round-robin across cells.
        seed: Campaign seed; cell ``i`` fuzzes stream seed
            ``seed * 100000 + i``.
        length: ACTs per stream.
        runner: Experiment runner (default: the configured module-level
            runner, giving ``--jobs``/cache behavior for free).
        shrink: Reduce each failing stream to a minimal reproducer.
        artifact_dir: Where reproducer JSONs go (None: don't write).
        threshold_offset: Weaken graphene to trigger at ``T+offset``
            (self-test hook; skips the mitigation layer).
        weakened: General weakened-subject label (any deterministic
            scheme, e.g. ``"comet-weakened+1"``); narrows each cell to
            that one mutant and skips the mitigation layer.
        scale: Verification scale (must be the default scale for now --
            cells are cached against its ``describe()`` dict).
    """
    if budget < 1:
        raise ValueError("campaign budget must be >= 1")
    runner = runner or get_runner()
    jobs = []
    for index in range(budget):
        generator = GENERATOR_NAMES[index % len(GENERATOR_NAMES)]
        rotation = PROBABILISTIC_SCHEMES[index % len(PROBABILISTIC_SCHEMES)]
        schemes = list(DETERMINISTIC_SCHEMES) + [rotation]
        cell_seed = _cell_seed(seed, index)
        kwargs = dict(
            generator=generator,
            seed=cell_seed,
            length=length,
            schemes=schemes,
            scale=scale.describe(),
            threshold_offset=threshold_offset,
        )
        # Only widen the cache key when the optional leg is on, so
        # existing campaign results keep their addresses.
        if weakened is not None:
            kwargs["weakened"] = weakened
        jobs.append(
            Job(
                fn="repro.verify.campaign:run_cell",
                kwargs=kwargs,
                label=f"verify/{generator}/s{cell_seed}",
            )
        )
    results = runner.run(jobs)

    report = CampaignReport(budget=budget, seed=seed, length=length)
    bus = _telemetry.BUS
    for cell in results:
        report.cells.append(cell)
        for violation in cell["violations"]:
            annotated = dict(violation)
            annotated["generator"] = cell["generator"]
            annotated["seed"] = cell["seed"]
            report.violations.append(annotated)
            if bus is not None:
                bus.publish(
                    OracleViolation(
                        time_ns=0.0,
                        subject=violation["subject"],
                        kind=violation["kind"],
                        generator=cell["generator"],
                        seed=cell["seed"],
                        step=violation.get("step"),
                        detail=violation["detail"],
                    )
                )

    if shrink and artifact_dir is not None:
        directory = Path(artifact_dir)
        for cell in results:
            if not cell["violations"]:
                continue
            path = _shrink_and_save(cell, scale, directory)
            report.artifacts.append(str(path))
    return report


def _shrink_and_save(
    cell: Mapping[str, Any], scale: VerifyScale, directory: Path,
) -> Path:
    """Shrink one failing cell's stream and write its reproducer."""
    spec = StreamSpec(
        generator=cell["generator"], seed=cell["seed"], length=cell["length"]
    )
    events = generate_stream(spec, scale)
    targets = {(v["subject"], v["kind"]) for v in cell["violations"]}
    failing = _reproduces(
        targets, scale, cell["threshold_offset"], cell["schemes"],
        weakened=cell.get("weakened"),
    )
    reduced = shrink_stream(events, failing)
    first = cell["violations"][0]
    slug = f"{first['subject']}-{first['kind']}".replace(":", "_")
    path = directory / f"{cell['generator']}-seed{cell['seed']}-{slug}.json"
    save_artifact(
        path,
        reduced,
        generator=cell["generator"],
        seed=cell["seed"],
        length=cell["length"],
        expect="fail",
        violations=list(cell["violations"]),
        schemes=list(cell["schemes"]),
        threshold_offset=cell["threshold_offset"],
        weakened=cell.get("weakened"),
        scale=scale,
        note=f"shrunk from {cell['acts']} to {len(reduced)} ACTs",
    )
    return path


# ----------------------------------------------------------------------
# Replayable JSON artifacts
# ----------------------------------------------------------------------


def save_artifact(
    path: str | Path,
    events: Sequence[ActEvent],
    *,
    generator: str,
    seed: int,
    length: int,
    expect: str,
    violations: Sequence[Mapping[str, Any]] = (),
    schemes: Sequence[str] | None = None,
    threshold_offset: int = 0,
    weakened: str | None = None,
    scale: VerifyScale = DEFAULT_SCALE,
    note: str = "",
) -> Path:
    """Serialize a stream (plus its expectation) as a replayable JSON."""
    if expect not in ("pass", "fail"):
        raise ValueError(f"expect must be 'pass' or 'fail', got {expect!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "kind": "verify-stream",
        "expect": expect,
        "generator": generator,
        "seed": seed,
        "length": length,
        "acts": len(events),
        "threshold_offset": threshold_offset,
        "weakened": weakened,
        "schemes": list(schemes) if schemes is not None else None,
        "scale": scale.describe(),
        "violations": [dict(v) for v in violations],
        "note": note,
        "events": [[e.time_ns, e.bank, e.row] for e in events],
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Load an artifact; ``"events"`` comes back as live ActEvents."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {payload.get('schema')!r}"
        )
    if payload.get("kind") != "verify-stream":
        raise ValueError(f"{path}: not a verify-stream artifact")
    payload["events"] = [
        ActEvent(float(t), int(bank), int(row))
        for t, bank, row in payload["events"]
    ]
    return payload


def replay_artifact(
    path: str | Path, scale: VerifyScale = DEFAULT_SCALE,
) -> tuple[StreamReport, dict[str, Any]]:
    """Re-run an artifact's stream through the differential executor.

    Returns the fresh report plus the loaded artifact.  For
    ``"expect": "pass"`` corpus entries the report must be clean; for
    ``"expect": "fail"`` reproducers it must re-hit at least one of the
    recorded (subject, kind) pairs.  :func:`artifact_verdict` applies
    that rule.
    """
    artifact = load_artifact(path)
    if artifact["scale"] != scale.describe():
        raise ValueError(
            f"{path}: artifact was recorded at scale {artifact['scale']!r}, "
            f"which no longer matches the current verification scale -- "
            f"regenerate the artifact"
        )
    offset = artifact.get("threshold_offset", 0)
    weakened = artifact.get("weakened")
    subjects = _cell_subjects(scale, offset, weakened=weakened)
    schemes = artifact.get("schemes")
    if offset or weakened is not None:
        mitigation: tuple[str, ...] = ()
    elif schemes is None:
        mitigation = DETERMINISTIC_SCHEMES + PROBABILISTIC_SCHEMES
    else:
        mitigation = tuple(schemes)
    report = run_stream(
        artifact["events"], scale, subjects=subjects,
        mitigation_schemes=mitigation,
    )
    return report, artifact


def artifact_verdict(
    report: StreamReport, artifact: Mapping[str, Any]
) -> tuple[bool, str]:
    """(ok, message): does a replay match the artifact's expectation?"""
    if artifact["expect"] == "pass":
        if report.ok:
            return True, "clean (as expected)"
        first = report.violations[0]
        return False, (
            f"expected clean but got {len(report.violations)} violation(s); "
            f"first: {first.subject}/{first.kind}: {first.detail}"
        )
    recorded = {
        (v["subject"], v["kind"]) for v in artifact.get("violations", ())
    }
    hits = [
        v for v in report.violations if (v.subject, v.kind) in recorded
    ]
    if hits:
        return True, (
            f"still reproduces {hits[0].subject}/{hits[0].kind} "
            f"(as expected)"
        )
    return False, (
        "expected the recorded violation(s) "
        + ", ".join(sorted(f"{s}/{k}" for s, k in recorded))
        + " but the replay came back clean -- bug fixed? refresh or retire "
        "this artifact"
    )
