"""The differential executor: one stream, every implementation, one oracle.

Runs an adversarial ACT stream through every tracker/engine in the
repository and checks each against **exact ground truth**:

* ``graphene``             -- the stock per-bank engine wrapped in
  :class:`~repro.core.guarantees.InstrumentedGrapheneEngine` (Lemmas
  1-2 + Theorem after every ACT);
* ``tracker:<kind>``       -- the Section-VI
  :class:`~repro.core.tracker_engine.TrackerBackedEngine` substrates
  (misra-gries, space-saving, lossy-counting, count-min);
* ``hardware-vs-logical``  -- lock-step comparison of the CAM-level
  :class:`~repro.core.hardware_table.HardwareGrapheneTable` against the
  logical :class:`~repro.core.misra_gries.MisraGriesTable`, flagging
  any trigger/spillover/tracked-set divergence;
* ``rank``                 -- the rank-level shared table;
* ``comet`` / ``abacus``   -- the CoMeT (count-min sketch + recent
  aggressor table) and ABACuS (rank-level shared row-ID counters)
  reference engines from :mod:`repro.mitigations`, each under the same
  exact-count gap oracle as Graphene;
* ``fastpath``             -- the columnar batch engine
  (:mod:`repro.core.fastpath`) against the reference controller,
  requiring byte-identical results, directives, bit flips and table
  state (see :mod:`.fastpath_check`);
* ``mitigation:<scheme>``  -- the full-system layer: the stream is
  repaced to DDR4 timings and driven through
  :func:`repro.sim.simulator.simulate` with the fault referee on;
  deterministic-guarantee schemes must produce **zero bit flips**.

The universal core check is the **gap theorem**: within a reset
window, a row must never receive more than ``T`` of its own ACTs
between two consecutive victim refreshes (equivalently, since the
window start).  For any tracker whose estimate upper-bounds the true
count this follows from the Section III-C argument, and it is checked
from exact per-row counts -- independent of whatever the subject
believes its counts are.  Probabilistic schemes (PARA, PRoHIT, MRLoc,
refresh-rate, none) carry no such guarantee and are executed for
crash-freedom and directive sanity only; the unprotected baseline
doubles as the control arm showing the streams have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.graphene import GrapheneEngine
from ..core.guarantees import GuaranteeViolation, InstrumentedGrapheneEngine
from ..core.hardware_table import HardwareGrapheneTable
from ..core.misra_gries import MisraGriesTable
from ..core.rank_table import RankLevelEngine
from ..core.tracker_engine import TrackerBackedEngine
from ..workloads.trace import ActEvent
from .generators import DEFAULT_SCALE, VerifyScale

__all__ = [
    "VerifyScale",
    "DEFAULT_SCALE",
    "Violation",
    "StreamReport",
    "TRACKER_KINDS",
    "DETERMINISTIC_SCHEMES",
    "PROBABILISTIC_SCHEMES",
    "MITIGATION_SCHEMES",
    "core_subjects",
    "weakened_graphene_subject",
    "weakened_comet_subject",
    "weakened_abacus_subject",
    "weakened_subject",
    "run_stream",
]

TRACKER_KINDS = ("misra-gries", "space-saving", "lossy-counting", "count-min")

#: Schemes whose design carries a deterministic protection guarantee:
#: any bit flip under an in-range stream is an implementation bug.
DETERMINISTIC_SCHEMES = (
    "graphene", "twice", "cbt", "cra", "oracle", "comet", "abacus"
)
#: Probabilistic / best-effort schemes: executed for crash-freedom and
#: sanity only (flips are recorded, not gated).
PROBABILISTIC_SCHEMES = ("none", "para", "prohit", "mrloc", "refresh-rate")
MITIGATION_SCHEMES = DETERMINISTIC_SCHEMES + PROBABILISTIC_SCHEMES


@dataclass(frozen=True)
class Violation:
    """One oracle disagreement, addressable enough to shrink and replay."""

    subject: str
    #: "lemma1", "lemma2", "theorem", "gap", "divergence", "bit-flips",
    #: "crash" or "invariant".
    kind: str
    detail: str
    #: Stream index where the violation was detected (None for
    #: end-of-run checks such as bit-flip verdicts).
    step: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "kind": self.kind,
            "detail": self.detail,
            "step": self.step,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Violation":
        return cls(
            subject=data["subject"],
            kind=data["kind"],
            detail=data["detail"],
            step=data.get("step"),
        )


@dataclass
class StreamReport:
    """Outcome of one stream through the differential executor."""

    acts: int
    violations: list[Violation] = field(default_factory=list)
    #: subject -> small stat dict (triggers, flips, ...).
    subject_stats: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class _GapOracle:
    """Exact-count gap theorem: per (bank, row), own-ACT count since
    the last victim refresh (or window start) must never exceed ``T``.

    The check runs *before* trigger bookkeeping: an ACT that both
    overflows the gap and triggers a refresh is still a violation --
    the refresh came one ACT too late.
    """

    def __init__(self, threshold: int, window_ns: float) -> None:
        self.threshold = threshold
        self.window_ns = window_ns
        self._window = 0
        self._gaps: dict[tuple[int, int], int] = {}

    def on_act(
        self,
        subject: str,
        step: int,
        bank: int,
        row: int,
        time_ns: float,
        triggered: Iterable[tuple[int, int]],
    ) -> Violation | None:
        window = int(time_ns // self.window_ns)
        if window != self._window:
            self._window = window
            self._gaps.clear()
        key = (bank, row)
        gap = self._gaps.get(key, 0) + 1
        self._gaps[key] = gap
        violation = None
        if gap > self.threshold:
            violation = Violation(
                subject=subject,
                kind="gap",
                detail=(
                    f"row {row} (bank {bank}) received {gap} ACTs since its "
                    f"last victim refresh in window {window}; the guarantee "
                    f"bound is T={self.threshold}"
                ),
                step=step,
            )
        for hit in triggered:
            self._gaps[hit] = 0
        return violation


def _classify(exc: BaseException) -> str:
    message = str(exc)
    if "Lemma 1" in message:
        return "lemma1"
    if "Lemma 2" in message:
        return "lemma2"
    if "Theorem" in message:
        return "theorem"
    return "invariant"


# ----------------------------------------------------------------------
# Core-layer subjects (scaled engines, per-ACT oracle)
# ----------------------------------------------------------------------


def _run_graphene(
    events: Sequence[ActEvent],
    scale: VerifyScale,
    threshold_offset: int = 0,
    subject: str = "graphene",
) -> tuple[list[Violation], dict[str, Any]]:
    """Stock engine + full Section III-C instrumentation + gap oracle.

    ``threshold_offset`` exists solely so tests can *weaken* the engine
    (e.g. trigger at ``T+1``) and prove the oracle catches it; the
    instrumented self-checks use the engine's own (bumped) threshold,
    the independent gap oracle always uses the true ``T``.
    """
    config = scale.config
    engines: dict[int, InstrumentedGrapheneEngine] = {}
    oracle = _GapOracle(scale.threshold, scale.window_ns)
    triggers = 0
    for step, event in enumerate(events):
        engine = engines.get(event.bank)
        if engine is None:
            engine = InstrumentedGrapheneEngine(
                config, bank=event.bank, check_every=4
            )
            engine.engine.threshold += threshold_offset
            engines[event.bank] = engine
        try:
            requests = engine.on_activate(event.row, event.time_ns)
        except (GuaranteeViolation, AssertionError) as exc:
            return (
                [Violation(subject, _classify(exc), str(exc), step)],
                {"triggers": triggers},
            )
        triggers += len(requests)
        violation = oracle.on_act(
            subject, step, event.bank, event.row, event.time_ns,
            [(event.bank, r.aggressor_row) for r in requests],
        )
        if violation is not None:
            return [violation], {"triggers": triggers}
    return [], {"triggers": triggers}


def _run_tracker(
    kind: str, events: Sequence[ActEvent], scale: VerifyScale
) -> tuple[list[Violation], dict[str, Any]]:
    """A Section-VI tracker substrate under the gap oracle."""
    subject = f"tracker:{kind}"
    config = scale.config
    engines: dict[int, TrackerBackedEngine] = {}
    oracle = _GapOracle(scale.threshold, scale.window_ns)
    triggers = 0
    for step, event in enumerate(events):
        engine = engines.get(event.bank)
        if engine is None:
            engine = TrackerBackedEngine(config, tracker=kind, bank=event.bank)
            engines[event.bank] = engine
        try:
            requests = engine.on_activate(event.row, event.time_ns)
        except Exception as exc:  # noqa: BLE001 - crash capture is the point
            return (
                [Violation(subject, "crash", f"{type(exc).__name__}: {exc}",
                           step)],
                {"triggers": triggers},
            )
        triggers += len(requests)
        violation = oracle.on_act(
            subject, step, event.bank, event.row, event.time_ns,
            [(event.bank, r.aggressor_row) for r in requests],
        )
        if violation is not None:
            return [violation], {"triggers": triggers}
    return [], {"triggers": triggers}


def _run_comet(
    events: Sequence[ActEvent],
    scale: VerifyScale,
    threshold_offset: int = 0,
    subject: str = "comet",
) -> tuple[list[Violation], dict[str, Any]]:
    """Per-bank CoMeT engines under the gap oracle.

    Deliberately *small* sketch and RAT at verify scale (64x2 counters,
    4 entries) so hash collisions and RAT evictions actually happen --
    collisions may only over-trigger, and eviction must not open a gap
    (the evicted row's sketch estimate re-triggers on its next ACT).
    ``threshold_offset`` weakens the trigger threshold to ``T+offset``
    for mutation tests; the oracle always checks the true ``T``.
    """
    from ..mitigations.comet import CoMeTMitigation

    config = scale.config
    engines: dict[int, CoMeTMitigation] = {}
    oracle = _GapOracle(scale.threshold, scale.window_ns)
    triggers = 0
    for step, event in enumerate(events):
        engine = engines.get(event.bank)
        if engine is None:
            engine = CoMeTMitigation(
                event.bank, scale.rows_per_bank, config,
                width=64, depth=2, rat_entries=4,
            )
            engine.threshold += threshold_offset
            engines[event.bank] = engine
        try:
            requests = engine.on_activate(event.row, event.time_ns)
        except Exception as exc:  # noqa: BLE001 - crash capture is the point
            return (
                [Violation(subject, "crash", f"{type(exc).__name__}: {exc}",
                           step)],
                {"triggers": triggers},
            )
        triggers += len(requests)
        violation = oracle.on_act(
            subject, step, event.bank, event.row, event.time_ns,
            [(r.bank, r.aggressor_row) for r in requests],
        )
        if violation is not None:
            return [violation], {"triggers": triggers}
    return [], {"triggers": triggers}


def _run_abacus(
    events: Sequence[ActEvent],
    scale: VerifyScale,
    threshold_offset: int = 0,
    insert_offset: int = 0,
    subject: str = "abacus",
) -> tuple[list[Violation], dict[str, Any]]:
    """The shared cross-bank ABACuS table under the gap oracle.

    All banks are attached up front (the shared table needs the full
    directive fan-out set), sized by the rank-wide budget at verify
    scale so the Misra-Gries eviction/spillover machinery is exercised.
    A trigger refreshes the row's neighborhood in *every* bank, so the
    oracle resets the gap for each directive's own bank.  The two
    offsets are mutation-test seams: ``threshold_offset`` delays the
    RAC trigger period, ``insert_offset`` re-creates the Misra-Gries
    insert-at-spillover off-by-one.
    """
    from ..mitigations.abacus import abacus_factory

    config = scale.config
    factory = abacus_factory(
        config.hammer_threshold,
        timings=scale.timings,
        reset_window_divisor=config.reset_window_divisor,
        total_banks=scale.banks,
    )
    engines = [factory(b, scale.rows_per_bank) for b in range(scale.banks)]
    state = engines[0].state
    state.threshold += threshold_offset
    state.insert_offset = insert_offset
    oracle = _GapOracle(scale.threshold, scale.window_ns)
    triggers = 0
    for step, event in enumerate(events):
        try:
            requests = engines[event.bank].on_activate(
                event.row, event.time_ns
            )
        except Exception as exc:  # noqa: BLE001 - crash capture is the point
            return (
                [Violation(subject, "crash", f"{type(exc).__name__}: {exc}",
                           step)],
                {"triggers": triggers},
            )
        triggers += len(requests)
        violation = oracle.on_act(
            subject, step, event.bank, event.row, event.time_ns,
            [(r.bank, r.aggressor_row) for r in requests],
        )
        if violation is not None:
            return [violation], {"triggers": triggers}
    return [], {"triggers": triggers}


def _run_hardware_vs_logical(
    events: Sequence[ActEvent], scale: VerifyScale
) -> tuple[list[Violation], dict[str, Any]]:
    """Lock-step CAM-level vs logical Misra-Gries comparison.

    Both models see the same per-bank stream with resets at the same
    window boundaries; every step must agree on the trigger decision,
    the spillover count and (sampled every 64 steps) the full tracked
    set -- the overflow-bit narrowing must be behaviorally invisible.
    """
    subject = "hardware-vs-logical"
    threshold = scale.threshold
    capacity = scale.config.num_entries
    count_bits = max(1, int(threshold).bit_length())
    logical: dict[int, MisraGriesTable] = {}
    hardware: dict[int, HardwareGrapheneTable] = {}
    windows: dict[int, int] = {}
    oracle = _GapOracle(threshold, scale.window_ns)
    triggers = 0
    for step, event in enumerate(events):
        bank, row = event.bank, event.row
        if bank not in logical:
            logical[bank] = MisraGriesTable(capacity)
            hardware[bank] = HardwareGrapheneTable(
                capacity, threshold, count_bits
            )
            windows[bank] = int(event.time_ns // scale.window_ns)
        window = int(event.time_ns // scale.window_ns)
        if window != windows[bank]:
            logical[bank].reset()
            hardware[bank].reset()
            windows[bank] = window
        count = logical[bank].observe(row)
        logical_trigger = count is not None and count % threshold == 0
        outcome = hardware[bank].process_activation(row)
        if logical_trigger != outcome.triggered:
            return (
                [Violation(
                    subject, "divergence",
                    f"step {step} (bank {bank} row {row}): logical "
                    f"trigger={logical_trigger} (count={count}) but "
                    f"hardware trigger={outcome.triggered} "
                    f"(path={outcome.path})",
                    step,
                )],
                {"triggers": triggers},
            )
        if logical[bank].spillover != hardware[bank].spillover:
            return (
                [Violation(
                    subject, "divergence",
                    f"step {step}: spillover {logical[bank].spillover} "
                    f"(logical) != {hardware[bank].spillover} (hardware)",
                    step,
                )],
                {"triggers": triggers},
            )
        if step % 64 == 0 and logical[bank].tracked() != hardware[bank].tracked():
            return (
                [Violation(
                    subject, "divergence",
                    f"step {step}: tracked sets diverged: "
                    f"{logical[bank].tracked()} != {hardware[bank].tracked()}",
                    step,
                )],
                {"triggers": triggers},
            )
        triggers += int(outcome.triggered)
        violation = oracle.on_act(
            subject, step, bank, row, event.time_ns,
            [(bank, row)] if outcome.triggered else [],
        )
        if violation is not None:
            return [violation], {"triggers": triggers}
    return [], {"triggers": triggers}


def _run_rank(
    events: Sequence[ActEvent], scale: VerifyScale
) -> tuple[list[Violation], dict[str, Any]]:
    """The rank-level shared table under the gap oracle."""
    subject = "rank"
    engine = RankLevelEngine(scale.rank_config)
    oracle = _GapOracle(engine.threshold, scale.window_ns)
    for step, event in enumerate(events):
        try:
            victims = engine.on_activate(event.bank, event.row, event.time_ns)
        except Exception as exc:  # noqa: BLE001 - crash capture is the point
            return (
                [Violation(subject, "crash", f"{type(exc).__name__}: {exc}",
                           step)],
                {"triggers": engine.victim_refresh_requests},
            )
        violation = oracle.on_act(
            subject, step, event.bank, event.row, event.time_ns,
            [(event.bank, event.row)] if victims else [],
        )
        if violation is not None:
            return (
                [violation],
                {"triggers": engine.victim_refresh_requests},
            )
    return [], {"triggers": engine.victim_refresh_requests}


def core_subjects(
    scale: VerifyScale = DEFAULT_SCALE,
) -> dict[str, Callable[[Sequence[ActEvent]], tuple[list[Violation], dict]]]:
    """All core-layer subjects, ready to run one stream each."""
    from .fastpath_check import fastpath_subject

    subjects: dict[str, Callable] = {
        "graphene": lambda ev: _run_graphene(ev, scale),
        "comet": lambda ev: _run_comet(ev, scale),
        "abacus": lambda ev: _run_abacus(ev, scale),
        "hardware-vs-logical": lambda ev: _run_hardware_vs_logical(ev, scale),
        "rank": lambda ev: _run_rank(ev, scale),
        "fastpath": fastpath_subject(scale),
    }
    for kind in TRACKER_KINDS:
        subjects[f"tracker:{kind}"] = (
            lambda ev, k=kind: _run_tracker(k, ev, scale)
        )
    return subjects


def weakened_graphene_subject(
    scale: VerifyScale = DEFAULT_SCALE, threshold_offset: int = 1
) -> Callable[[Sequence[ActEvent]], tuple[list[Violation], dict]]:
    """A deliberately broken engine (triggers at ``T + offset``).

    Test hook: campaigns against this subject MUST report gap
    violations, proving the oracle (and the shrinker behind it) has
    teeth.  Never part of the default subject roster.
    """
    return lambda ev: _run_graphene(
        ev, scale, threshold_offset=threshold_offset,
        subject=f"graphene-weakened+{threshold_offset}",
    )


def weakened_comet_subject(
    scale: VerifyScale = DEFAULT_SCALE, threshold_offset: int = 1
) -> Callable[[Sequence[ActEvent]], tuple[list[Violation], dict]]:
    """A deliberately broken CoMeT (both paths trigger at ``T + offset``).

    Same contract as :func:`weakened_graphene_subject`: campaigns
    against this subject MUST report gap violations.
    """
    return lambda ev: _run_comet(
        ev, scale, threshold_offset=threshold_offset,
        subject=f"comet-weakened+{threshold_offset}",
    )


def weakened_abacus_subject(
    scale: VerifyScale = DEFAULT_SCALE,
    threshold_offset: int = 0,
    insert_offset: int = 1,
) -> Callable[[Sequence[ActEvent]], tuple[list[Violation], dict]]:
    """A deliberately broken ABACuS.

    The default mutation is the Misra-Gries insert-at-spillover
    off-by-one (``insert_offset=1``): a churned row re-enters the
    shared table one count short each time, so its trigger arrives late
    and the gap oracle must catch it.  ``threshold_offset`` delays the
    RAC trigger period instead.
    """
    label = (
        f"abacus-weakened+{threshold_offset}"
        if threshold_offset
        else f"abacus-weakened-spill{insert_offset}"
    )
    return lambda ev: _run_abacus(
        ev, scale, threshold_offset=threshold_offset,
        insert_offset=insert_offset, subject=label,
    )


def weakened_subject(
    name: str, scale: VerifyScale = DEFAULT_SCALE
) -> Callable[[Sequence[ActEvent]], tuple[list[Violation], dict]]:
    """Resolve a weakened-subject label to its subject callable.

    Labels are the same strings the subjects report as their
    ``Violation.subject`` (so campaign artifacts can carry them):
    ``graphene-weakened+1``, ``comet-weakened+1``,
    ``abacus-weakened+2``, ``abacus-weakened-spill1``.
    """
    scheme, sep, mutation = name.partition("-weakened")
    if sep and mutation.startswith("+"):
        offset = int(mutation)
        if scheme == "graphene":
            return weakened_graphene_subject(scale, offset)
        if scheme == "comet":
            return weakened_comet_subject(scale, offset)
        if scheme == "abacus":
            return weakened_abacus_subject(
                scale, threshold_offset=offset, insert_offset=0
            )
    if sep and scheme == "abacus" and mutation.startswith("-spill"):
        return weakened_abacus_subject(
            scale, insert_offset=int(mutation[len("-spill"):])
        )
    raise ValueError(f"unknown weakened subject {name!r}")


# ----------------------------------------------------------------------
# Full-system mitigation layer
# ----------------------------------------------------------------------


def _mitigation_factory(scheme: str, trh: int):
    """Per-bank factory for one scheme at the verification threshold."""
    from ..analysis.scaling import para_probability_for
    from ..core.config import GrapheneConfig
    from ..mitigations import (
        abacus_factory,
        cbt_factory,
        comet_factory,
        cra_factory,
        graphene_factory,
        increased_refresh_rate_factory,
        mrloc_factory,
        no_mitigation_factory,
        oracle_factory,
        para_factory,
        prohit_factory,
        twice_factory,
    )

    if scheme == "graphene":
        return graphene_factory(
            GrapheneConfig(hammer_threshold=trh, reset_window_divisor=2)
        )
    if scheme == "twice":
        return twice_factory(trh)
    if scheme == "cbt":
        return cbt_factory(trh, num_counters=64, num_levels=8)
    if scheme == "cra":
        return cra_factory(trh, cache_entries=128)
    if scheme == "comet":
        return comet_factory(trh)
    if scheme == "abacus":
        return abacus_factory(trh)
    if scheme == "oracle":
        return oracle_factory(trh)
    if scheme == "none":
        return no_mitigation_factory()
    if scheme == "para":
        return para_factory(para_probability_for(trh), seed=1234)
    if scheme == "prohit":
        return prohit_factory(insert_probability=0.02, seed=1234)
    if scheme == "mrloc":
        return mrloc_factory(para_probability_for(trh), seed=1234)
    if scheme == "refresh-rate":
        return increased_refresh_rate_factory(multiplier=2)
    raise ValueError(f"unknown mitigation scheme {scheme!r}")


def _repace(events: Sequence[ActEvent], interval_ns: float) -> list[ActEvent]:
    """Map the verify-scale stream onto DDR4 pacing (same rows/banks)."""
    return [
        ActEvent(index * interval_ns, event.bank, event.row)
        for index, event in enumerate(events)
    ]


def _run_mitigation(
    scheme: str, events: Sequence[ActEvent], scale: VerifyScale
) -> tuple[list[Violation], dict[str, Any]]:
    """One scheme through the full simulator with the fault referee on."""
    from ..sim.simulator import simulate

    subject = f"mitigation:{scheme}"
    paced = _repace(events, interval_ns=45.0)
    duration_ns = (len(paced) + 1) * 45.0
    try:
        result = simulate(
            iter(paced),
            _mitigation_factory(scheme, scale.mitigation_trh),
            scheme=scheme,
            workload="verify",
            banks=scale.banks,
            rows_per_bank=scale.rows_per_bank,
            hammer_threshold=scale.mitigation_trh,
            track_faults=True,
            duration_ns=duration_ns,
        )
    except Exception as exc:  # noqa: BLE001 - crash capture is the point
        return (
            [Violation(subject, "crash", f"{type(exc).__name__}: {exc}")],
            {},
        )
    stats = {
        "flips": result.bit_flips,
        "directives": result.victim_refresh_directives,
        "rows_refreshed": result.victim_rows_refreshed,
    }
    if scheme in DETERMINISTIC_SCHEMES and result.bit_flips:
        return (
            [Violation(
                subject, "bit-flips",
                f"{result.bit_flips} bit flip(s) under a deterministic-"
                f"guarantee scheme (T_RH={scale.mitigation_trh}, "
                f"{len(paced)} ACTs)",
            )],
            stats,
        )
    return [], stats


# ----------------------------------------------------------------------
# One stream through everything
# ----------------------------------------------------------------------


def run_stream(
    events: Sequence[ActEvent],
    scale: VerifyScale = DEFAULT_SCALE,
    subjects: Mapping[str, Callable] | None = None,
    mitigation_schemes: Sequence[str] | None = MITIGATION_SCHEMES,
) -> StreamReport:
    """Run one stream through the chosen subjects; collect violations.

    Args:
        events: Time-sorted ACT stream (from :mod:`.generators` or a
            replayed artifact).
        scale: The verification scale the subjects are built at.
        subjects: Core-layer subjects (default: :func:`core_subjects`).
        mitigation_schemes: Full-system schemes to simulate (default:
            all; pass ``()`` to skip the mitigation layer entirely).
    """
    events = list(events)
    report = StreamReport(acts=len(events))
    if subjects is None:
        subjects = core_subjects(scale)
    for name, subject in subjects.items():
        violations, stats = subject(events)
        report.violations.extend(violations)
        report.subject_stats[name] = stats
    for scheme in mitigation_schemes or ():
        violations, stats = _run_mitigation(scheme, events, scale)
        report.violations.extend(violations)
        report.subject_stats[f"mitigation:{scheme}"] = stats
    return report
