"""REF ticks off the scalar path: catch-up and absorption.

The fast engine applies the REF ticks due by a vector attempt's first
ACT before the attempt (catch-up), and an idle-regime run of a REF-free
kernel with the fault referee off carries on through the ticks inside
it (absorption).  Both rest on one device method,
:meth:`~repro.dram.device.DramBankModel.skip_refreshes_to`, which must
leave a bank exactly as ``advance_to`` followed by
``drain_refresh_events`` does.

The properties here pin that method against the pair it replaces, and
the whole engine against the reference on streams built to hit the
edges: idle gaps spanning several ticks, ACTs within 1e-9 of a tick's
``t_ref + tRFC``, blackouts that run into the next tick,
``chunk_events`` boundaries between ticks, faults on and off, REF-free
and per-tick kernels.  tRFC at or above tREFI is covered at the device
level only: there a bank that has seen one tick never frees up again,
so the reference's ``earliest_activate`` would wait forever on the
next ACT.  Each property also asserts that ticks were actually batched,
so it fails on an engine that never takes the new path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core import fastpath
from repro.core.fast_kernels import reference_state
from repro.core.fastpath import build_fast_controller
from repro.dram.device import DramBankModel
from repro.dram.faults import CouplingProfile
from repro.dram.timing import DramTimings
from repro.sim.simulator import build_device, simulate
from repro.telemetry import TelemetryBus, session
from repro.verify.differential import _mitigation_factory
from repro.workloads import TraceArray

_ROWS = 16
_TRH = 40
#: Kernels whose engines do nothing at a REF, and those that act on it.
_REF_FREE = (
    "graphene", "para", "cbt", "comet", "cra", "mrloc", "none", "abacus",
)
_PER_TICK = ("twice", "refresh-rate", "prohit")


@dataclass(frozen=True)
class _AnyTimings(DramTimings):
    """``DramTimings`` without its range checks, so tRFC may reach or
    pass tREFI: each blackout then runs into the next tick's."""

    def __post_init__(self) -> None:
        pass


@st.composite
def _timings(draw, trfc_ratios=(0.1, 0.333, 0.6, 0.8)):
    """Timings for 16-row banks.  tRFC plus refresh-rate's one-row NRR
    per tick stays below tREFI, or the reference would wait forever."""
    trefi = draw(st.sampled_from((200.0, 155.5)))
    trfc = trefi * draw(st.sampled_from(trfc_ratios))
    return _AnyTimings(
        trefi=trefi,
        trfc=trfc,
        trc=draw(st.sampled_from((5.0, 7.3))),
        # Six commands per window over 16 rows: three rows each, and
        # the last command wraps with one.
        trefw=6 * trefi,
        trp=draw(st.sampled_from((2.0, 0.3))),
    )


def _tick_times(timings, horizon_ns: float) -> list[float]:
    """REF issue times up to ``horizon_ns``, as the schedule sums them."""
    ticks, time_ns = [], timings.trefi
    while time_ns <= horizon_ns:
        ticks.append(time_ns)
        time_ns += timings.trefi
    return ticks


#: How far a blackout-edge ACT lands from ``t_ref + tRFC``.
_EDGE_OFFSETS = (-3e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 3e-9)


@st.composite
def _streams(draw, timings, banks):
    """Sorted ACT times mixing back-to-back runs, queued ACTs, idle gaps
    over several ticks, ACTs exactly on a tick and ACTs at a tick's
    ``t_ref + tRFC`` give or take 1e-9."""
    n = draw(st.integers(min_value=8, max_value=120))
    ticks = _tick_times(timings, 200 * timings.trefi)
    kinds = st.sampled_from(
        ("same", "trc", "trc+", "gap", "on-tick", "edge", "edge")
    )
    times, time_ns = [], 0.0
    for _ in range(n):
        kind = draw(kinds)
        if kind == "trc":
            time_ns += timings.trc
        elif kind == "trc+":
            time_ns += timings.trc + 0.25
        elif kind == "gap":
            time_ns += timings.trefi * draw(st.sampled_from((1.5, 2.0, 3.7)))
        elif kind in ("on-tick", "edge"):
            later = [tick for tick in ticks if tick > time_ns]
            if later:
                tick = later[draw(st.integers(0, min(2, len(later) - 1)))]
                time_ns = tick
                if kind == "edge":
                    time_ns = tick + timings.trfc + draw(
                        st.sampled_from(_EDGE_OFFSETS)
                    )
        times.append(time_ns)
    row = st.one_of(
        st.integers(min_value=0, max_value=_ROWS - 1),
        st.sampled_from((0, 1, 2)),
    )
    rows = draw(st.lists(row, min_size=n, max_size=n))
    bank_ids = draw(st.lists(
        st.integers(min_value=0, max_value=banks - 1), min_size=n, max_size=n
    ))
    return TraceArray(
        np.asarray(times), np.asarray(bank_ids, dtype=np.int64),
        np.asarray(rows, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Device level
# ----------------------------------------------------------------------


def _bank_snapshot(model: DramBankModel) -> dict:
    bank, engine, faults = model.bank, model.refresh_engine, model.faults
    return {
        "clock": model.clock_ns,
        "open_row": bank.open_row,
        "next_act": bank._next_act_ns,
        "busy": bank._busy_until_ns,
        "last_act": bank._last_act_ns,
        "stats": bank.stats,
        "schedule": (
            engine.next_time_ns, engine._pointer, engine.commands_issued
        ),
        "faults": None if faults is None else (
            list(faults._disturbance.items()),
            sorted(faults._flipped),
            faults.flips,
            faults.activations,
            faults.refreshes,
        ),
        "undrained": model._undrained_refreshes,
    }


@st.composite
def _bank_histories(draw):
    """A twin-able bank history: ACTs at legal times, NRRs, time jumps."""
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(("act", "act", "nrr", "wait")),
            st.integers(min_value=0, max_value=_ROWS - 1),
            st.floats(min_value=0.0, max_value=400.0),
        ),
        max_size=30,
    ))
    return steps


def _replay(model: DramBankModel, steps) -> None:
    """Apply ``steps``; an ACT the bank is not ready for is dropped (with
    tRFC >= tREFI, waiting for the bank would never end)."""
    time_ns = 0.0
    for kind, row, wait in steps:
        time_ns = max(time_ns + wait, model.clock_ns)
        if kind == "act":
            model.advance_to(time_ns)
            if model.bank.earliest_activate(time_ns) <= time_ns + 1e-9:
                model.activate(row, time_ns)
        elif kind == "nrr":
            model.nearby_row_refresh(row, time_ns)
        else:
            model.advance_to(time_ns)
        model.drain_refresh_events()


class TestSkipRefreshesTo:
    def test_matches_advance_then_drain(self):
        """Random bank states and targets -- some exactly on a tick,
        some past several -- leave the same bank, schedule and fault
        state either way, and the tick counts agree."""
        applied = []

        @settings(max_examples=300, deadline=None)
        @given(
            timings=_timings(trfc_ratios=(0.1, 0.333, 0.97, 1.0, 1.6)),
            steps=_bank_histories(),
            faults=st.booleans(),
            coupling=st.sampled_from((1, 2)),
            # Up to 40 ticks ahead.
            target=st.tuples(
                st.sampled_from(("tick", "offset")),
                st.integers(min_value=0, max_value=40),
                st.floats(min_value=0.0, max_value=6_000.0),
            ),
        )
        def check(timings, steps, faults, coupling, target):
            twins = [
                DramBankModel(
                    0, _ROWS, timings, hammer_threshold=6,
                    coupling=CouplingProfile.uniform(coupling),
                    track_faults=faults,
                )
                for _ in range(2)
            ]
            for model in twins:
                _replay(model, steps)
            reference, batched = twins
            kind, ticks_ahead, offset = target
            until = reference.clock_ns + offset
            if kind == "tick":
                # Exactly on a future tick: `pop_due` pops at `<=`.
                due = reference.refresh_engine.due_times(
                    reference.refresh_engine.next_time_ns
                    + (ticks_ahead + 1) * timings.trefi
                )
                until = max(until, float(due[min(ticks_ahead, len(due) - 1)]))
            events = reference.advance_to(until)
            assert reference.drain_refresh_events() == events
            count = batched.skip_refreshes_to(until)
            assert count == len(events)
            assert _bank_snapshot(batched) == _bank_snapshot(reference)
            applied.append(count)

        check()
        assert sum(applied) > 0

    def test_refuses_to_go_backwards(self):
        timings = _AnyTimings(trefi=100.0, trfc=10.0, trefw=600.0)
        model = DramBankModel(0, _ROWS, timings, hammer_threshold=6)
        model.advance_to(250.0)
        with pytest.raises(ValueError):
            model.skip_refreshes_to(249.0)

    def test_plan_is_read_only(self):
        timings = _AnyTimings(trefi=100.0, trfc=150.0, trefw=600.0)
        model = DramBankModel(0, _ROWS, timings, hammer_threshold=6)
        before = _bank_snapshot(model)
        ticks, ends = model.refresh_plan(300.0)
        # tRFC > tREFI: each blackout starts where the previous ends.
        assert list(ticks) == [100.0, 200.0, 300.0]
        assert list(ends) == [250.0, 400.0, 550.0]
        assert _bank_snapshot(model) == before


# ----------------------------------------------------------------------
# Engine level
# ----------------------------------------------------------------------


class _TickProbe:
    """Counts ticks the lane batched inside vector runs (absorption),
    before them (catch-up), and catch-ups that handed directives to a
    scalar step."""

    def __init__(self, monkeypatch) -> None:
        self.absorbed = self.caught_up = self.prepended = 0
        try_vector = fastpath._LaneEngine._try_vector
        catch_up = fastpath._LaneEngine._catch_up

        def counted_try(lane, bank_model, *args):
            before = bank_model.stats.auto_refreshes
            result = try_vector(lane, bank_model, *args)
            self.absorbed += bank_model.stats.auto_refreshes - before
            return result

        def counted_catch_up(lane, bank_model, *args):
            before = bank_model.stats.auto_refreshes
            pending = catch_up(lane, bank_model, *args)
            self.caught_up += bank_model.stats.auto_refreshes - before
            self.prepended += bool(pending)
            return pending

        lane = fastpath._LaneEngine
        monkeypatch.setattr(lane, "_try_vector", counted_try)
        monkeypatch.setattr(lane, "_catch_up", counted_catch_up)


def _both_engines(trace, scheme, timings, banks, faults, chunk_events):
    """Reference and fast runs of one stream: results and table states."""
    engines: dict[tuple[bool, int], object] = {}

    def factory(fast):
        build = _mitigation_factory(scheme, _TRH)

        def recording(bank, rows):
            engines[fast, bank] = build(bank, rows)
            return engines[fast, bank]

        return recording

    kwargs = dict(
        scheme=scheme, workload="ref-edges", banks=banks,
        rows_per_bank=_ROWS, timings=timings, hammer_threshold=12,
        track_faults=faults, duration_ns=float(trace.time_ns[-1]) + 1.0,
    )
    reference = simulate(trace, factory(False), fast=False, **kwargs)
    fast = simulate(
        trace, factory(True), fast=True, chunk_events=chunk_events, **kwargs
    )
    states = [
        (reference_state(engines[True, b]), reference_state(engines[False, b]))
        for b in range(banks)
    ]
    return fast.to_dict(), reference.to_dict(), states


class TestEngineAgainstReference:
    def test_byte_identical_and_ticks_batched(self, monkeypatch):
        """Both engines agree on ``to_dict()`` and every bank's table
        state; REF-free runs absorbed ticks, catch-up batched ticks, and
        per-tick kernels had catch-up directives prepended to a scalar
        step."""
        probe = _TickProbe(monkeypatch)
        absorbed_by_scheme: dict[str, int] = {}

        @settings(max_examples=250, deadline=None)
        @given(
            data=st.data(),
            timings=_timings(),
            scheme=st.sampled_from(_REF_FREE + _PER_TICK),
            banks=st.sampled_from((1, 2)),
            faults=st.booleans(),
            chunk_events=st.sampled_from((None, None, 5, 13)),
        )
        def check(data, timings, scheme, banks, faults, chunk_events):
            trace = data.draw(_streams(timings, banks))
            before = probe.absorbed
            fast, reference, states = _both_engines(
                trace, scheme, timings, banks, faults, chunk_events
            )
            assert fast == reference
            for fast_state, reference_table in states:
                assert fast_state == reference_table
            absorbed_by_scheme[scheme] = (
                absorbed_by_scheme.get(scheme, 0) + probe.absorbed - before
            )

        check()
        assert probe.absorbed > 0, "no vector run absorbed a REF tick"
        assert probe.caught_up > 0, "no catch-up batched a REF tick"
        assert probe.prepended > 0, "no per-tick directive was prepended"
        for scheme in _PER_TICK:
            assert absorbed_by_scheme.get(scheme, 0) == 0

    def test_idle_hammer_absorbs_every_tick(self, monkeypatch):
        """A bank hammered at its idle pace through ten ticks, with
        every ACT clear of the blackouts: the first run absorbs them
        all, and no ACT replays scalar."""
        probe = _TickProbe(monkeypatch)
        timings = _AnyTimings(trefi=100.0, trfc=10.0, trc=5.0, trefw=600.0)
        # ACTs every 20 ns, shifted off the ticks' blackouts.
        times = np.arange(1, 56) * 20.0 + 12.5
        trace = TraceArray(
            times, np.zeros(len(times), dtype=np.int64),
            np.arange(len(times), dtype=np.int64) % 5,
        )
        fast, reference, _ = _both_engines(
            trace, "none", timings, 1, False, None
        )
        assert fast == reference
        assert probe.absorbed == reference["bank_stats"]["auto_refreshes"]
        assert probe.absorbed == 11


class TestRefTickCounters:
    @pytest.mark.parametrize("scheme", ("graphene", "twice", "abacus"))
    @pytest.mark.parametrize("chunk_events", (None, 60))
    def test_batched_plus_forwarded_is_every_tick(self, scheme, chunk_events):
        """``fastpath.<scheme>.ref_ticks_batched`` plus the ticks
        forwarded to ``on_refresh_command`` account for every bank's
        auto-refreshes."""
        timings = _AnyTimings(trefi=100.0, trfc=30.0, trc=5.0, trefw=600.0)
        n = 200
        times = np.arange(n) * 11.0
        # 50-ACT runs per bank, so ABACuS's cross-bank lane hands each
        # run to the per-bank machinery.
        trace = TraceArray(
            times, (np.arange(n, dtype=np.int64) // 50) % 2,
            (np.arange(n, dtype=np.int64) * 7) % _ROWS,
        )
        device = build_device(
            banks=2, rows_per_bank=_ROWS, timings=timings,
            hammer_threshold=12, track_faults=False,
        )
        controller = build_fast_controller(
            device, _mitigation_factory(scheme, _TRH)
        )
        bus = TelemetryBus(events=False)
        with session(bus):
            controller.run(trace, chunk_events=chunk_events)
        counters = bus.registry.snapshot()["counters"]
        batched = counters[f"fastpath.{scheme}.ref_ticks_batched"]
        forwarded = controller.counters.ref_ticks_forwarded
        ticks = sum(bank.stats.auto_refreshes for bank in device.banks)
        assert ticks > 0
        assert batched + forwarded == ticks
        if scheme == "twice":
            assert batched == 0
        else:
            assert batched > 0
