"""The columnar fast path: bit-identical to the reference engine.

Every test here asserts *exact* equality with the reference
implementations -- same directives, same table state, same serialized
``SimulationResult`` -- because that is the fast path's contract
(:mod:`repro.core.fastpath` never trades correctness for speed; it
falls back to the reference loop instead).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GrapheneConfig
from repro.core.fast_kernels import FastGrapheneKernel, reference_table_state
from repro.core.fastpath import (
    build_fast_controller,
    build_fast_controller_ex,
    kernel_for,
    kernel_schemes,
)
from repro.core.misra_gries import MisraGriesTable
from repro.dram.timing import DDR4_2400
from repro.mitigations import graphene_factory, oracle_factory, para_factory
from repro.mitigations.graphene import GrapheneMitigation
from repro.sim.simulator import build_device, simulate
from repro.verify.differential import _mitigation_factory, core_subjects
from repro.verify.fastpath_check import KERNEL_SCHEMES, run_fastpath_check
from repro.verify.generators import DEFAULT_SCALE, StreamSpec, generate_stream
from repro.workloads import ActEvent, TraceArray, merge_arrays, pace_array


def _adversarial_items(seed: int, n: int, keys: int = 12) -> list[int]:
    """Key stream tight enough to exercise hits, evictions and ties."""
    rng = random.Random(seed)
    return [rng.randrange(keys) for _ in range(n)]


def _graphene_pair(threshold: int = 1000, capacity: int | None = None):
    """A reference Graphene engine and the fast kernel over a twin.

    ``capacity`` swaps both engines' tables for one of that size (the
    derived ``N`` is in the hundreds at DDR4 timings)."""
    config = GrapheneConfig(hammer_threshold=threshold)
    reference = GrapheneMitigation(0, 65536, config)
    fast_inner = GrapheneMitigation(0, 65536, config)
    if capacity is not None:
        reference.engine.table = MisraGriesTable(capacity)
        fast_inner.engine.table = MisraGriesTable(capacity)
    kernel = kernel_for(fast_inner)
    assert isinstance(kernel, FastGrapheneKernel)
    return reference, kernel


def _commit_all(kernel, rows, time_ns: float = 0.0) -> None:
    """Commit ``rows`` through ``commit_run``; none may be held back."""
    times = np.full(len(rows), time_ns)
    consumed, directives = kernel.commit_run(times, np.asarray(rows))
    assert (consumed, directives) == (len(rows), [])


class TestSeededCumsum:
    @given(
        start=st.floats(min_value=0.0, max_value=1e9),
        increments=st.lists(
            st.one_of(
                st.sampled_from((1.0, 0.25, 1.0 / 9.0, 45.83, 7.5)),
                st.floats(min_value=0.0, max_value=1e6),
            ),
            min_size=1, max_size=200,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_cumsum_is_a_left_to_right_sum(self, start, increments):
        """``np.cumsum`` adds one element at a time, so every partial
        sum is bit-identical to Python's ``+=`` loop -- what the
        saturated-regime issue chain and the seeded tracker totals
        rely on."""
        partial = np.cumsum(np.asarray([start, *increments]))
        total = start
        expected = [total]
        for step in increments:
            total += step
            expected.append(total)
        assert partial.tolist() == expected


class TestFastMisraGries:
    """The Graphene kernel's Misra-Gries loop against ``MisraGriesTable``.

    ``T`` is raised out of reach so ``commit_run`` never truncates, and
    items arrive in runs of 1-64: every hit, insert, eviction and
    spillover bump goes through the batched path."""

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_with_reference_table(self, capacity, seed):
        reference = MisraGriesTable(capacity)
        _, kernel = _graphene_pair(capacity=capacity)
        kernel.mitigation.engine.threshold = 10**9
        table = kernel.mitigation.engine.table
        items = _adversarial_items(seed, 2000)
        rng = random.Random(seed)
        start = 0
        while start < len(items):
            run = items[start:start + rng.randint(1, 64)]
            start += len(run)
            _commit_all(kernel, run)
            for item in run:
                reference.observe(item)
            assert table.spillover == reference.spillover, start
            assert table.tracked() == reference.tracked(), start
            assert table.last_evicted == reference.last_evicted, start
            table.check_invariants()
        assert table.observations == reference.observations

    def test_smallest_key_eviction_tie_break(self):
        """The determinism contract: min() over replaceable keys."""
        _, kernel = _graphene_pair(capacity=3)
        table = kernel.mitigation.engine.table
        # 99 misses a full table with no entry at count 0 (spillover ->
        # 1); 42 then evicts the smallest count-1 key, 10.
        _commit_all(kernel, [30, 20, 10, 99, 42])
        assert table.spillover == 1
        assert table.estimated_count(42) == 2  # carried-over count + 1
        assert table.last_evicted == 10
        assert 10 not in table and 42 in table

    def test_reset_clears_everything(self):
        """A window reset between commits starts a fresh eviction epoch:
        the snapshot of the old spillover bucket must not leak into the
        new window."""
        reference, kernel = _graphene_pair(capacity=2)
        table = kernel.mitigation.engine.table
        window = kernel.mitigation.engine._window_length_ns
        _commit_all(kernel, [1, 2, 3, 4, 5])
        for row in (1, 2, 3, 4, 5):
            reference.on_activate(row, 0.0)
        kernel.on_activate(7, window)
        reference.on_activate(7, window)
        assert table.tracked() == {7: 1}
        assert table.spillover == 0 and table.observations == 1
        _commit_all(kernel, [9, 11, 8, 6], window)
        for row in (9, 11, 8, 6):
            reference.on_activate(row, window)
        assert reference_table_state(kernel.mitigation) == (
            reference_table_state(reference)
        )
        assert table.last_evicted == reference.engine.table.last_evicted

    def test_estimated_count(self):
        _, kernel = _graphene_pair(capacity=2)
        _commit_all(kernel, [7, 7])
        table = kernel.mitigation.engine.table
        assert table.estimated_count(7) == 2
        assert table.estimated_count(8) == 0


class TestFastGrapheneBank:
    """One bank's Graphene kernel from ``kernel_for``, driven the way
    the controller drives it: offered runs through ``commit_run`` and
    the held-back event through the scalar path."""

    def test_lockstep_with_reference_engine(self):
        reference, fast = _graphene_pair(threshold=200, capacity=16)
        window = fast.mitigation.engine._window_length_ns
        rng = random.Random(3)
        events, time_ns = [], 0.0
        for step in range(5000):
            events.append((time_ns, rng.randrange(40)))
            # Reset-window straddles included: jump past a boundary
            # every ~500 ACTs.
            time_ns += 45.0 if step % 500 else window / 3
        ref_directives = []
        for t, row in events:
            ref_directives.extend(reference.on_activate(row, t))
        fast_directives, index, committed = [], 0, 0
        while index < len(events):
            blocking = fast.next_blocking_ns()
            stop = index
            while (
                stop < len(events) and stop - index < 256
                and events[stop][0] < blocking
            ):
                stop += 1
            consumed = 0
            if stop > index:
                times, rows = zip(*events[index:stop])
                consumed, directives = fast.commit_run(
                    np.asarray(times), np.asarray(rows)
                )
                assert directives == []
            committed += consumed
            index += consumed
            if index < len(events):
                t, row = events[index]
                fast_directives.extend(fast.on_activate(row, t))
                index += 1
        assert fast_directives == ref_directives
        assert ref_directives, "test has no teeth"
        assert committed > len(events) // 2
        assert fast.table_state() == reference_table_state(reference)
        assert fast.stats == reference.stats
        assert fast.mitigation.engine.stats == reference.engine.stats

    def test_rejects_backwards_time_and_bad_rows(self):
        _, fast = _graphene_pair()
        fast.on_activate(5, 1000.0)
        with pytest.raises(ValueError):
            fast.on_activate(5, -1.0)
        with pytest.raises(IndexError):
            fast.on_activate(-1, 2000.0)

    def test_describe_matches_reference(self):
        reference, fast = _graphene_pair()
        assert fast.name == reference.name == "graphene"
        assert fast.describe() == reference.describe()
        assert fast.stats is fast.mitigation.stats


def _interleaved_trace(banks: int = 3, acts_per_bank: int = 4000):
    """Max-rate hammers on several banks, merged into one stream."""
    per_bank = []
    for bank in range(banks):
        rows = [100 + bank, 102 + bank] * (acts_per_bank // 2)
        per_bank.append(
            pace_array(rows, DDR4_2400.trc, bank=bank,
                       start_ns=bank * 7.0)
        )
    return merge_arrays(*per_bank)


class TestSimulateFastPath:
    @pytest.mark.parametrize("track_faults", [False, True])
    def test_identical_results_on_hammer(self, track_faults):
        trace = _interleaved_trace()
        kwargs = dict(
            scheme="graphene",
            workload="hammer",
            banks=3,
            hammer_threshold=2000,
            track_faults=track_faults,
        )
        factory = graphene_factory(GrapheneConfig(hammer_threshold=2000))
        reference = simulate(trace, factory, fast=False, **kwargs)
        fast = simulate(trace, factory, fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        assert reference.victim_refresh_directives > 0  # test has teeth

    def test_identical_results_on_fuzz_stream(self):
        events = generate_stream(
            StreamSpec(generator="random", seed=5, length=2000),
            DEFAULT_SCALE,
        )
        paced = [
            ActEvent(i * DDR4_2400.trc, e.bank, e.row)
            for i, e in enumerate(events)
        ]
        kwargs = dict(
            scheme="graphene",
            workload="fuzz",
            banks=DEFAULT_SCALE.banks,
            rows_per_bank=DEFAULT_SCALE.rows_per_bank,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
        )
        factory = graphene_factory(
            GrapheneConfig(hammer_threshold=DEFAULT_SCALE.mitigation_trh,
                           reset_window_divisor=2)
        )
        reference = simulate(iter(paced), factory, fast=False, **kwargs)
        fast = simulate(iter(paced), factory, fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()

    def test_fallback_for_schemes_without_kernel(self, caplog):
        """The oracle has no batched kernel: fast=True must
        transparently use the reference loop, produce the same results,
        and warn that it fell back."""
        import logging

        trace = _interleaved_trace(banks=1, acts_per_bank=1000)
        make = lambda: oracle_factory(200)  # noqa: E731
        kwargs = dict(scheme="oracle", workload="hammer", banks=1,
                      track_faults=False)
        reference = simulate(trace, make(), fast=False, **kwargs)
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            fast = simulate(trace, make(), fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        assert reference.victim_rows_refreshed > 0
        assert any(
            "falling back" in record.message and "oracle" in record.message
            for record in caplog.records
        ), "silent fallback: no warning logged"

    def test_fallback_when_telemetry_installed(self):
        """The fast path cannot publish per-ACT events; with a bus
        installed build_fast_controller must decline."""
        from repro.telemetry import TelemetryBus, session

        device = build_device(banks=1, track_faults=False)
        factory = graphene_factory(GrapheneConfig())
        with session(TelemetryBus()):
            assert build_fast_controller(device, factory) is None
        assert build_fast_controller(device, factory) is not None

    def test_builds_under_metrics_level_bus(self):
        """A ``metrics`` bus takes no per-ACT events, so the fast
        controller builds under it."""
        from repro.telemetry import TelemetryBus, session

        device = build_device(banks=1, track_faults=False)
        factory = graphene_factory(GrapheneConfig())
        with session(TelemetryBus(events=False)):
            controller, reason = build_fast_controller_ex(device, factory)
        assert controller is not None and reason is None

    @pytest.mark.parametrize("per_act", [True, False])
    def test_fallback_publishes_one_typed_event(self, per_act):
        """A fallback reaches an installed bus as one job-level
        ``FastPathFallback``, at either level: under ``events`` the bus
        forces it, under ``metrics`` only a scheme without a kernel
        does."""
        from repro.telemetry import FastPathFallback, TelemetryBus, session

        trace = _interleaved_trace(banks=1, acts_per_bank=200)
        kwargs = dict(workload="hammer", banks=1, track_faults=False)
        cases = [
            ("graphene", graphene_factory(GrapheneConfig())),
            ("oracle", oracle_factory(200)),
        ]
        bus = TelemetryBus(events=per_act)
        with session(bus):
            for scheme, factory in cases:
                simulate(trace, factory, scheme=scheme, fast=True, **kwargs)
        fallbacks = [e for e in bus.events if isinstance(e, FastPathFallback)]
        expected = ["graphene", "oracle"] if per_act else ["oracle"]
        assert [e.scheme for e in fallbacks] == expected
        assert all(e.workload == "hammer" for e in fallbacks)
        reason = "events-level telemetry bus" if per_act else (
            "no batched kernel"
        )
        assert all(reason in e.reason for e in fallbacks)


class TestEmptyStreamRegression:
    """Satellite bugfix: an empty stream must not fabricate a window."""

    @pytest.mark.parametrize("fast", [False, True])
    def test_empty_stream_reports_zero_duration(self, fast):
        factory = graphene_factory(GrapheneConfig())
        result = simulate(
            iter([]), factory, scheme="graphene", workload="empty",
            fast=fast,
        )
        assert result.acts == 0
        assert result.duration_ns == 0.0
        assert result.windows == 0
        assert result.bit_flips == 0

    @pytest.mark.parametrize("fast", [False, True])
    def test_empty_stream_honors_explicit_duration(self, fast):
        factory = graphene_factory(GrapheneConfig())
        result = simulate(
            iter([]), factory, scheme="graphene", workload="empty",
            duration_ns=5e6, fast=fast,
        )
        assert result.acts == 0
        assert result.duration_ns == 5e6


class TestDifferentialSubject:
    def test_registered_in_core_subjects(self):
        assert "fastpath" in core_subjects()

    @pytest.mark.parametrize("generator", ["random", "eviction"])
    def test_clean_on_fuzz_streams(self, generator):
        events = generate_stream(
            StreamSpec(generator=generator, seed=9, length=600),
            DEFAULT_SCALE,
        )
        violations, stats = run_fastpath_check(events, DEFAULT_SCALE)
        assert violations == []
        # Every kernel scheme replays the full stream through both
        # stacks; acts aggregate across the roster.
        assert stats["schemes"] == len(KERNEL_SCHEMES)
        assert stats["acts"] == len(events) * len(KERNEL_SCHEMES)

    def test_unprotected_stream_flips_on_both_engines(self, monkeypatch):
        """The pinned stream that makes ``none`` flip: the subject then
        compares real bit-flip records from the vector path against the
        reference's (a mismatch would be a violation)."""
        from repro.verify import fastpath_check

        monkeypatch.setattr(fastpath_check, "KERNEL_SCHEMES", ("none",))
        events = generate_stream(
            StreamSpec(generator="eviction", seed=7, length=900),
            DEFAULT_SCALE,
        )
        violations, stats = run_fastpath_check(events, DEFAULT_SCALE)
        assert violations == []
        assert stats["flips"] >= 1

    def test_catches_a_seeded_divergence(self):
        """The subject must have teeth: skew one table count right
        after a commit that inserted a row (the miss path) and the
        comparison must flag it."""
        events = generate_stream(
            StreamSpec(generator="random", seed=9, length=200),
            DEFAULT_SCALE,
        )
        original = FastGrapheneKernel.commit_run
        skewed = []

        def corrupted(self, times, rows):
            stats = self.mitigation.engine.stats
            inserted = stats.table_insertions
            result = original(self, times, rows)
            if not skewed and stats.table_insertions > inserted:
                table = self.mitigation.engine.table
                row, count = next(iter(table.tracked().items()))
                table._move(row, count, count + 1)
                skewed.append(row)
            return result

        FastGrapheneKernel.commit_run = corrupted
        try:
            violations, _ = run_fastpath_check(events, DEFAULT_SCALE)
        finally:
            FastGrapheneKernel.commit_run = original
        assert skewed, "no miss-path commit ran"
        assert violations, "corrupted kernel state went undetected"
        assert violations[0].kind == "divergence"
        assert "[graphene" in violations[0].detail

    def test_metrics_leg_catches_a_dropped_delay(self, monkeypatch):
        """The ``/metrics`` stack compares registries, not just results:
        publishing one delayed ACT too few must be flagged even though
        every ``SimulationResult`` still matches."""
        from repro.core import fastpath

        original = fastpath._publish_delays
        monkeypatch.setattr(
            fastpath, "_publish_delays",
            lambda registry, count, pos: original(registry, count, pos[1:]),
        )
        events = generate_stream(
            StreamSpec(generator="random", seed=9, length=600),
            DEFAULT_SCALE,
        )
        violations, _ = run_fastpath_check(events, DEFAULT_SCALE)
        assert violations and violations[0].kind == "divergence"
        assert "/metrics] metrics registry diverged" in violations[0].detail
        assert "sched.delayed_acts" in violations[0].detail


class TestFastControllerConstruction:
    def test_requires_registered_kernel(self):
        """Schemes without a kernel get None (plus the reason); every
        registry scheme builds."""
        device = build_device(banks=1, track_faults=False)
        controller, reason = build_fast_controller_ex(
            device, oracle_factory(200)
        )
        assert controller is None
        assert "oracle" in reason and "kernel" in reason
        assert build_fast_controller(device, para_factory(0.01)) is not None

    def test_kernel_registry_covers_advertised_schemes(self):
        """`kernel_schemes()` and the differential roster agree, and
        `kernel_for` builds a kernel for each scheme's engine."""
        assert set(KERNEL_SCHEMES) <= set(kernel_schemes())
        for scheme in KERNEL_SCHEMES:
            engine = _mitigation_factory(scheme, 1000)(0, 4096)
            kernel = kernel_for(engine)
            assert kernel is not None, scheme
            assert kernel.stats is not None
            assert kernel.table_state() is not None

def _round_robin_trace(banks: int = 8, acts_per_bank: int = 3000,
                       rows_per_bank: int = 512, seed: int = 11):
    """Worst-case interleave: event i lands on bank i % banks, so every
    contiguous same-bank run has length exactly 1."""
    import numpy as np

    rng = random.Random(seed)
    per_bank = []
    for bank in range(banks):
        rows = [100, 102] * (acts_per_bank // 2)
        # Sprinkle misses/allocations so the table kernels get exercised.
        for _ in range(acts_per_bank // 40):
            rows[rng.randrange(len(rows))] = rng.randrange(rows_per_bank)
        per_bank.append(
            pace_array(
                np.asarray(rows),
                DDR4_2400.trc,
                bank=bank,
                start_ns=bank * (DDR4_2400.trc / banks),
            )
        )
    trace = merge_arrays(*per_bank)
    # The interleave property the test name promises: length-1 runs.
    runs = list(trace.bank_runs())
    assert max(stop - start for start, stop, _ in runs) == 1
    return trace


class TestKernelSchemes:
    """Every registry scheme, byte-identical on the worst-case
    round-robin interleave (length-1 same-bank runs across 8 banks)."""

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_identical_on_round_robin_interleave(self, scheme):
        trace = _round_robin_trace()
        duration = float(trace.time_ns[-1]) + 100.0
        kwargs = dict(
            scheme=scheme,
            workload="rr8",
            banks=8,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
            duration_ns=duration,
        )
        reference = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=False, **kwargs,
        )
        fast = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=True, **kwargs,
        )
        assert fast.to_dict() == reference.to_dict()
        assert reference.acts == len(trace)

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_blocking_event_on_first_act_of_segment(self, scheme):
        """Edge case: a lane whose very first ACT sits exactly on a
        blocking boundary (REF tick / reset-window edge) must replay it
        scalar and still match the reference byte-for-byte."""
        import numpy as np

        boundaries = [
            DDR4_2400.trefi,              # first auto-refresh tick
            DDR4_2400.trefw / 2,          # graphene reset-window edge
            DDR4_2400.trefw,              # cbt window edge
        ]
        parts = []
        for bank, boundary in enumerate(boundaries):
            rows = np.asarray([100, 102] * 400)
            parts.append(
                pace_array(rows, DDR4_2400.trc, bank=bank,
                           start_ns=float(boundary))
            )
        trace = merge_arrays(*parts)
        duration = float(trace.time_ns[-1]) + 100.0
        kwargs = dict(
            scheme=scheme,
            workload="boundary-first-act",
            banks=len(boundaries),
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
            duration_ns=duration,
        )
        reference = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=False, **kwargs,
        )
        fast = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=True, **kwargs,
        )
        assert fast.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    @pytest.mark.parametrize("streamed", [False, True])
    def test_out_of_range_row_raises_like_reference(self, scheme, streamed):
        """A row past the bank must raise the reference's IndexError on
        both engines -- vector commits never reach the bank model's own
        range check, so the controller validates each chunk up front."""
        import numpy as np

        rows = np.asarray([100, 102] * 32)
        rows[40] = 700
        trace = pace_array(rows, DDR4_2400.trc, bank=0)
        kwargs = dict(
            scheme=scheme,
            workload="bad-row",
            banks=1,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=False,
        )
        message = r"row 700 out of range \[0, 512\)"
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(IndexError, match=message):
            simulate(trace, factory, fast=False, **kwargs)
        events = list(trace) if streamed else trace
        chunk_events = 16 if streamed else None
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(IndexError, match=message):
            simulate(
                events, factory, fast=True, chunk_events=chunk_events,
                **kwargs,
            )

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("bank", [-1, 2])
    def test_out_of_range_bank_raises_like_reference(
        self, scheme, streamed, bank
    ):
        """A bank outside the device must raise on both engines -- a
        negative index used to wrap round to the last bank and a large
        one to escape as a bare list-index error."""
        trace = pace_array(np.asarray([100, 102] * 10), DDR4_2400.trc)
        events = [
            ActEvent(event.time_ns, bank if index == 7 else 1, event.row)
            for index, event in enumerate(trace.to_events())
        ]
        kwargs = dict(
            scheme=scheme,
            workload="bad-bank",
            banks=2,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=False,
        )
        message = rf"bank {bank} out of range \[0, 2\)"
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(IndexError, match=message):
            simulate(events, factory, fast=False, **kwargs)
        source = iter(events) if streamed else TraceArray.from_events(events)
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(IndexError, match=message):
            simulate(
                source, factory, fast=True,
                chunk_events=8 if streamed else None, **kwargs,
            )


    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("bad", ["backwards", "nan", "inf"])
    def test_unsorted_or_non_finite_time_raises_like_reference(
        self, scheme, streamed, bad
    ):
        """Both engines raise the same ``ValueError`` at the same event
        for a time before its predecessor's or a non-finite one.  The
        bad event opens the third 16-event chunk when streamed, so the
        fast engine must carry the previous chunk's last time."""
        trace = pace_array(np.asarray([100, 102] * 32), DDR4_2400.trc)
        events = list(trace.to_events())
        at = {
            "backwards": events[31].time_ns - 1.0,
            "nan": float("nan"),
            "inf": float("inf"),
        }[bad]
        events[32] = ActEvent(at, events[32].bank, events[32].row)
        kwargs = dict(
            scheme=scheme,
            workload="bad-time",
            banks=1,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
        )
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(ValueError) as reference:
            simulate(iter(events), factory, fast=False, **kwargs)
        source = iter(events) if streamed else TraceArray.from_events(events)
        factory = _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh)
        with pytest.raises(ValueError) as fast:
            simulate(
                source, factory, fast=True,
                chunk_events=16 if streamed else None, **kwargs,
            )
        assert str(fast.value) == str(reference.value)
        assert repr(at) in str(fast.value)


class TestBatchedReferee:
    def test_only_scalar_replays_reach_on_activate(self, monkeypatch):
        """An unprotected S3 hammer with the fault referee on: every
        vector commit goes through ``HammerFaultModel.batch``, so the
        per-ACT ``on_activate`` runs exactly once per ACT that replayed
        scalar -- the flipping ACTs among them -- and the flips match
        the reference engine's record for record."""
        from repro.controller.mc import MemoryController
        from repro.dram.faults import HammerFaultModel
        from repro.mitigations import no_mitigation_factory
        from repro.workloads.synthetic import s3_rows, synthetic_events

        events = list(synthetic_events(s3_rows(target=500), 2e6))
        flip_fields = lambda flips: [  # noqa: E731
            (f.bank, f.row, f.time_ns, f.disturbance, f.triggering_aggressor)
            for f in flips
        ]

        def run(fast):
            device = build_device(
                banks=1, hammer_threshold=2000, track_faults=True
            )
            if fast:
                controller = build_fast_controller(
                    device, no_mitigation_factory()
                )
                controller.run(TraceArray.from_events(events))
            else:
                controller = MemoryController(device, no_mitigation_factory())
                controller.run(events)
            return controller

        reference = run(fast=False)
        calls = []
        flipping = []
        original = HammerFaultModel.on_activate

        def counted(self, row, time_ns):
            flips = original(self, row, time_ns)
            calls.append(row)
            flipping.extend(flips)
            return flips

        monkeypatch.setattr(HammerFaultModel, "on_activate", counted)
        fast = run(fast=True)
        scalar = fast.counters.acts_issued - fast._lane.vector_acts
        assert fast.counters.acts_issued == len(events)
        assert 0 < len(calls) == scalar < len(events) // 20
        assert flipping and flip_fields(flipping) == flip_fields(
            fast.bit_flips
        )
        assert flip_fields(fast.bit_flips) == flip_fields(
            reference.bit_flips
        )


class TestBlockedBankRegime:
    """A bank still refreshing after an NRR is a saturated-regime start:
    its next ACT issues at ``busy_until`` and vector-commits."""

    @pytest.mark.parametrize("track_faults", [False, True])
    def test_first_act_after_an_nrr_vector_commits(
        self, track_faults, monkeypatch
    ):
        """PARA at p = 0.5 on S3 issues an NRR every few ACTs.  Both
        engines agree byte for byte, and the blocked regime replays
        fewer ACTs scalar than the same run that only starts a chain
        on a bank past its NRR."""
        from repro.core import fastpath
        from repro.workloads.synthetic import s3_rows, synthetic_array

        trace = synthetic_array(s3_rows(target=500), duration_ns=2e5)
        kwargs = dict(
            scheme="para", workload="S3", banks=1, hammer_threshold=2000,
            track_faults=track_faults,
        )
        reference = simulate(trace, para_factory(0.5, seed=3), **kwargs)
        assert reference.victim_refresh_directives > 50
        steps = []
        original_step = fastpath._LaneEngine._scalar_step

        def counted(self, *args):
            steps.append(args[2])
            return original_step(self, *args)

        monkeypatch.setattr(fastpath._LaneEngine, "_scalar_step", counted)

        def scalar_replays():
            steps.clear()
            fast = simulate(
                trace, para_factory(0.5, seed=3), fast=True, **kwargs
            )
            assert fast.to_dict() == reference.to_dict()
            return len(steps)

        blocked = scalar_replays()
        original_regime = fastpath._issue_regime

        def without_blocked(bank_model, t0):
            bank = bank_model.bank
            if bank._busy_until_ns > bank._next_act_ns:
                return None
            return original_regime(bank_model, t0)

        monkeypatch.setattr(fastpath, "_issue_regime", without_blocked)
        unblocked = scalar_replays()
        # PARA's RNG hits replay scalar either way; without the blocked
        # regime an NRR also costs the next ACT a failed vector attempt
        # and a scalar replay.
        assert blocked < unblocked


#: The per-ACT event types; only an ``events``-level bus receives them.
_PER_ACT_EVENTS = {
    "TableInsert", "TableEvict", "SpilloverBump", "NrrEmit", "WindowReset",
    "SchedStall",
}


class TestMetricsLevelParity:
    """Under a ``metrics`` bus both engines publish the same registry."""

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_registry_matches_reference(self, scheme):
        from repro.telemetry import TelemetryBus, session
        from repro.verify.fastpath_check import without_fastpath

        trace = _round_robin_trace(acts_per_bank=1000)
        kwargs = dict(
            scheme=scheme,
            workload="rr8",
            banks=8,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
        )

        def run(fast: bool, chunk_events: int | None = None):
            bus = TelemetryBus(events=False)
            factory = _mitigation_factory(
                scheme, DEFAULT_SCALE.mitigation_trh
            )
            with session(bus):
                result = simulate(trace, factory, fast=fast,
                                  chunk_events=chunk_events, **kwargs)
            assert not {type(e).__name__ for e in bus.events} & (
                _PER_ACT_EVENTS
            )
            return result.to_dict(), bus.registry.snapshot()

        reference, ref_metrics = run(fast=False)
        assert ref_metrics["counters"]["sched.acts"] == len(trace)
        if scheme != "none":  # the unprotected baseline never stalls
            assert ref_metrics["counters"]["sched.delayed_acts"] > 0
        for chunk_events in (None, 1000):
            fast, fast_metrics = run(True, chunk_events)
            assert fast == reference
            assert without_fastpath(fast_metrics) == ref_metrics
            counters = fast_metrics["counters"]
            assert counters["fastpath.chunks"] == (
                1 if chunk_events is None else len(trace) // chunk_events
            )
            name = f"fastpath.{_fastpath_label(counters)}"
            assert (
                counters[f"{name}.vector_acts"]
                + counters[f"{name}.scalar_acts"]
            ) == len(trace)


def _fastpath_label(counters) -> str:
    """The scheme label of a fast run's ``fastpath.<scheme>.*`` keys."""
    (label,) = {
        name.split(".")[1]
        for name in counters
        if name.endswith(".vector_acts")
    }
    return label


@pytest.fixture
def mrloc_without_kernel(monkeypatch):
    """MRLoc with its kernel unregistered: a capability-matrix scheme
    that falls back to the reference loop."""
    from repro.core import fastpath
    from repro.mitigations.mrloc import MRLoc

    kernel_schemes()  # load the built-in registrations first
    monkeypatch.delitem(fastpath._KERNEL_REGISTRY, MRLoc)


class TestRunnerFallbackNotes:
    """`experiment --fast` job summaries name silent fallbacks."""

    def test_fast_job_without_kernel_gets_note(self, mrloc_without_kernel):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["capability", "mrloc"],
            scheme="mrloc",
            workload="probe",
            duration_ns=1e6,
            engine="fast",
        )
        note = ExperimentRunner._job_note(job)
        assert "fell back" in note and "mrloc" in note

    def test_fast_job_with_kernel_gets_no_note(self):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["scaling", "para"],
            scheme="para",
            workload="probe",
            duration_ns=1e6,
            engine="fast",
        )
        assert ExperimentRunner._job_note(job) == ""

    def test_reference_job_gets_no_note(self, mrloc_without_kernel):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["capability", "mrloc"],
            scheme="mrloc",
            workload="probe",
            duration_ns=1e6,
            engine="reference",
        )
        assert ExperimentRunner._job_note(job) == ""

    def test_notes_surface_in_breakdown(self):
        from repro.experiments.runner import JobRecord, RunnerStats

        stats = RunnerStats()
        stats.records.append(
            JobRecord(label="a/mrloc", seconds=1.0, source="computed",
                      note="fast engine fell back to the reference loop: "
                           "no batched kernel for scheme 'mrloc'")
        )
        lines = stats.breakdown()
        assert any("fell back" in line for line in lines)


class TestFastControllerDirectiveLog:
    def test_directive_log_matches_reference(self):
        from repro.controller.mc import MemoryController

        trace = _interleaved_trace(banks=2, acts_per_bank=3000)
        factory = graphene_factory(GrapheneConfig(hammer_threshold=2000))

        ref_device = build_device(banks=2, hammer_threshold=2000,
                                  track_faults=False)
        reference = MemoryController(ref_device, factory,
                                     keep_directive_log=True)
        reference.run(iter(trace.to_events()))

        fast_device = build_device(banks=2, hammer_threshold=2000,
                                   track_faults=False)
        fast = build_fast_controller(fast_device, factory,
                                     keep_directive_log=True)
        fast.run(TraceArray.from_events(trace))

        assert reference.directive_log, "test has no teeth"
        assert fast.directive_log == reference.directive_log
        assert fast.latency_summary() == reference.latency_summary()
