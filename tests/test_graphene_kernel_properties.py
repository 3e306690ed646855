"""Graphene's fast kernel against the reference engine on tiny tables.

The kernel's ``commit_run`` consumes table misses as well as hits: an
exact Misra-Gries loop inserts into free slots, evicts the smallest
key of the spillover bucket (read from a sorted snapshot per epoch)
and bumps the spillover count, truncating only before an ACT whose new
count lands on a multiple of ``T``.  Tiny configurations -- T_RH 24
gives ``T = 4`` and ``N = 35``, T_RH 250 gives ``T = 41`` and ``N = 3``
at the verify timings -- make evictions, spillover bumps and
threshold crossings the common case, so Hypothesis streams hit every
branch.  The deterministic cases pin the snapshot's three hazards: a
queued evictable key that is hit first, a key evicted and re-inserted
in one epoch, and a window reset between two commits.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.config import GrapheneConfig
from repro.core.fast_kernels import FastGrapheneKernel, reference_table_state
from repro.core.fastpath import kernel_for
from repro.dram.timing import DDR4_2400
from repro.mitigations import graphene_factory
from repro.mitigations.graphene import GrapheneMitigation
from repro.sim.simulator import simulate
from repro.verify.generators import VERIFY_TIMINGS
from repro.workloads import ActEvent

#: T_RH values whose derived (T, N) at the verify timings and k = 2
#: run from (4, 35) to (66, 2).
_THRESHOLDS = (24, 50, 100, 250, 400)

#: Saturated (queued behind tRC), back-to-back and idle gaps.
_GAPS = st.sampled_from((DDR4_2400.trc / 2, DDR4_2400.trc, 3 * DDR4_2400.trc))


def _config(hammer_threshold: int) -> GrapheneConfig:
    return GrapheneConfig(
        hammer_threshold=hammer_threshold,
        timings=VERIFY_TIMINGS,
        rows_per_bank=64,
        reset_window_divisor=2,
    )


@st.composite
def _act_streams(draw):
    """Paced ACT stream over rows 0-15 on one or two banks, optionally
    jumping one reset window midway."""
    banks = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=8, max_value=240))
    rows = draw(st.lists(
        st.integers(min_value=0, max_value=15), min_size=n, max_size=n
    ))
    bank_of = draw(st.lists(
        st.integers(min_value=0, max_value=banks - 1), min_size=n,
        max_size=n,
    ))
    gaps = draw(st.lists(_GAPS, min_size=n, max_size=n))
    jump_at = draw(st.integers(min_value=0, max_value=2 * n))
    window = _config(_THRESHOLDS[0]).reset_window_ns
    events, time_ns = [], 0.0
    for i, (row, bank, gap) in enumerate(zip(rows, bank_of, gaps)):
        time_ns += gap
        if i == jump_at:
            time_ns += window
        events.append(ActEvent(time_ns, bank, row))
    return banks, events


class TestFastKernelAgainstReference:
    def test_tiny_graphene_fast_path_matches_reference(self, monkeypatch):
        """Every stream gives the same result, table state and
        ``GrapheneStats`` on both engines, and the batched miss path
        runs: ``commit_run`` commits insertions, evictions or spillover
        bumps, not only hits."""
        misses = []
        original = FastGrapheneKernel.commit_run

        def counting(self, times, rows):
            stats = self.mitigation.engine.stats
            before = stats.table_insertions + stats.spillover_increments
            result = original(self, times, rows)
            misses.append(
                stats.table_insertions + stats.spillover_increments - before
            )
            return result

        monkeypatch.setattr(FastGrapheneKernel, "commit_run", counting)

        @settings(max_examples=150, deadline=None)
        @given(
            stream=_act_streams(),
            hammer_threshold=st.sampled_from(_THRESHOLDS),
        )
        def check(stream, hammer_threshold):
            banks, events = stream
            engines = {}

            def factory(fast):
                build = graphene_factory(_config(hammer_threshold))

                def recording(bank, rows):
                    engine = build(bank, rows)
                    engines[fast, bank] = engine
                    return engine

                return recording

            kwargs = dict(
                scheme="graphene", workload="tiny", banks=banks,
                rows_per_bank=64, track_faults=False,
            )
            reference = simulate(events, factory(False), fast=False, **kwargs)
            fast = simulate(events, factory(True), fast=True, **kwargs)
            assert fast.to_dict() == reference.to_dict()
            for bank in range(banks):
                ref_engine = engines[False, bank]
                fast_engine = engines[True, bank]
                assert reference_table_state(fast_engine) == (
                    reference_table_state(ref_engine)
                )
                assert fast_engine.engine.stats == ref_engine.engine.stats
                fast_engine.engine.table.check_invariants()

        check()
        assert sum(misses) > 0


def _pair(hammer_threshold: int = 250):
    """Reference engine and kernel at T_RH 250: ``T = 41``, ``N = 3``."""
    config = _config(hammer_threshold)
    reference = GrapheneMitigation(0, 64, config)
    kernel = kernel_for(GrapheneMitigation(0, 64, config))
    return reference, kernel


def _commit(kernel, rows, time_ns=0.0) -> int:
    consumed, directives = kernel.commit_run(
        np.full(len(rows), time_ns), np.asarray(rows)
    )
    assert directives == []
    return consumed


def _assert_same(reference, kernel) -> None:
    assert reference_table_state(kernel.mitigation) == (
        reference_table_state(reference)
    )
    assert kernel.mitigation.engine.stats == reference.engine.stats
    assert kernel.stats == reference.stats
    table = kernel.mitigation.engine.table
    assert table.last_evicted == reference.engine.table.last_evicted
    table.check_invariants()


class TestEvictionSnapshot:
    """``N = 3``: after rows 10, 20, 30 and a miss on 63 bumps the
    spillover, all three sit in the spillover bucket (count 1) and
    evict in key order."""

    def test_evictable_key_hit_before_its_turn(self):
        reference, kernel = _pair()
        # 41 evicts 10 (the snapshot is taken here); 20 is then hit out
        # of the bucket, so 42 must skip it and evict 30.
        rows = [10, 20, 30, 63, 41, 20, 42]
        assert _commit(kernel, rows) == len(rows)
        for row in rows:
            reference.on_activate(row, 0.0)
        _assert_same(reference, kernel)
        assert kernel.mitigation.engine.table.tracked() == {
            41: 2, 20: 2, 42: 2,
        }

    def test_key_evicted_and_reinserted_in_one_epoch(self):
        reference, kernel = _pair()
        # 10 is evicted by 41, comes back by evicting 20, and 50 takes
        # 30's slot; 61 then finds the count-1 bucket empty and bumps
        # the spillover, opening a new epoch in which 55 evicts 10.
        rows = [10, 20, 30, 63, 41, 10, 50, 61, 55]
        assert _commit(kernel, rows) == len(rows)
        for row in rows:
            reference.on_activate(row, 0.0)
        _assert_same(reference, kernel)
        table = kernel.mitigation.engine.table
        assert table.spillover == 2
        assert table.last_evicted == 10

    def test_window_reset_between_two_commits(self):
        reference, kernel = _pair()
        window = kernel.mitigation.engine._window_length_ns
        first = [10, 20, 30, 63, 41]
        assert _commit(kernel, first) == len(first)
        for row in first:
            reference.on_activate(row, 0.0)
        # The scalar path resets the table at the new window's first ACT.
        kernel.on_activate(5, window)
        reference.on_activate(5, window)
        # Same spillover as before the reset, fresh bucket: 7 must evict
        # 5, not chase the old window's snapshot.
        second = [6, 8, 63, 7]
        assert _commit(kernel, second, window) == len(second)
        for row in second:
            reference.on_activate(row, window)
        _assert_same(reference, kernel)
        assert kernel.mitigation.engine.table.last_evicted == 5

    def test_truncates_before_a_threshold_multiple(self):
        """A miss-path ACT whose carried count lands on ``T`` is held
        back for the scalar path, which emits the directive."""
        reference, kernel = _pair(hammer_threshold=24)  # T = 4, N = 35
        rows = [3, 3, 3, 5, 3, 7]
        assert _commit(kernel, rows) == 4
        for row in rows[:4]:
            reference.on_activate(row, 0.0)
        _assert_same(reference, kernel)
        assert kernel.on_activate(3, 0.0) == reference.on_activate(3, 0.0)
        assert kernel.stats.refresh_directives == 1
