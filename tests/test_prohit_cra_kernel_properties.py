"""PRoHIT's and CRA's fast kernels against their reference engines.

Each kernel is driven the way the fast controller drives it: offer the
remaining run to ``commit_run`` (never past the scheme's next blocking
boundary), replay the event it stopped before through the scalar path,
and repeat -- with REF ticks in between.  A twin reference engine takes
the same events one ``on_activate`` at a time, and the two must agree
on ``reference_state`` and stats after every step.  Tiny banks (16
rows), high sampling rates and one-to-four-entry counter caches make
the special cases common: edge rows with a single draw, cold-table
promotions that take an extra draw, cache misses with evictions, and
CRA's tREFW reset.  Each property also asserts that ``commit_run``
itself committed sampled victims (PRoHIT) or cache hits (CRA), so it
fails on a kernel that only ever hands events back to the scalar path.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.fast_kernels import (
    FastCraKernel,
    FastProhitKernel,
    reference_state,
)
from repro.core.fastpath import kernel_for
from repro.mitigations import cra_factory, prohit_factory
from repro.mitigations.cra import CRA
from repro.mitigations.prohit import PRoHIT
from repro.sim.simulator import simulate
from repro.verify.generators import VERIFY_TIMINGS
from repro.workloads import ActEvent

_ROWS = 16
#: The controller's margin below a scheme blocking boundary.
_MARGIN_NS = 1e-3
_WINDOW_NS = VERIFY_TIMINGS.trefw


def _drive(kernel, reference, times, rows, ref_every):
    """Controller-style drive; checks state after every step and
    returns how much ``commit_run`` committed."""
    committed = 0
    index = 0
    n = len(rows)
    while index < n:
        if ref_every and index % ref_every == 0:
            at = float(times[index])
            assert kernel.on_refresh_command(at) == (
                reference.on_refresh_command(at)
            )
        stop = int(np.searchsorted(
            times, kernel.next_blocking_ns() - _MARGIN_NS, side="left"
        ))
        if ref_every:
            # A REF tick is a blocking event: it never falls in a batch.
            stop = min(stop, (index // ref_every + 1) * ref_every)
        consumed = 0
        if stop > index:
            consumed, directives = kernel.commit_run(
                times[index:stop], rows[index:stop]
            )
            assert directives == []
            for k in range(index, index + consumed):
                row, at = int(rows[k]), float(times[k])
                assert reference.on_activate(row, at) == []
            committed += consumed
            index += consumed
        if index < n and (consumed == 0 or index < stop):
            row, at = int(rows[index]), float(times[index])
            expected = reference.on_activate(row, at)
            assert kernel.on_activate(row, at) == expected
            index += 1
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.stats == reference.stats
    return committed


@st.composite
def _runs(draw, max_size=200):
    """Rows over a 16-row bank (edges over-weighted), paced times that
    may jump a tREFW window, and a REF cadence (0 = none)."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    row = st.one_of(
        st.integers(min_value=0, max_value=_ROWS - 1),
        st.sampled_from((0, _ROWS - 1)),
    )
    rows = draw(st.lists(row, min_size=n, max_size=n))
    gaps = draw(st.lists(
        st.sampled_from((0.0, 45.0, 3_000.0)), min_size=n, max_size=n,
    ))
    jump_at = draw(st.integers(min_value=0, max_value=2 * n))
    times, time_ns = [], 0.0
    for i, gap in enumerate(gaps):
        time_ns += gap
        if i == jump_at:
            time_ns += _WINDOW_NS
        times.append(time_ns)
    ref_every = draw(st.sampled_from((0, 7, 40)))
    return np.asarray(times), np.asarray(rows, dtype=np.int64), ref_every


def _prohit(q, promotion, hot, cold):
    def make():
        return PRoHIT(
            0, _ROWS, insert_probability=q, hot_size=hot, cold_size=cold,
            promotion_probability=promotion, seed=11,
        )
    return make


def _cra(trh, entries):
    def make():
        return CRA(
            0, _ROWS, hammer_threshold=trh, cache_entries=entries,
            timings=VERIFY_TIMINGS,
        )
    return make


class TestProhitKernel:
    def test_matches_reference_and_commits_samples(self, monkeypatch):
        """Random runs at q up to 1: same tables, generator state and
        stats as the scalar loop after every step, and ``commit_run``
        itself sends sampled victims through ``_sample_victim``."""
        inside = []
        sampled = []
        original = FastProhitKernel.commit_run
        real_sample = PRoHIT._sample_victim

        def counting(self, times, rows):
            inside.append(True)
            try:
                return original(self, times, rows)
            finally:
                inside.pop()

        def sample_victim(self, victim):
            if inside:
                sampled.append(victim)
            return real_sample(self, victim)

        monkeypatch.setattr(FastProhitKernel, "commit_run", counting)
        monkeypatch.setattr(PRoHIT, "_sample_victim", sample_victim)
        committed = []

        @settings(max_examples=150, deadline=None)
        @given(
            run=_runs(),
            q=st.sampled_from((0.02, 0.3, 1.0)),
            promotion=st.sampled_from((1.0, 0.5, 0.0)),
            sizes=st.sampled_from(((1, 1), (2, 3), (4, 3))),
        )
        def check(run, q, promotion, sizes):
            times, rows, ref_every = run
            make = _prohit(q, promotion, *sizes)
            kernel = kernel_for(make())
            assert isinstance(kernel, FastProhitKernel)
            committed.append(_drive(kernel, make(), times, rows, ref_every))

        check()
        assert sum(committed) > 0
        assert sampled, "commit_run never sampled a victim itself"

    def test_edge_rows_take_a_single_draw(self):
        """An edge row has one neighbour, so one draw: a run of edge
        ACTs leaves the generator where the scalar loop leaves it."""
        make = _prohit(0.5, 1.0, 4, 3)
        kernel, reference = kernel_for(make()), make()
        rows = np.asarray([0, _ROWS - 1] * 20 + [5] * 4)
        consumed, _ = kernel.commit_run(np.zeros(len(rows)), rows)
        assert consumed == len(rows)
        for row in rows.tolist():
            reference.on_activate(row, 0.0)
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.mitigation.cold_table or kernel.mitigation.hot_table

    def test_cold_hit_cuts_when_promotion_is_probabilistic(self):
        """With ``promotion_probability < 1`` a cold-table hit draws
        again, so the batch stops before that ACT -- undoing samples
        already taken for the same ACT -- and the scalar path replays
        it."""
        make = _prohit(1.0, 0.5, 4, 3)
        kernel, reference = kernel_for(make()), make()
        # q = 1 samples every victim.  ACT 0 puts 4 and 6 into cold;
        # ACT 1 samples 2 (unseen), then finds 4 cold (the extra draw):
        # the batch stops before ACT 1 and takes 2 back out.
        rows = np.asarray([5, 3, 9])
        consumed, _ = kernel.commit_run(np.zeros(3), rows)
        assert consumed == 1
        reference.on_activate(5, 0.0)
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.mitigation.cold_table == (6, 4)
        kernel.on_activate(3, 0.0)
        reference.on_activate(3, 0.0)
        assert reference_state(kernel.mitigation) == reference_state(reference)

    def test_end_to_end_through_simulate(self):
        """Both engines, faults on, over a 2-bank stream."""
        events = [
            ActEvent(i * 30.0, i % 2, (0, 1, 2, _ROWS - 1)[i % 4])
            for i in range(3000)
        ]
        kwargs = dict(
            scheme="prohit", workload="edge", banks=2, rows_per_bank=_ROWS,
            hammer_threshold=200, track_faults=True,
        )
        engines = {}

        def factory(fast):
            build = prohit_factory(insert_probability=0.3, seed=3)

            def recording(bank, rows):
                engines[fast, bank] = build(bank, rows)
                return engines[fast, bank]

            return recording

        reference = simulate(events, factory(False), fast=False, **kwargs)
        fast = simulate(events, factory(True), fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        for bank in range(2):
            assert reference_state(engines[True, bank]) == (
                reference_state(engines[False, bank])
            )


class TestCraKernel:
    def test_matches_reference_and_commits_hits(self, monkeypatch):
        """Random runs over one-to-four-entry caches: misses, evictions,
        write-backs, triggers and window resets all replay scalar, and
        ``commit_run`` commits cache hits in between."""
        hits = []
        original = FastCraKernel.commit_run

        def counting(self, times, rows):
            before = self.mitigation.cache_hits
            result = original(self, times, rows)
            hits.append(self.mitigation.cache_hits - before)
            return result

        monkeypatch.setattr(FastCraKernel, "commit_run", counting)

        @settings(max_examples=150, deadline=None)
        @given(
            run=_runs(),
            trh=st.sampled_from((8, 20, 400)),
            entries=st.sampled_from((1, 2, 4)),
        )
        def check(run, trh, entries):
            times, rows, ref_every = run
            make = _cra(trh, entries)
            kernel = kernel_for(make())
            assert isinstance(kernel, FastCraKernel)
            _drive(kernel, make(), times, rows, ref_every)

        check()
        assert sum(hits) > 0

    def test_cut_before_miss_and_threshold(self):
        make = _cra(20, 2)  # act_threshold 5
        kernel, reference = kernel_for(make()), make()
        for row in (3, 4):
            kernel.on_activate(row, 0.0)
            reference.on_activate(row, 0.0)
        # Hits on 3 and 4, then 9 misses (evicting the LRU row).
        rows = np.asarray([3, 4, 3, 9, 3])
        consumed, _ = kernel.commit_run(np.zeros(5), rows)
        assert consumed == 3
        for row in rows[:3].tolist():
            reference.on_activate(row, 0.0)
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert list(kernel.mitigation._cache) == [4, 3]
        # Row 3 holds 3: its second next occurrence reaches 5.
        consumed, _ = kernel.commit_run(np.zeros(3), np.asarray([3, 4, 3]))
        assert consumed == 2

    def test_window_edge_between_commits(self):
        """The tREFW edge is a blocking boundary: a commit never spans
        it, and the scalar ACT past it resets both tables."""
        make = _cra(400, 4)
        kernel, reference = kernel_for(make()), make()
        for engine in (kernel, reference):
            engine.on_activate(3, 0.0)
        assert kernel.next_blocking_ns() == _WINDOW_NS
        rows = np.asarray([3] * 10)
        times = np.linspace(1.0, _WINDOW_NS - 1.0, 10)
        assert kernel.commit_run(times, rows)[0] == 10
        for t in times.tolist():
            reference.on_activate(3, t)
        kernel.on_activate(3, _WINDOW_NS + 5.0)
        reference.on_activate(3, _WINDOW_NS + 5.0)
        assert kernel.next_blocking_ns() == 2 * _WINDOW_NS
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.mitigation._cache == {3: 1}

    def test_end_to_end_through_simulate(self):
        events = [
            ActEvent(i * 50.0, 0, (2, 4, 2, 6, 9, 2)[i % 6])
            for i in range(4000)
        ]
        kwargs = dict(
            scheme="cra", workload="mixed", banks=1, rows_per_bank=_ROWS,
            hammer_threshold=200, track_faults=True,
        )
        engines = {}

        def factory(fast):
            build = cra_factory(40, cache_entries=2)

            def recording(bank, rows):
                engines[fast] = build(bank, rows)
                return engines[fast]

            return recording

        reference = simulate(events, factory(False), fast=False, **kwargs)
        fast = simulate(events, factory(True), fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        assert reference_state(engines[True]) == reference_state(engines[False])
        assert engines[True].cache_misses > 0
