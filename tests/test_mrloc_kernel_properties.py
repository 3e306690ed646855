"""MRLoc's fast kernel against its reference engine.

The kernel is driven the way the fast controller drives it: offer the
remaining run to ``commit_run`` (never past the next REF tick), take
back the directives of the ACT it stopped after, replay the ACT at
each REF boundary through the scalar path, and repeat.  A twin
reference engine takes the same events one ``on_activate`` at a time;
the two must agree on every directive, on ``reference_state`` (queue
contents, generator state, hit and miss counts) and on stats after
every step.  Tiny banks (8 rows), one-to-four-entry queues and refresh
probabilities up to 1 make the special cases common: queue hits at
every position, evictions from a full queue, edge rows with a single
victim, and directives on most ACTs.  Each property also asserts that
``commit_run`` itself committed ACTs and returned directives, so it
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

from repro.core.fast_kernels import FastMrlocKernel, reference_state
from repro.core.fastpath import kernel_for
from repro.mitigations import mrloc_factory
from repro.mitigations.mrloc import MRLoc
from repro.sim.simulator import simulate
from repro.workloads import ActEvent

_ROWS = 8


def _drive(kernel, reference, times, rows, ref_every):
    """Controller-style drive; checks state after every step and
    returns ``(ACTs committed, commits that returned directives)``."""
    committed = directed = 0
    index = 0
    n = len(rows)
    while index < n:
        if ref_every and index % ref_every == 0:
            at = float(times[index])
            assert kernel.on_refresh_command(at) == (
                reference.on_refresh_command(at)
            )
            # The ACT a REF tick lands on replays scalar.
            row = int(rows[index])
            expected = reference.on_activate(row, at)
            assert kernel.on_activate(row, at) == expected
            index += 1
        stop = n
        if ref_every:
            # A REF tick is a blocking event: it never falls in a batch.
            stop = min(stop, (index // ref_every + 1) * ref_every)
        if stop > index:
            consumed, directives = kernel.commit_run(
                times[index:stop], rows[index:stop]
            )
            assert 0 < consumed <= stop - index
            expected = []
            for k in range(index, index + consumed):
                expected = reference.on_activate(int(rows[k]), float(times[k]))
                if k < index + consumed - 1:
                    # Only the last committed ACT may emit directives.
                    assert expected == []
            assert directives == expected
            committed += consumed
            directed += bool(directives)
            index += consumed
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.stats == reference.stats
    return committed, directed


@st.composite
def _runs(draw, max_size=200):
    """Rows over an 8-row bank (edges over-weighted), nondecreasing
    times and a REF cadence (0 = none)."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    row = st.one_of(
        st.integers(min_value=0, max_value=_ROWS - 1),
        st.sampled_from((0, _ROWS - 1)),
    )
    rows = draw(st.lists(row, min_size=n, max_size=n))
    gaps = draw(st.lists(
        st.sampled_from((0.0, 45.0, 3_000.0)), min_size=n, max_size=n,
    ))
    ref_every = draw(st.sampled_from((0, 7, 40)))
    return (
        np.cumsum(np.asarray(gaps)),
        np.asarray(rows, dtype=np.int64),
        ref_every,
    )


_PROBABILITIES = st.sampled_from((0.0, 0.02, 0.3, 1.0))
_BOOSTS = st.sampled_from((1.0, 2.5, 8.0))
_QUEUES = st.integers(min_value=1, max_value=4)


class TestMrlocKernel:
    def test_matches_reference_and_commits_directives(self):
        """Random runs: same directives, queue, generator state, hit and
        miss counts and stats as the scalar loop after every step, and
        ``commit_run`` itself both commits ACTs and returns
        directives."""
        totals = []

        @settings(max_examples=200, deadline=None)
        @given(run=_runs(), p=_PROBABILITIES, queue=_QUEUES, boost=_BOOSTS)
        def check(run, p, queue, boost):
            times, rows, ref_every = run

            def make():
                return MRLoc(
                    0, _ROWS, base_probability=p, queue_size=queue,
                    locality_boost=boost, seed=5,
                )

            kernel = kernel_for(make())
            assert isinstance(kernel, FastMrlocKernel)
            totals.append(_drive(kernel, make(), times, rows, ref_every))

        check()
        assert sum(committed for committed, _ in totals) > 0
        assert sum(directed for _, directed in totals) > 0, (
            "commit_run never returned a directive itself"
        )

    def test_stops_after_the_first_directive(self):
        """At p = 1 a miss refreshes with p/2 and a hit with 1, so the
        second ACT on a row refreshes both victims at the latest.  The
        run stops after the first ACT with directives, which come back
        anchored at its own time."""
        make = lambda: MRLoc(0, _ROWS, base_probability=1.0, seed=5)  # noqa: E731
        kernel, reference = kernel_for(make()), make()
        times = np.asarray([10.0, 20.0, 30.0, 40.0])
        consumed, directives = kernel.commit_run(times, np.full(4, 3))
        expected = []
        for at in times.tolist():
            expected = reference.on_activate(3, at)
            if expected:
                break
        assert consumed in (1, 2)
        assert directives == expected
        assert {d.time_ns for d in directives} == {times[consumed - 1]}
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.stats == reference.stats

    def test_edge_rows_take_a_single_draw(self):
        """An edge row has one victim, so one draw; a run with no
        successful draw commits whole and leaves the generator where
        the scalar loop leaves it."""
        make = lambda: MRLoc(0, _ROWS, base_probability=0.0, seed=5)  # noqa: E731
        kernel, reference = kernel_for(make()), make()
        rows = np.asarray([0, _ROWS - 1] * 20)
        consumed, directives = kernel.commit_run(np.zeros(len(rows)), rows)
        assert (consumed, directives) == (len(rows), [])
        for row in rows.tolist():
            reference.on_activate(row, 0.0)
        assert reference_state(kernel.mitigation) == reference_state(reference)
        assert kernel.mitigation.queue_contents == (1, _ROWS - 2)
        assert kernel.mitigation.queue_hits == 38


def _stream(rows, gaps, banks):
    events, time_ns = [], 0.0
    for index, (row, gap) in enumerate(zip(rows, gaps)):
        time_ns += gap
        events.append(ActEvent(time_ns, index % banks, row))
    return events


class TestBothEngines:
    @staticmethod
    def _run(events, factory_kwargs, banks, track_faults):
        kwargs = dict(
            scheme="mrloc", workload="mrloc", banks=banks,
            rows_per_bank=_ROWS, hammer_threshold=60,
            track_faults=track_faults,
        )
        engines = {}

        def factory(fast):
            build = mrloc_factory(seed=9, **factory_kwargs)

            def recording(bank, rows):
                engines[fast, bank] = build(bank, rows)
                return engines[fast, bank]

            return recording

        reference = simulate(events, factory(False), fast=False, **kwargs)
        fast = simulate(events, factory(True), fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        for bank in range(banks):
            assert reference_state(engines[True, bank]) == (
                reference_state(engines[False, bank])
            )
        return reference

    def test_random_streams_match_and_commit_directives(self, monkeypatch):
        """Hypothesis streams over two tiny banks through ``simulate``
        on both engines, faults on and off: byte-identical results and
        engine state, with directives coming out of ``commit_run``."""
        returned = []
        original = FastMrlocKernel.commit_run

        def counting(self, times, rows):
            consumed, directives = original(self, times, rows)
            returned.append(len(directives))
            return consumed, directives

        monkeypatch.setattr(FastMrlocKernel, "commit_run", counting)

        @settings(max_examples=60, deadline=None)
        @given(
            # Each bank's lane needs a few ACTs for a vector attempt.
            rows=st.lists(
                st.integers(min_value=0, max_value=_ROWS - 1),
                min_size=40, max_size=300,
            ),
            gap=st.sampled_from((0.0, 20.0, 60.0, 2_000.0)),
            p=_PROBABILITIES,
            queue=_QUEUES,
            boost=_BOOSTS,
            track_faults=st.booleans(),
        )
        def check(rows, gap, p, queue, boost, track_faults):
            events = _stream(rows, [gap] * len(rows), banks=2)
            self._run(
                events,
                dict(base_probability=p, queue_size=queue,
                     locality_boost=boost),
                banks=2, track_faults=track_faults,
            )

        check()
        assert sum(returned) > 0, "commit_run never returned a directive"

    def test_end_to_end_hammer_with_faults(self):
        """A saturated double-sided hammer: directives on both engines,
        and bit flips once the dice let a victim through."""
        rows = [2, 4] * 1500
        events = _stream(rows, [30.0] * len(rows), banks=1)
        reference = self._run(
            events, dict(base_probability=0.001, queue_size=2), banks=1,
            track_faults=True,
        )
        assert reference.victim_rows_refreshed > 0
        assert reference.bit_flips > 0
