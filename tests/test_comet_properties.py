"""Property suite for the count-min sketch primitive CoMeT builds on.

CoMeT's protection argument (docs/baselines.md) leans on exactly one
structural property of :class:`repro.core.trackers.CountMinSketch`:
**no undercount** -- after any stream, any seed, any geometry, the
sketch's estimate for an item is at least its true count.  If that
ever broke, a hot row could hide below the tracking threshold and the
deterministic gap bound would be gone.  The companion bound -- the
estimate never exceeds the *total* stream length (each hash row's
counter absorbs at most every observation) -- keeps the
over-approximation finite, so false-positive refreshes are a cost,
not an unbounded failure mode.

Hypothesis drives random streams, hash seeds and widths/depths through
both invariants plus the API contracts the CoMeT engine relies on
(``observe`` returning the post-increment estimate, ``reset`` zeroing
state, exact counts when the sketch is collision-free).  The last class
runs whole ACT streams through a tiny CoMeT on both engines, so the
fast kernel's batched sketch update is checked where collisions,
promotions and RAT evictions are the common case.
"""

from __future__ import annotations

from collections import Counter

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.fast_kernels import FastCometKernel, reference_state
from repro.core.trackers import CountMinSketch
from repro.dram.timing import DDR4_2400
from repro.mitigations.comet import comet_factory
from repro.sim.simulator import simulate
from repro.workloads import ActEvent

#: Small geometries force collisions, which is where undercounts would
#: hide if the min-of-rows logic were wrong.
_WIDTHS = st.integers(min_value=1, max_value=32)
_DEPTHS = st.integers(min_value=1, max_value=5)
_SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
_STREAMS = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=200
)


class TestNoUndercount:
    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAMS, width=_WIDTHS, depth=_DEPTHS, seed=_SEEDS)
    def test_estimate_is_at_least_the_true_count(
        self, stream, width, depth, seed
    ):
        sketch = CountMinSketch(width, depth=depth, seed=seed)
        for item in stream:
            sketch.observe(item)
        truth = Counter(stream)
        for item, count in truth.items():
            assert sketch.estimated_count(item) >= count

    @settings(max_examples=100, deadline=None)
    @given(stream=_STREAMS, width=_WIDTHS, depth=_DEPTHS, seed=_SEEDS)
    def test_observe_returns_running_no_undercount_estimates(
        self, stream, width, depth, seed
    ):
        """The value ``observe`` returns is the post-increment estimate
        -- CoMeT compares it against the threshold directly, so it must
        itself respect the no-undercount bound at every step."""
        sketch = CountMinSketch(width, depth=depth, seed=seed)
        running = Counter()
        for item in stream:
            running[item] += 1
            estimate = sketch.observe(item)
            assert estimate >= running[item]
            assert estimate == sketch.estimated_count(item)


class TestBoundedOvercount:
    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAMS, width=_WIDTHS, depth=_DEPTHS, seed=_SEEDS)
    def test_estimate_never_exceeds_the_stream_length(
        self, stream, width, depth, seed
    ):
        """Each hash row adds exactly one count per observation, so no
        cell -- hence no min-over-rows estimate -- can exceed the total
        number of observations."""
        sketch = CountMinSketch(width, depth=depth, seed=seed)
        for item in stream:
            sketch.observe(item)
        for item in set(stream):
            assert sketch.estimated_count(item) <= len(stream)

    @settings(max_examples=100, deadline=None)
    @given(stream=_STREAMS, depth=_DEPTHS, seed=_SEEDS)
    def test_wide_sketch_without_collisions_is_exact(
        self, stream, depth, seed
    ):
        """With one hash row per possible item value and no observed
        collisions, estimates must be *exact* -- over-approximation
        only ever comes from collisions, nothing else."""
        sketch = CountMinSketch(width=4096, depth=depth, seed=seed)
        for item in stream:
            sketch.observe(item)
        truth = Counter(stream)
        occupied = (sketch._table[0] > 0).sum()
        if occupied != len(truth):  # row-0 collision: bound still holds
            for item, count in truth.items():
                assert sketch.estimated_count(item) >= count
            return
        for item, count in truth.items():
            assert sketch.estimated_count(item) == count


class TestApiContracts:
    @settings(max_examples=50, deadline=None)
    @given(stream=_STREAMS, width=_WIDTHS, depth=_DEPTHS, seed=_SEEDS)
    def test_reset_zeroes_everything(self, stream, width, depth, seed):
        sketch = CountMinSketch(width, depth=depth, seed=seed)
        for item in stream:
            sketch.observe(item)
        sketch.reset()
        assert sketch.observations == 0
        assert not sketch._table.any()
        for item in set(stream):
            assert sketch.estimated_count(item) == 0

    @settings(max_examples=50, deadline=None)
    @given(stream=_STREAMS, width=_WIDTHS, depth=_DEPTHS, seed=_SEEDS)
    def test_same_seed_is_deterministic(self, stream, width, depth, seed):
        first = CountMinSketch(width, depth=depth, seed=seed)
        second = CountMinSketch(width, depth=depth, seed=seed)
        for item in stream:
            assert first.observe(item) == second.observe(item)

    def test_geometry_validation_and_table_bits(self):
        with pytest.raises(ValueError):
            CountMinSketch(0)
        with pytest.raises(ValueError):
            CountMinSketch(4, depth=0)
        assert CountMinSketch(512, depth=4).table_bits == 512 * 4 * 32


#: Gap choices between consecutive ACTs: saturated (queued behind tRC),
#: back-to-back, and idle -- so both vector regimes and REF ticks occur.
_GAPS = st.sampled_from((DDR4_2400.trc / 2, DDR4_2400.trc, 3 * DDR4_2400.trc))


@st.composite
def _act_streams(draw):
    """Paced ACT stream over a small row alphabet on one or two banks,
    optionally jumping one reset window midway."""
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
    events, time_ns = [], 0.0
    for i, (row, bank, gap) in enumerate(zip(rows, bank_of, gaps)):
        time_ns += gap
        if i == jump_at:
            time_ns += DDR4_2400.trefw / 2  # one CoMeT reset window
        events.append(ActEvent(time_ns, bank, row))
    return banks, events


class TestFastKernelAgainstReference:
    def test_tiny_comet_fast_path_matches_reference(self, monkeypatch):
        """Width 1-8 / depth 1-4 sketches with a small T and 2-4 RAT
        entries force cell collisions, promotions and evictions; every
        stream must give the same result and per-bank tracking state on
        both engines.  The batched sketch path must actually run: some
        sketch-path ACTs are committed by ``commit_run``."""
        committed = []
        original = FastCometKernel.commit_run

        def counting(self, times, rows):
            before = self.mitigation.sketch.observations
            result = original(self, times, rows)
            committed.append(self.mitigation.sketch.observations - before)
            return result

        monkeypatch.setattr(FastCometKernel, "commit_run", counting)

        @settings(max_examples=150, deadline=None)
        @given(
            stream=_act_streams(),
            width=st.integers(min_value=1, max_value=8),
            depth=st.integers(min_value=1, max_value=4),
            threshold=st.integers(min_value=2, max_value=12),
            rat_entries=st.integers(min_value=2, max_value=4),
            seed=_SEEDS,
        )
        def check(stream, width, depth, threshold, rat_entries, seed):
            banks, events = stream
            engines = {}

            def factory(fast):
                # T = T_RH / (2 (k + 1)) at the factory's k = 2.
                build = comet_factory(
                    6 * threshold, width=width, depth=depth,
                    rat_entries=rat_entries, seed=seed,
                )

                def recording(bank, rows):
                    engine = build(bank, rows)
                    engines[fast, bank] = engine
                    return engine

                return recording

            kwargs = dict(
                scheme="comet", workload="tiny", banks=banks,
                rows_per_bank=64, track_faults=False,
            )
            reference = simulate(events, factory(False), fast=False, **kwargs)
            fast = simulate(events, factory(True), fast=True, **kwargs)
            assert fast.to_dict() == reference.to_dict()
            for bank in range(banks):
                assert reference_state(engines[True, bank]) == (
                    reference_state(engines[False, bank])
                )

        check()
        assert sum(committed) > 0
