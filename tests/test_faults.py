"""Tests for the Row Hammer fault model (the referee)."""

from __future__ import annotations

import copy
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.faults import BitFlip, CouplingProfile, HammerFaultModel


class TestCouplingProfile:
    def test_adjacent_only(self):
        profile = CouplingProfile.adjacent_only()
        assert profile.mu(1) == 1.0
        assert profile.mu(2) == 0.0
        assert profile.amplification_factor == 1.0

    def test_inverse_square(self):
        profile = CouplingProfile.inverse_square(3)
        assert profile.mu(1) == 1.0
        assert profile.mu(2) == pytest.approx(0.25)
        assert profile.mu(3) == pytest.approx(1 / 9)
        assert profile.amplification_factor == pytest.approx(1 + 0.25 + 1 / 9)

    def test_uniform(self):
        profile = CouplingProfile.uniform(4)
        assert profile.amplification_factor == 4.0

    def test_mu1_must_be_one(self):
        with pytest.raises(ValueError):
            CouplingProfile(blast_radius=1, coefficients=(0.5,))

    def test_coefficients_must_not_increase(self):
        with pytest.raises(ValueError):
            CouplingProfile(blast_radius=2, coefficients=(1.0, 1.5))

    def test_coefficient_count_must_match_radius(self):
        with pytest.raises(ValueError):
            CouplingProfile(blast_radius=2, coefficients=(1.0,))


class TestSingleSided:
    def test_flip_at_exactly_threshold(self):
        model = HammerFaultModel(threshold=100, rows=16)
        flips = []
        for i in range(100):
            flips.extend(model.on_activate(8, float(i)))
        assert len(flips) == 2  # both neighbors reach 100 together
        assert {f.row for f in flips} == {7, 9}
        assert flips[0].triggering_aggressor == 8

    def test_no_flip_below_threshold(self):
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(99):
            assert model.on_activate(8, float(i)) == []
        assert model.flip_count == 0
        assert model.max_disturbance == 99

    def test_refresh_resets_accumulation(self):
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(60):
            model.on_activate(8, float(i))
        model.on_refresh(7)
        for i in range(60):
            model.on_activate(8, float(i + 60))
        # Row 7 was refreshed at 60: accumulated only 60 < 100.
        # Row 9 was not: 120 >= 100 -> flipped.
        assert {f.row for f in model.flips} == {9}
        assert model.disturbance_of(7) == 60


class TestDoubleSided:
    def test_two_aggressors_halve_the_budget(self):
        """The Inequality-2 worst case: T_RH/2 ACTs per side flips."""
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(50):
            model.on_activate(7, float(2 * i))
            model.on_activate(9, float(2 * i + 1))
        assert any(f.row == 8 for f in model.flips)

    def test_edge_rows_have_single_neighbor(self):
        model = HammerFaultModel(threshold=10, rows=4)
        for i in range(10):
            model.on_activate(0, float(i))
        assert {f.row for f in model.flips} == {1}


class TestNonAdjacent:
    def test_distance_two_disturbance(self):
        model = HammerFaultModel(
            threshold=10, rows=32, coupling=CouplingProfile.inverse_square(2)
        )
        for i in range(8):
            model.on_activate(16, float(i))
        assert model.disturbance_of(15) == 8
        assert model.disturbance_of(14) == pytest.approx(8 * 0.25)
        assert model.disturbance_of(13) == 0.0

    def test_distance_weighted_flip(self):
        model = HammerFaultModel(
            threshold=10, rows=32, coupling=CouplingProfile.uniform(2)
        )
        for i in range(10):
            model.on_activate(16, float(i))
        assert {f.row for f in model.flips} == {14, 15, 17, 18}


class TestBookkeeping:
    def test_flip_once_semantics(self):
        model = HammerFaultModel(threshold=5, rows=8, flip_once=True)
        for i in range(25):
            model.on_activate(4, float(i))
        assert sum(1 for f in model.flips if f.row == 3) == 1

    def test_flip_repeatedly_when_disabled(self):
        model = HammerFaultModel(threshold=5, rows=8, flip_once=False)
        for i in range(25):
            model.on_activate(4, float(i))
        assert sum(1 for f in model.flips if f.row == 3) == 5

    def test_rows_above_fraction(self):
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(80):
            model.on_activate(8, float(i))
        assert model.rows_above(0.5) == [7, 9]
        assert model.rows_above(0.9) == []
        with pytest.raises(ValueError):
            model.rows_above(1.5)

    def test_headroom(self):
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(30):
            model.on_activate(8, float(i))
        assert model.headroom() == 70

    def test_reset(self):
        model = HammerFaultModel(threshold=5, rows=8)
        for i in range(10):
            model.on_activate(4, float(i))
        model.reset()
        assert model.flip_count == 0
        assert model.max_disturbance == 0.0
        assert model.activations == 0

    def test_row_range_validation(self):
        model = HammerFaultModel(threshold=5, rows=8)
        with pytest.raises(IndexError):
            model.on_activate(8, 0.0)
        with pytest.raises(IndexError):
            model.on_refresh(-1)


class TestConservationProperty:
    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(min_value=0, max_value=15)
            ),
            max_size=400,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_disturbance_never_negative_and_bounded(self, events):
        """Each victim's accumulator equals mu-weighted aggressor ACTs
        since its last refresh -- never negative, never above threshold
        while unflipped."""
        model = HammerFaultModel(threshold=50, rows=16)
        for is_refresh, row in events:
            if is_refresh:
                model.on_refresh(row)
            else:
                model.on_activate(row, 0.0)
            for victim in range(16):
                disturbance = model.disturbance_of(victim)
                assert disturbance >= 0
                assert disturbance < 50  # at threshold it flips & clears


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _referee_state(model: HammerFaultModel) -> tuple:
    """Everything the batched referee may touch, floats as raw bits."""
    return (
        [(row, _float_bits(v)) for row, v in model._disturbance.items()],
        sorted(model._flipped),
        [
            (f.bank, f.row, f.time_ns, _float_bits(f.disturbance),
             f.triggering_aggressor)
            for f in model.flips
        ],
        model.activations,
    )


_COUPLINGS = (
    CouplingProfile.adjacent_only(),
    CouplingProfile.inverse_square(3),
    CouplingProfile.uniform(2),
)


class TestBatchedReferee:
    """``HammerFaultModel.batch`` against the per-ACT ``on_activate``
    loop it replaces on the fast engine's vector path."""

    @given(
        rows=st.sampled_from((2, 5, 16)),
        coupling=st.sampled_from(_COUPLINGS),
        flip_once=st.booleans(),
        # The small thresholds walk the run for the cut; at 100.0 no run
        # can flip, and short histories skip the walk by the bound on
        # the largest accumulator.
        threshold=st.sampled_from((2.0, 3.5, 7.0, 12.0, 100.0)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_cut_then_commit_matches_the_scalar_loop(
        self, rows, coupling, flip_once, threshold, data
    ):
        """Seed the referee with a scalar history (refreshes, flipped
        victims), then plan a run: ``cut`` is the first ACT that flips,
        and committing any prefix up to it leaves the accumulators (key
        set, float bits, insertion order), flipped set, flips and
        activation count exactly where the scalar loop leaves them."""
        row = st.integers(min_value=0, max_value=rows - 1)
        model = HammerFaultModel(
            threshold, rows, coupling, flip_once=flip_once
        )
        history = data.draw(st.lists(
            st.tuples(st.booleans(), row), max_size=60,
        ))
        for is_refresh, target in history:
            if is_refresh:
                model.on_refresh(target)
            else:
                model.on_activate(target, 0.0)
        # Both bank edges appear in every run.
        run = data.draw(st.lists(row, min_size=1, max_size=60))
        run = [0, *run, rows - 1] if data.draw(st.booleans()) else run
        batched = copy.deepcopy(model)
        plan = batched.batch(np.asarray(run))

        cut = len(run)
        for index, target in enumerate(run):
            probe = copy.deepcopy(model)
            if probe.on_activate(target, 1.0):
                cut = index
                break
            model.on_activate(target, 1.0)
        assert plan.cut == cut

        consumed = data.draw(st.integers(min_value=0, max_value=cut))
        expected = copy.deepcopy(batched)
        for target in run[:consumed]:
            assert expected.on_activate(target, 1.0) == []
        plan.commit(consumed)
        assert _referee_state(batched) == _referee_state(expected)
        if consumed == cut < len(run):
            # The flipping ACT replays through the scalar entry point.
            assert batched.on_activate(run[cut], 1.0)

    def test_cut_at_exactly_threshold(self):
        model = HammerFaultModel(threshold=100, rows=16)
        for i in range(60):
            model.on_activate(8, float(i))
        plan = model.batch(np.full(50, 8))
        assert plan.cut == 39  # the 40th ACT brings rows 7 and 9 to 100
        plan.commit(39)
        assert model.disturbance_of(7) == 99.0
        assert model.activations == 99
        (flip, _) = model.on_activate(8, 99.0)
        assert flip.disturbance == 100.0

    def test_commit_past_the_cut_is_refused(self):
        model = HammerFaultModel(threshold=3, rows=8)
        plan = model.batch(np.asarray([4, 4, 4, 4]))
        assert plan.cut == 2
        with pytest.raises(ValueError):
            plan.commit(3)

    def test_flipped_victims_take_no_deposit(self):
        model = HammerFaultModel(threshold=2, rows=8, flip_once=True)
        model.on_activate(3, 0.0)
        assert len(model.on_activate(3, 0.0)) == 2
        plan = model.batch(np.asarray([3] * 10))
        assert plan.cut == 10
        plan.commit(10)
        assert model._disturbance == {}
        assert model.activations == 12
