"""Columnar trace layer: bit-exact twin of the iterator helpers.

The contract under test is *exact* floating-point equality between
:mod:`repro.workloads.columnar` and :mod:`repro.workloads.trace`: the
vectorized helpers must reproduce the scalar accumulator's float64
operation sequence, not merely land within an epsilon.  The pacing
cases are shared (parametrized) between the iterator-semantics tests
and the columnar-equality tests so both worlds are pinned by the same
inputs -- including tRFC blackout straddles, nonzero start offsets and
multi-window spans.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.dram.timing import DDR4_2400
from repro.verify.generators import VERIFY_TIMINGS
from repro.workloads import (
    ActEvent,
    TraceArray,
    collect_stats,
    collect_stats_array,
    merge_arrays,
    merge_streams,
    pace,
    pace_array,
    read_trace,
    write_trace,
)

# ----------------------------------------------------------------------
# Shared pacing cases: (id, rows, interval_ns, start_ns, timings, gaps)
# ----------------------------------------------------------------------

PACE_CASES = [
    pytest.param(
        [5] * 500, DDR4_2400.trc, 0.0, DDR4_2400, True,
        id="max-rate-through-blackouts",
    ),
    pytest.param(
        [49, 51] * 300, DDR4_2400.trc, 0.0, DDR4_2400, True,
        id="double-sided-max-rate",
    ),
    pytest.param(
        list(range(64)) * 4, 100.0, 0.0, DDR4_2400, True,
        id="sweep-coarse-interval",
    ),
    pytest.param(
        [7] * 200, DDR4_2400.trc, DDR4_2400.trefi - DDR4_2400.trc,
        DDR4_2400, True,
        id="start-just-before-blackout",
    ),
    pytest.param(
        [9] * 100, 50.0, 12345.678, DDR4_2400, True,
        id="fractional-start-offset",
    ),
    pytest.param(
        [3] * 300, DDR4_2400.trc, 0.0, DDR4_2400, False,
        id="gaps-disabled",
    ),
    pytest.param(
        [11, 13] * 250, VERIFY_TIMINGS.trc, 0.0, VERIFY_TIMINGS, True,
        id="verify-timings-scale",
    ),
    pytest.param(
        [], DDR4_2400.trc, 0.0, DDR4_2400, True,
        id="empty",
    ),
]

# Event lists shared by the serialization and conversion round-trips.
ROUNDTRIP_CASES = [
    pytest.param([], id="empty"),
    pytest.param([ActEvent(1.5, 0, 7), ActEvent(46.5, 1, 9)], id="two"),
    pytest.param(
        [ActEvent(i * 45.0, i % 3, (i * 17) % 64) for i in range(100)],
        id="multi-bank-hundred",
    ),
    pytest.param(
        [ActEvent(0.125, 0, 2**30), ActEvent(1e9 + 0.25, 63, 65535)],
        id="extreme-values",
    ),
]


class TestPaceSemantics:
    """Iterator-world blackout semantics (satellite coverage)."""

    @pytest.mark.parametrize(
        "rows, interval_ns, start_ns, timings, gaps", PACE_CASES
    )
    def test_no_event_lands_in_blackout(
        self, rows, interval_ns, start_ns, timings, gaps
    ):
        events = list(pace(
            rows, interval_ns, start_ns=start_ns, timings=timings,
            honor_refresh_gaps=gaps,
        ))
        assert len(events) == len(rows)
        if not gaps:
            return
        for event in events:
            offset = event.time_ns % timings.trefi
            # Outside [0, tRFC) after a tREFI boundary -- except an
            # event exactly at t=0, which precedes the first REF.
            assert offset >= timings.trfc - 1e-9 or event.time_ns == 0.0

    @pytest.mark.parametrize(
        "rows, interval_ns, start_ns, timings, gaps", PACE_CASES
    )
    def test_pace_is_sorted_and_spaced(
        self, rows, interval_ns, start_ns, timings, gaps
    ):
        times = [e.time_ns for e in pace(
            rows, interval_ns, start_ns=start_ns, timings=timings,
            honor_refresh_gaps=gaps,
        )]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= interval_ns - 1e-9

    def test_blackout_push_lands_exactly_after_trfc(self):
        """The pushed ACT sits exactly tRFC past the tREFI boundary."""
        events = list(pace(
            itertools.repeat(5, 400), DDR4_2400.trc,
            honor_refresh_gaps=True,
        ))
        pushed = [
            e.time_ns for e in events
            if abs(e.time_ns % DDR4_2400.trefi - DDR4_2400.trfc) < 1e-9
        ]
        assert pushed, "expected at least one blackout push at max rate"


class TestPaceArrayEquivalence:
    @pytest.mark.parametrize(
        "rows, interval_ns, start_ns, timings, gaps", PACE_CASES
    )
    def test_bit_identical_to_pace(
        self, rows, interval_ns, start_ns, timings, gaps
    ):
        reference = list(pace(
            rows, interval_ns, bank=2, start_ns=start_ns, timings=timings,
            honor_refresh_gaps=gaps,
        ))
        columnar = pace_array(
            rows, interval_ns, bank=2, start_ns=start_ns, timings=timings,
            honor_refresh_gaps=gaps,
        )
        assert columnar.to_events() == reference  # exact float equality

    def test_rejects_sub_trc_interval(self):
        with pytest.raises(ValueError):
            pace_array([1, 2], interval_ns=10.0)

    @pytest.mark.parametrize(
        "interval_ns, start_ns, gaps",
        [
            pytest.param(DDR4_2400.trc, 0.0, True, id="trc"),
            pytest.param(
                DDR4_2400.trc, 5 * DDR4_2400.trefi + 100.0, True,
                id="start-inside-blackout",
            ),
            pytest.param(DDR4_2400.trc, 0.0, False, id="gaps-disabled"),
            pytest.param(97.5, 33.25, True, id="interval-97.5"),
        ],
    )
    def test_bit_identical_across_many_blackouts(
        self, interval_ns, start_ns, gaps
    ):
        rows = np.arange(130 * int(DDR4_2400.trefi // interval_ns)) % 977
        columnar = pace_array(
            rows, interval_ns, start_ns=start_ns, honor_refresh_gaps=gaps
        )
        reference = list(pace(
            rows.tolist(), interval_ns, start_ns=start_ns,
            honor_refresh_gaps=gaps,
        ))
        span = columnar.time_ns[-1] - columnar.time_ns[0]
        assert span > 100 * DDR4_2400.trefi
        assert columnar.to_events() == reference


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("events", ROUNDTRIP_CASES)
    def test_write_read_trace(self, events, tmp_path):
        path = str(tmp_path / "trace.txt")
        assert write_trace(events, path) == len(events)
        assert list(read_trace(path)) == events

    @pytest.mark.parametrize("events", ROUNDTRIP_CASES)
    def test_trace_array_round_trip(self, events):
        trace = TraceArray.from_events(iter(events))
        assert len(trace) == len(events)
        assert trace.to_events() == events
        assert list(trace) == events

    @pytest.mark.parametrize("events", ROUNDTRIP_CASES)
    def test_file_round_trip_through_columns(self, events, tmp_path):
        """trace file -> TraceArray -> events == original."""
        path = str(tmp_path / "trace.txt")
        write_trace(events, path)
        trace = TraceArray.from_events(read_trace(path))
        assert trace.to_events() == events


class TestTraceArray:
    def test_from_events_passes_through_trace_arrays(self):
        trace = pace_array([1, 2, 3], 45.0)
        assert TraceArray.from_events(trace) is trace

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TraceArray(
                time_ns=np.zeros(2), bank=np.zeros(1, dtype=np.int64),
                row=np.zeros(2, dtype=np.int64),
            )

    def test_iteration_yields_python_scalars(self):
        trace = pace_array(list(range(20_000)), 45.0, bank=3)
        events = list(trace)
        assert len(events) == len(trace)
        for event in (events[0], events[8192], events[-1]):
            assert type(event) is ActEvent
            assert [type(field) for field in event] == [float, int, int]
        assert events[-1] == ActEvent(
            float(trace.time_ns[-1]), 3, 19_999
        )

    def test_dtype_coercion(self):
        trace = TraceArray(time_ns=[0, 1], bank=[0, 0], row=[5, 6])
        assert trace.time_ns.dtype == np.float64
        assert trace.bank.dtype == np.int64
        assert trace.row.dtype == np.int64

    def test_slice_is_zero_copy_view(self):
        trace = pace_array([1, 2, 3, 4], 45.0)
        view = trace.slice(1, 3)
        assert len(view) == 2
        assert view.row.base is not None  # a view, not a copy

    def test_chunks_cover_everything_in_order(self):
        trace = pace_array(list(range(10)), 45.0)
        chunks = list(trace.chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        reassembled = [e for chunk in chunks for e in chunk.to_events()]
        assert reassembled == trace.to_events()

    def test_chunks_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(pace_array([1], 45.0).chunks(0))

    def test_bank_runs_partitions_by_bank(self):
        trace = TraceArray(
            time_ns=np.arange(6, dtype=np.float64) * 100,
            bank=np.array([0, 0, 1, 1, 1, 0]),
            row=np.arange(6),
        )
        runs = list(trace.bank_runs())
        assert runs == [(0, 2, 0), (2, 5, 1), (5, 6, 0)]
        assert list(TraceArray.empty().bank_runs()) == []

    def test_is_time_sorted(self):
        assert pace_array([1, 2, 3], 45.0).is_time_sorted()
        scrambled = TraceArray(
            time_ns=np.array([1.0, 0.5]), bank=np.zeros(2), row=np.zeros(2)
        )
        assert not scrambled.is_time_sorted()


class TestMergeArrays:
    def test_matches_merge_streams_with_ties(self):
        a = [ActEvent(float(i) * 100, 0, i) for i in range(10)]
        b = [ActEvent(float(i) * 100 + 50, 1, i) for i in range(10)]
        # Equal timestamps across streams: heapq.merge is stable, the
        # earlier argument wins; merge_arrays must match exactly.
        c = [ActEvent(float(i) * 100, 2, i + 100) for i in range(10)]
        reference = list(merge_streams(iter(a), iter(b), iter(c)))
        columnar = merge_arrays(
            TraceArray.from_events(a),
            TraceArray.from_events(b),
            TraceArray.from_events(c),
        )
        assert columnar.to_events() == reference

    def test_empty_inputs(self):
        assert len(merge_arrays()) == 0
        assert len(merge_arrays(TraceArray.empty(), TraceArray.empty())) == 0


class TestCollectStatsArray:
    @pytest.mark.parametrize(
        "rows, interval_ns, start_ns, timings, gaps", PACE_CASES
    )
    def test_matches_collect_stats(
        self, rows, interval_ns, start_ns, timings, gaps
    ):
        trace = pace_array(
            rows, interval_ns, start_ns=start_ns, timings=timings,
            honor_refresh_gaps=gaps,
        )
        reference = collect_stats(iter(trace.to_events()))
        assert collect_stats_array(trace) == reference

    def test_multi_bank_window_stats(self):
        events = [ActEvent(float(i) * 50, i % 2, i % 4) for i in range(100)]
        trace = TraceArray.from_events(events)
        window = 1000.0
        assert collect_stats_array(trace, window) == collect_stats(
            iter(events), window
        )

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            collect_stats_array(TraceArray.empty(), 0.0)
