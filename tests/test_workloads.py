"""Tests for the trace model and all workload generators."""

from __future__ import annotations

import hashlib
import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GrapheneConfig
from repro.dram.timing import DDR4_2400
from repro.workloads import (
    ActEvent,
    collect_stats,
    double_sided_rows,
    graphene_worst_case_rows,
    merge_streams,
    mrloc_killer_rows,
    pace,
    pace_array,
    profile_array,
    profile_events,
    prohit_killer_rows,
    read_trace,
    s1_rows,
    s2_rows,
    s3_rows,
    s4_rows,
    synthetic_array,
    synthetic_events,
    take_until,
    write_trace,
)
from repro.workloads.columnar import TraceArray
from repro.workloads.spec_like import (
    REALISTIC_PROFILES,
    WorkloadProfile,
    _clustered_pool,
    _ZipfSampler,
)
from repro.workloads.synthetic import SYNTHETIC_PATTERNS


class TestTraceModel:
    def test_pace_enforces_trc(self):
        with pytest.raises(ValueError):
            list(pace([1, 2], interval_ns=10.0))

    def test_pace_skips_refresh_blackouts(self):
        events = list(
            pace(
                itertools.repeat(5, 500),
                interval_ns=DDR4_2400.trc,
                honor_refresh_gaps=True,
            )
        )
        for event in events:
            offset = event.time_ns % DDR4_2400.trefi
            assert offset >= DDR4_2400.trfc - 1e-9 or event.time_ns == 0.0

    def test_merge_streams_sorted(self):
        a = [ActEvent(float(i) * 100, 0, i) for i in range(10)]
        b = [ActEvent(float(i) * 100 + 50, 1, i) for i in range(10)]
        merged = list(merge_streams(iter(a), iter(b)))
        times = [e.time_ns for e in merged]
        assert times == sorted(times)
        assert len(merged) == 20

    def test_take_until(self):
        events = (ActEvent(float(i), 0, i) for i in range(100))
        taken = list(take_until(events, 10.0))
        assert len(taken) == 10

    def test_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        events = [ActEvent(1.5, 0, 7), ActEvent(46.5, 1, 9)]
        assert write_trace(events, path) == 2
        assert list(read_trace(path)) == events

    def test_read_trace_rejects_malformed(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as handle:
            handle.write("1.0 2\n")
        with pytest.raises(ValueError):
            list(read_trace(path))

    def test_collect_stats(self):
        events = [ActEvent(float(i) * 50, 0, i % 4) for i in range(100)]
        stats = collect_stats(iter(events))
        assert stats.total_acts == 100
        assert stats.banks == 1
        assert stats.distinct_rows == 4
        assert stats.max_row_acts_per_window == 25


class TestSyntheticPatterns:
    def test_s1_cycles_n_rows(self):
        rows = list(itertools.islice(s1_rows(10, seed=1), 40))
        assert len(set(rows)) == 10
        assert rows[:10] == rows[10:20]

    def test_s1_rows_are_spread(self):
        rows = sorted(set(itertools.islice(s1_rows(10, seed=1), 10)))
        gaps = [b - a for a, b in zip(rows, rows[1:])]
        assert min(gaps) > 2  # distinct victim neighborhoods

    def test_s2_mixes_random_rows(self):
        rows = list(itertools.islice(s2_rows(10, random_every=5, seed=1), 500))
        assert len(set(rows)) > 10

    def test_s3_single_target(self):
        rows = set(itertools.islice(s3_rows(target=123), 100))
        assert rows == {123}

    def test_s4_mixture(self):
        rows = list(itertools.islice(s4_rows(target=123, seed=2), 1000))
        hammer_share = rows.count(123) / len(rows)
        assert 0.3 < hammer_share < 0.7

    def test_worst_case_rows_count(self):
        config = GrapheneConfig.paper_optimized()
        rows = set(itertools.islice(
            graphene_worst_case_rows(config, seed=1), 200
        ))
        assert len(rows) == config.max_refresh_events_per_window

    def test_synthetic_events_rate_bounded_by_w(self):
        """A maximal attacker gets at most ~W ACTs per window."""
        duration = DDR4_2400.trefw / 16
        events = list(
            synthetic_events(s3_rows(target=5), duration_ns=duration)
        )
        w_fraction = DDR4_2400.max_activations_per_refresh_window / 16
        assert len(events) == pytest.approx(w_fraction, rel=0.01)


class TestAdversarialPatterns:
    def test_prohit_killer_period(self):
        rows = list(itertools.islice(prohit_killer_rows(x=1000), 9))
        assert rows == [996, 998, 998, 1000, 1000, 1000, 1002, 1002, 1004]

    def test_prohit_killer_validation(self):
        with pytest.raises(ValueError):
            prohit_killer_rows(x=2)

    def test_mrloc_killer_victim_count(self):
        rows = set(itertools.islice(mrloc_killer_rows(count=8, base=100), 16))
        assert len(rows) == 8
        victims = {r + d for r in rows for d in (-1, 1)}
        assert len(victims) == 16  # one more than the 15-entry queue

    def test_double_sided_alternates(self):
        rows = list(itertools.islice(double_sided_rows(victim=50), 4))
        assert rows == [49, 51, 49, 51]


class TestRealisticProfiles:
    def test_all_16_paper_workloads_present(self):
        assert len(REALISTIC_PROFILES) == 16
        for name in ("mcf", "milc", "lbm", "mix-high", "mix-blend",
                     "MICA", "PageRank", "RADIX", "FFT", "Canneal"):
            assert name in REALISTIC_PROFILES

    def test_events_sorted_and_in_range(self):
        events = list(profile_events(
            REALISTIC_PROFILES["mcf"], duration_ns=1e6, banks=2, seed=1
        ))
        times = [e.time_ns for e in events]
        assert times == sorted(times)
        assert {e.bank for e in events} == {0, 1}
        assert all(0 <= e.row < 65536 for e in events)

    def test_intensity_calibration(self):
        """Generated rate must match the profile's declared rate."""
        profile = REALISTIC_PROFILES["lbm"]
        events = list(profile_events(profile, duration_ns=4e6, seed=3))
        rate = len(events) / 4e-3  # acts per second
        assert rate == pytest.approx(
            profile.acts_per_second_per_bank, rel=0.1
        )

    def test_no_row_approaches_graphene_threshold(self):
        """The paper's key property: realistic per-row concentration
        stays far below T = 8,333 per 64 ms window."""
        for name in ("mcf", "MICA", "lbm"):
            events = profile_events(
                REALISTIC_PROFILES[name],
                duration_ns=DDR4_2400.trefw / 2,
                seed=7,
            )
            stats = collect_stats(events, window_ns=DDR4_2400.trefw / 2)
            assert stats.max_row_acts_per_window < 8_333 * 0.8, name

    def test_reproducible_with_seed(self):
        first = list(profile_events(
            REALISTIC_PROFILES["FFT"], duration_ns=5e5, seed=11
        ))
        second = list(profile_events(
            REALISTIC_PROFILES["FFT"], duration_ns=5e5, seed=11
        ))
        assert first == second

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "multiprogrammed", -1.0, 10, 0.5, 0.1)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "multiprogrammed", 1e6, 10, 0.5, 1.5)


# ----------------------------------------------------------------------
# Generator equivalence: the per-event loops the generators started as
# ----------------------------------------------------------------------
#
# The oracles below are the original per-event generator loops, kept
# verbatim as the reference the columnar generators must reproduce
# bit for bit (same RNG draw order, same float64 additions).


def _oracle_bank_stream(profile, bank, rows_per_bank, duration_ns, rng,
                        timings, chunk=8192):
    pool = _clustered_pool(profile, rows_per_bank, rng)
    sampler = _ZipfSampler(pool, profile.zipf_exponent, rng)
    mean_interval = profile.mean_interval_ns()
    stream_row = int(rng.integers(rows_per_bank))
    time_ns = float(rng.random() * mean_interval)
    while time_ns < duration_ns:
        gaps = np.maximum(
            rng.exponential(mean_interval, size=chunk), timings.trc
        )
        hot_rows = sampler.draw(chunk)
        is_stream = rng.random(chunk) < profile.streaming_fraction
        for i in range(chunk):
            if time_ns >= duration_ns:
                return
            if is_stream[i]:
                stream_row = (stream_row + 1) % rows_per_bank
                row = stream_row
            else:
                row = int(hot_rows[i])
            yield ActEvent(time_ns, bank, row)
            time_ns += float(gaps[i])


def _oracle_profile_events(profile, duration_ns, banks=1,
                           rows_per_bank=65536, seed=0, timings=DDR4_2400):
    streams = [
        _oracle_bank_stream(
            profile, bank, rows_per_bank, duration_ns,
            np.random.default_rng(
                (seed, bank, zlib.crc32(profile.name.encode()) & 0xFFFF)
            ),
            timings,
        )
        for bank in range(banks)
    ]
    return streams[0] if banks == 1 else merge_streams(*streams)


def _oracle_pace(rows, interval_ns, bank=0, start_ns=0.0,
                 timings=DDR4_2400, honor_refresh_gaps=True):
    time_ns = start_ns
    for row in rows:
        if honor_refresh_gaps:
            since_boundary = time_ns % timings.trefi
            if since_boundary < timings.trfc:
                time_ns += timings.trfc - since_boundary
        yield ActEvent(time_ns, bank, row)
        time_ns += interval_ns


def _oracle_synthetic_events(rows, duration_ns, bank=0, timings=DDR4_2400,
                             start_ns=0.0):
    for event in _oracle_pace(rows, timings.trc, bank, start_ns, timings):
        if event.time_ns - start_ns >= duration_ns:
            return
        yield event


def _columns(events) -> TraceArray:
    return TraceArray.from_events(events)


def _assert_same_columns(actual: TraceArray, expected: TraceArray) -> None:
    assert len(actual) == len(expected)
    for name in ("time_ns", "bank", "row"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _digest(trace: TraceArray) -> str:
    h = hashlib.sha256()
    for column in (trace.time_ns, trace.bank, trace.row):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


#: sha256 (first 16 hex digits) of the three columns of every realistic
#: profile and S-pattern, seed 42, 1 ms, as the per-event generators
#: produced them: ``(workload, banks) -> (ACTs, digest)``.
GOLDEN_1MS = {
    ("mcf", 1): (4115, "c8fbf37e80739770"),
    ("mcf", 4): (16391, "c58b5ec3cc6b9a7e"),
    ("milc", 1): (2610, "744cbbcb9a9ad4df"),
    ("milc", 4): (10345, "87f361ad9cb9fcde"),
    ("leslie3d", 1): (2225, "e065e883750d150f"),
    ("leslie3d", 4): (8783, "24a17fc663962fcf"),
    ("soplex", 1): (2407, "844c5a9575b400ef"),
    ("soplex", 4): (9578, "d7fe2c151db22c29"),
    ("GemsFDTD", 1): (2732, "42b1c68920a02238"),
    ("GemsFDTD", 4): (11030, "3701e979c449c738"),
    ("libquantum", 1): (3248, "2325882d71432c4a"),
    ("libquantum", 4): (12866, "b4718c70a851f0aa"),
    ("lbm", 1): (4448, "bc3fac3be037bca7"),
    ("lbm", 4): (17539, "91d097f3774dab3b"),
    ("sphinx3", 1): (1800, "ddafac13e5cd3ef1"),
    ("sphinx3", 4): (7230, "c93732ac10b80ad8"),
    ("omnetpp", 1): (1609, "3ec9c1d4b7290e95"),
    ("omnetpp", 4): (6425, "7736a16f7c8aa3f4"),
    ("mix-high", 1): (2926, "666523576a4e9c9b"),
    ("mix-high", 4): (12004, "decf7ca3277c58dc"),
    ("mix-blend", 1): (1210, "ba476d8b34b2a4b9"),
    ("mix-blend", 4): (4773, "21c109ae9af0de3e"),
    ("MICA", 1): (3905, "beaa24304d643e64"),
    ("MICA", 4): (15749, "9018a23d860e89c8"),
    ("PageRank", 1): (3277, "c0fb815ddc2199f2"),
    ("PageRank", 4): (13271, "1db71c8233d23b92"),
    ("RADIX", 1): (2860, "8f25d20aa6c03db6"),
    ("RADIX", 4): (11451, "e111b78b783cbde7"),
    ("FFT", 1): (2464, "fb981b2b585302f2"),
    ("FFT", 4): (9791, "58abea2945231f5e"),
    ("Canneal", 1): (1466, "f82dbd6bf7980a19"),
    ("Canneal", 4): (5765, "f574801c2278720e"),
    ("S1-10", 1): (21276, "3d19771375405bcc"),
    ("S1-20", 1): (21276, "4ace2cfa8f90ac7d"),
    ("S2", 1): (21276, "769ac26100a18307"),
    ("S3", 1): (21276, "8e906ea3b3c410f3"),
    ("S4", 1): (21276, "bee4a25b3b1bbb6f"),
}

#: Multi-chunk cases (5 ms, 4,096 rows per bank, so streaming rows
#: wrap), same generators and seed.
GOLDEN_5MS_4096_ROWS = {
    ("mcf", 1): (20709, "6a78671437cf4a8d"),
    ("mcf", 4): (82725, "5f34bcd5f74f756f"),
    ("RADIX", 1): (14477, "1b8f64a281ae247c"),
    ("RADIX", 4): (57454, "715d6e06b67e21dd"),
}


class TestGoldenTraces:
    """Every generator's output, pinned by digest."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_1MS), ids=str)
    def test_one_millisecond(self, key):
        name, banks = key
        if name in REALISTIC_PROFILES:
            events = profile_events(
                REALISTIC_PROFILES[name], 1e6, banks=banks, seed=42
            )
        else:
            events = synthetic_events(
                SYNTHETIC_PATTERNS[name](65536, 42), duration_ns=1e6
            )
        trace = _columns(events)
        assert (len(trace), _digest(trace)) == GOLDEN_1MS[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN_5MS_4096_ROWS), ids=str)
    def test_several_chunks_with_wrapping_streams(self, key):
        name, banks = key
        trace = _columns(profile_events(
            REALISTIC_PROFILES[name], 5e6, banks=banks, seed=42,
            rows_per_bank=4096,
        ))
        assert (len(trace), _digest(trace)) == GOLDEN_5MS_4096_ROWS[key]


_PROFILE_NAMES = sorted(REALISTIC_PROFILES)
#: Shorter than the first gap (empty or one-ACT traces) through several
#: 8,192-draw chunks at the heaviest profiles' rates.
_DURATIONS = st.one_of(
    st.floats(min_value=1.0, max_value=2e3),
    st.floats(min_value=1e5, max_value=5e6),
)


class TestGeneratorsMatchTheirLoops:
    """Hypothesis sweep: each array generator and its event view against
    ``TraceArray.from_events`` of the original loop, column for column."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(_PROFILE_NAMES),
        duration_ns=_DURATIONS,
        banks=st.integers(min_value=1, max_value=4),
        rows_per_bank=st.sampled_from([16, 257, 4096, 65536]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_profile_array_and_events(self, name, duration_ns, banks,
                                      rows_per_bank, seed):
        profile = REALISTIC_PROFILES[name]
        kwargs = dict(banks=banks, rows_per_bank=rows_per_bank, seed=seed)
        expected = list(_oracle_profile_events(profile, duration_ns, **kwargs))
        _assert_same_columns(
            profile_array(profile, duration_ns, **kwargs), _columns(expected)
        )
        assert list(profile_events(profile, duration_ns, **kwargs)) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(SYNTHETIC_PATTERNS)),
        duration_ns=st.one_of(
            st.floats(min_value=0.5, max_value=100.0),
            st.floats(min_value=1e3, max_value=3e6),
        ),
        start_ns=st.floats(min_value=0.0, max_value=2 * DDR4_2400.trefi),
        bank=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_synthetic_array_and_events(self, name, duration_ns, start_ns,
                                        bank, seed):
        make = SYNTHETIC_PATTERNS[name]
        kwargs = dict(bank=bank, start_ns=start_ns)
        expected = list(_oracle_synthetic_events(
            make(65536, seed), duration_ns, **kwargs
        ))
        _assert_same_columns(
            synthetic_array(make(65536, seed), duration_ns, **kwargs),
            _columns(expected),
        )
        assert list(synthetic_events(
            make(65536, seed), duration_ns, **kwargs
        )) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.integers(min_value=0, max_value=65535),
                      max_size=600),
        interval_ns=st.sampled_from(
            [DDR4_2400.trc, 2 * DDR4_2400.trc + 0.3, 97.5, 400.0, 1e4]
        ),
        start_ns=st.floats(min_value=0.0, max_value=3 * DDR4_2400.trefi),
        honor_refresh_gaps=st.booleans(),
        bank=st.integers(min_value=0, max_value=7),
    )
    def test_pace_array_and_events(self, rows, interval_ns, start_ns,
                                   honor_refresh_gaps, bank):
        kwargs = dict(bank=bank, start_ns=start_ns,
                      honor_refresh_gaps=honor_refresh_gaps)
        expected = list(_oracle_pace(rows, interval_ns, **kwargs))
        _assert_same_columns(
            pace_array(rows, interval_ns, **kwargs), _columns(expected)
        )
        assert list(pace(rows, interval_ns, **kwargs)) == expected

    @pytest.mark.parametrize("index", [0, 1, 171, 172, 173, 5000])
    def test_a_trace_ends_before_an_act_at_its_duration(self, index):
        start_ns = 1000.0
        oracle = list(_oracle_synthetic_events(
            itertools.repeat(7), 1e6, start_ns=start_ns
        ))
        duration_ns = oracle[index].time_ns - start_ns
        trace = synthetic_array(
            itertools.repeat(7), duration_ns, start_ns=start_ns
        )
        assert trace.to_events() == oracle[:index]
        profile = REALISTIC_PROFILES["lbm"]
        oracle = list(_oracle_profile_events(profile, 2e6, seed=index))
        duration_ns = oracle[index].time_ns
        if duration_ns > 0.0:
            expected = list(_oracle_profile_events(
                profile, duration_ns, seed=index
            ))
            assert len(expected) == index
            _assert_same_columns(
                profile_array(profile, duration_ns, seed=index),
                _columns(expected),
            )

    def test_synthetic_pulls_exactly_the_rows_it_emits(self):
        rows = iter(range(10**6))
        trace = synthetic_array(rows, duration_ns=1e5)
        assert next(rows) == len(trace)

    def test_event_views_stay_lazy(self):
        """Events are produced before the whole trace is generated."""
        rows = itertools.count()
        first = next(synthetic_events(rows, duration_ns=DDR4_2400.trefw))
        assert first.row == 0
        assert next(rows) < 1_000
        events = profile_events(REALISTIC_PROFILES["mcf"], DDR4_2400.trefw,
                                banks=4)
        assert next(events).time_ns >= 0.0
