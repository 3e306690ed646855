"""Synthetic stand-ins for the paper's realistic workloads.

The paper evaluates multi-programmed SPEC CPU2006 workloads (the nine
most memory-intensive, "SPEC-high", plus two mixes) and five
multi-threaded benchmarks (MICA, GAP PageRank, SPLASH-2 RADIX/FFT,
PARSEC Canneal).  Those binaries and their traces are not available
offline, so -- per the substitution rule documented in DESIGN.md --
each workload is replaced by a stochastic row-activation generator
calibrated on the two properties the evaluation depends on:

1. **per-bank ACT intensity** (activations per second), which drives
   the overhead of probabilistic schemes (PARA refreshes ~``p`` per
   ACT) and counter-sharing schemes (CBT counters accumulate aggregate
   counts);
2. **per-row ACT concentration** within a reset window, which decides
   whether deterministic trackers (Graphene, TWiCe) ever fire -- the
   paper's key result is that no realistic workload brings any single
   row near ``T`` = 8,333 ACTs per 64 ms.

Each profile mixes a Zipf-distributed hot working set (row reuse from
cache-line conflict misses) with a streaming component (sequential
sweeps, negligible reuse).  Intensities are scaled so the heaviest
profiles (mcf, lbm, MICA) run at a few million ACTs/s per bank --
20-30% of the DDR4 per-bank maximum -- matching the paper's regime
where PARA's overhead lands below ~0.7% of refresh energy.

The per-row concentration these parameters produce tops out around a
few hundred ACTs per window per row, two orders of magnitude below
``T``: the "zero victim refreshes" result is a *robust* consequence of
workload structure, not a knife-edge calibration.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..dram.timing import DDR4_2400, DramTimings
from .columnar import TraceArray, _sequential_cumsum, merge_arrays
from .trace import ActEvent, merge_streams

__all__ = [
    "WorkloadProfile",
    "SPEC_HIGH_PROFILES",
    "MIX_PROFILES",
    "MULTITHREADED_PROFILES",
    "REALISTIC_PROFILES",
    "profile_array",
    "profile_events",
]


@dataclass(frozen=True)
class WorkloadProfile:
    """Stochastic row-activation model for one named workload.

    Attributes:
        name: Workload label (matches the paper's Figure 8 x-axis).
        kind: "multiprogrammed" or "multithreaded".
        acts_per_second_per_bank: Mean ACT arrival rate per bank.
        working_set_rows: Size of the hot row pool per bank.
        zipf_exponent: Popularity skew of the hot pool (0 = uniform).
        streaming_fraction: Share of ACTs that belong to a sequential
            sweep (touch-once rows) rather than the hot pool.
        spatial_segments: How many contiguous row-address regions the
            hot pool occupies.  Real programs' hot pages cluster in a
            few regions of the physical row space; this is what makes
            region-sharing trackers (CBT) accumulate counts while
            per-row trackers stay quiet.
        description: Which paper workload this profile substitutes.
    """

    name: str
    kind: str
    acts_per_second_per_bank: float
    working_set_rows: int
    zipf_exponent: float
    streaming_fraction: float
    spatial_segments: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if self.acts_per_second_per_bank <= 0:
            raise ValueError("acts_per_second_per_bank must be positive")
        if self.working_set_rows < 1:
            raise ValueError("working_set_rows must be >= 1")
        if not 0.0 <= self.streaming_fraction <= 1.0:
            raise ValueError("streaming_fraction outside [0, 1]")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if self.spatial_segments < 1:
            raise ValueError("spatial_segments must be >= 1")

    def mean_interval_ns(self) -> float:
        return 1e9 / self.acts_per_second_per_bank

    def expected_acts(self, duration_ns: float, banks: int) -> float:
        return self.acts_per_second_per_bank * banks * duration_ns / 1e9


#: The nine most memory-intensive SPEC CPU2006 applications the paper
#: runs 16 copies of ("SPEC-high").  Rates/locality differ per app to
#: span the Fig. 8(a) spread; all stay far from hammering any row.
SPEC_HIGH_PROFILES: dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in [
        WorkloadProfile(
            "mcf", "multiprogrammed", 4.2e6, 24576, 0.55, 0.15,
            description="pointer-chasing; highest miss rate in SPEC CPU2006",
        ),
        WorkloadProfile(
            "milc", "multiprogrammed", 2.6e6, 16384, 0.35, 0.45,
            description="lattice QCD; large streaming arrays",
        ),
        WorkloadProfile(
            "leslie3d", "multiprogrammed", 2.2e6, 12288, 0.30, 0.55,
            description="CFD stencil sweeps",
        ),
        WorkloadProfile(
            "soplex", "multiprogrammed", 2.4e6, 20480, 0.60, 0.20,
            description="simplex LP solver; irregular sparse access",
        ),
        WorkloadProfile(
            "GemsFDTD", "multiprogrammed", 2.8e6, 14336, 0.30, 0.60,
            description="FDTD field sweeps",
        ),
        WorkloadProfile(
            "libquantum", "multiprogrammed", 3.2e6, 8192, 0.20, 0.75,
            description="quantum simulation; highly streaming",
        ),
        WorkloadProfile(
            "lbm", "multiprogrammed", 4.5e6, 10240, 0.25, 0.70,
            description="lattice Boltzmann; the most bandwidth-hungry",
        ),
        WorkloadProfile(
            "sphinx3", "multiprogrammed", 1.8e6, 18432, 0.65, 0.15,
            description="speech recognition; moderate reuse",
        ),
        WorkloadProfile(
            "omnetpp", "multiprogrammed", 1.6e6, 28672, 0.70, 0.10,
            description="discrete event simulation; scattered heap",
        ),
    ]
}

#: The two mixed multiprogrammed workloads of the paper.
MIX_PROFILES: dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in [
        WorkloadProfile(
            "mix-high", "multiprogrammed", 3.0e6, 20480, 0.50, 0.35,
            description="16 apps drawn from SPEC-high",
        ),
        WorkloadProfile(
            "mix-blend", "multiprogrammed", 1.2e6, 16384, 0.45, 0.30,
            description="16 apps drawn from all of SPEC CPU2006",
        ),
    ]
}

#: The five multi-threaded benchmarks of the paper.
MULTITHREADED_PROFILES: dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in [
        WorkloadProfile(
            "MICA", "multithreaded", 4.0e6, 32768, 0.75, 0.05,
            description="in-memory key-value store; skewed key popularity",
        ),
        WorkloadProfile(
            "PageRank", "multithreaded", 3.4e6, 24576, 0.80, 0.20,
            description="GAP PageRank; power-law vertex degrees",
        ),
        WorkloadProfile(
            "RADIX", "multithreaded", 2.9e6, 8192, 0.15, 0.80,
            description="SPLASH-2 radix sort; streaming permutation",
        ),
        WorkloadProfile(
            "FFT", "multithreaded", 2.5e6, 12288, 0.25, 0.65,
            description="SPLASH-2 FFT; strided butterflies",
        ),
        WorkloadProfile(
            "Canneal", "multithreaded", 1.4e6, 30720, 0.60, 0.10,
            description="PARSEC simulated annealing; random netlist access",
        ),
    ]
}

#: Every realistic workload of Fig. 8, in the paper's presentation order.
REALISTIC_PROFILES: dict[str, WorkloadProfile] = {
    **SPEC_HIGH_PROFILES,
    **MIX_PROFILES,
    **MULTITHREADED_PROFILES,
}


class _ZipfSampler:
    """Zipf-over-finite-alphabet sampler with O(1) draws.

    Uses inverse-CDF lookup on a precomputed table; the alphabet is a
    per-bank random permutation of rows so hot rows land anywhere in
    the bank.
    """

    def __init__(
        self,
        pool_rows: np.ndarray,
        exponent: float,
        rng: np.random.Generator,
    ) -> None:
        self.pool_rows = pool_rows
        ranks = np.arange(1, len(pool_rows) + 1, dtype=np.float64)
        weights = ranks ** (-exponent) if exponent > 0 else np.ones_like(ranks)
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = rng

    def draw(self, count: int) -> np.ndarray:
        picks = np.searchsorted(self._cdf, self._rng.random(count))
        return self.pool_rows[picks]


def _clustered_pool(
    profile: WorkloadProfile, rows_per_bank: int, rng: np.random.Generator
) -> np.ndarray:
    """Hot-row pool as a few contiguous regions, rank-blocked.

    The pool's ``spatial_segments`` contiguous regions are placed at
    random non-overlapping offsets; popularity ranks are assigned
    block-wise to regions (the hottest block of ranks lives in one
    region) but shuffled within each region.  This reproduces the page-
    level spatial locality of real programs: per-row ACT counts stay
    identical to an unclustered pool, while region-aggregate counts --
    what CBT's shared counters see -- concentrate realistically.
    """
    pool_size = min(profile.working_set_rows, rows_per_bank)
    segments = min(profile.spatial_segments, max(1, pool_size))
    per_segment = -(-pool_size // segments)
    # Place segment origins on a jittered grid so regions never overlap.
    stride = rows_per_bank // segments
    if per_segment > stride:
        # Pool nearly fills the bank; fall back to one dense run.
        start = int(rng.integers(max(1, rows_per_bank - pool_size + 1)))
        pool = np.arange(start, start + pool_size)
    else:
        origins = [
            seg * stride + int(rng.integers(max(1, stride - per_segment)))
            for seg in range(segments)
        ]
        rng.shuffle(origins)
        parts = []
        remaining = pool_size
        for origin in origins:
            take = min(per_segment, remaining)
            if take <= 0:
                break
            block = np.arange(origin, origin + take)
            rng.shuffle(block)  # ranks shuffled *within* the region
            parts.append(block)
            remaining -= take
        pool = np.concatenate(parts)
    return pool


def _bank_chunks(
    profile: WorkloadProfile,
    bank: int,
    rows_per_bank: int,
    duration_ns: float,
    rng: np.random.Generator,
    timings: DramTimings,
    chunk: int = 8192,
) -> Iterator[TraceArray]:
    """One bank's timed ACT stream for ``profile``, one array per chunk.

    Each chunk draws, in this order (which fixes the stream for a
    seed), ``chunk`` exponential inter-arrival gaps (Poisson ACT
    arrivals, floored at tRC), ``chunk`` Zipf hot rows and ``chunk``
    streaming flags.  Times accumulate the gaps by sequential float64
    addition (a seeded ``cumsum``); a streaming ACT opens the row after
    the previous streaming ACT's, wrapping at ``rows_per_bank``.  The
    stream ends before the first ACT at or past ``duration_ns``.
    """
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
        # after[i] is the time of ACT i + 1.
        after = _sequential_cumsum(time_ns, gaps)
        times = np.concatenate(([time_ns], after[:-1]))
        streamed = np.cumsum(is_stream)
        rows = np.where(
            is_stream, (stream_row + streamed) % rows_per_bank, hot_rows
        )
        count = int(np.searchsorted(times, duration_ns))
        yield TraceArray(
            time_ns=times[:count],
            bank=np.full(count, bank, dtype=np.int64),
            row=rows[:count],
        )
        stream_row = (stream_row + int(streamed[-1])) % rows_per_bank
        time_ns = float(after[-1])


def _bank_streams(
    profile: WorkloadProfile,
    duration_ns: float,
    banks: int,
    rows_per_bank: int,
    seed: int,
    timings: DramTimings,
) -> list[Iterator[TraceArray]]:
    """Every bank's chunk stream, each from its own seeded RNG."""
    if duration_ns <= 0:
        raise ValueError("duration_ns must be positive")
    if banks < 1:
        raise ValueError("banks must be >= 1")
    return [
        _bank_chunks(
            profile,
            bank,
            rows_per_bank,
            duration_ns,
            np.random.default_rng(
                # zlib.crc32 is stable across processes (hash() is
                # salted per interpreter and would break replayability).
                (seed, bank, zlib.crc32(profile.name.encode()) & 0xFFFF)
            ),
            timings,
        )
        for bank in range(banks)
    ]


def profile_array(
    profile: WorkloadProfile,
    duration_ns: float,
    banks: int = 1,
    rows_per_bank: int = 65536,
    seed: int = 0,
    timings: DramTimings = DDR4_2400,
) -> TraceArray:
    """Timed, time-sorted ACT trace for ``profile`` over ``banks`` banks.

    Args:
        profile: The workload model.
        duration_ns: Trace length.
        banks: Banks to generate (independent streams, merged by time;
            on equal times the lower bank comes first).
        rows_per_bank: Row address space per bank.
        seed: Base RNG seed; each bank derives an independent stream.
        timings: Timing bundle (tRC floor on inter-arrival gaps).
    """
    per_bank = [
        TraceArray.concat(list(chunks))
        for chunks in _bank_streams(
            profile, duration_ns, banks, rows_per_bank, seed, timings
        )
    ]
    return per_bank[0] if banks == 1 else merge_arrays(*per_bank)


def profile_events(
    profile: WorkloadProfile,
    duration_ns: float,
    banks: int = 1,
    rows_per_bank: int = 65536,
    seed: int = 0,
    timings: DramTimings = DDR4_2400,
) -> Iterator[ActEvent]:
    """:func:`profile_array` as a lazy :class:`ActEvent` stream.

    Each bank is generated one 8,192-draw chunk at a time as the
    consumer reaches it, so memory stays bounded however long the
    trace is.
    """
    streams = [
        itertools.chain.from_iterable(chunks)
        for chunks in _bank_streams(
            profile, duration_ns, banks, rows_per_bank, seed, timings
        )
    ]
    if len(streams) == 1:
        return streams[0]
    return merge_streams(*streams)
