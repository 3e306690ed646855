"""Synthetic adversarial access patterns (paper Section V-B).

The paper evaluates four synthetic attack families, all issuing ACTs at
the maximum rate DRAM timing allows:

* **S1(N)** -- repeats N arbitrarily selected rows (N = 10, 20);
* **S2** -- the repeating rows of S1 with occasional random rows mixed
  in between;
* **S3** -- the classic single-row hammer: one row repeatedly;
* **S4** -- a mixture of S3 and random row accesses.

Plus the *worst-case* pattern for Graphene used by Fig. 6 and the
"0.34%" bound: cycling through exactly ``floor(W / T)`` rows so that
every table entry climbs to the threshold ``T`` as many times as the
window allows, maximizing victim-refresh triggers.

All generators emit plain row sequences; :func:`synthetic_array` (or
its event view :func:`synthetic_events`) timestamps them at the maximum
ACT rate.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from ..core.config import GrapheneConfig
from ..dram.timing import DDR4_2400, DramTimings
from .columnar import TraceArray, pace_segments
from .trace import ActEvent

__all__ = [
    "s1_rows",
    "s2_rows",
    "s3_rows",
    "s4_rows",
    "graphene_worst_case_rows",
    "synthetic_array",
    "synthetic_events",
    "SYNTHETIC_PATTERNS",
]


def _spread_rows(count: int, rows_per_bank: int, rng: random.Random) -> list[int]:
    """Pick ``count`` distinct rows spaced > 2 apart (distinct victims)."""
    if count * 4 > rows_per_bank:
        raise ValueError("bank too small to spread that many aggressors")
    base = rng.sample(range(rows_per_bank // 4), count)
    return sorted(r * 4 + 1 for r in base)


def s1_rows(
    n: int = 10, rows_per_bank: int = 65536, seed: int = 0
) -> Iterator[int]:
    """S1: repeat ``n`` arbitrarily selected rows forever."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    targets = _spread_rows(n, rows_per_bank, rng)
    return itertools.cycle(targets)


def s2_rows(
    n: int = 10,
    random_every: int = 5,
    rows_per_bank: int = 65536,
    seed: int = 0,
) -> Iterator[int]:
    """S2: S1's repeating rows with a random row every ``random_every``."""
    if random_every < 2:
        raise ValueError("random_every must be >= 2")
    rng = random.Random(seed)
    targets = _spread_rows(n, rows_per_bank, rng)
    # Each group is random_every - 1 cycled targets, then one random row.
    cycler = itertools.cycle(targets)
    randoms = iter(lambda: rng.randrange(rows_per_bank), None)
    groups = zip(*[cycler] * (random_every - 1), randoms)
    return itertools.chain.from_iterable(groups)


def s3_rows(
    target: int | None = None, rows_per_bank: int = 65536, seed: int = 0
) -> Iterator[int]:
    """S3: the straightforward single-row hammer."""
    if target is None:
        target = random.Random(seed).randrange(2, rows_per_bank - 2)
    return itertools.repeat(target)


def s4_rows(
    target: int | None = None,
    random_fraction: float = 0.5,
    rows_per_bank: int = 65536,
    seed: int = 0,
) -> Iterator[int]:
    """S4: mixture of the single-row hammer and random rows."""
    if not 0.0 <= random_fraction < 1.0:
        raise ValueError("random_fraction must be in [0, 1)")
    rng = random.Random(seed)
    if target is None:
        target = rng.randrange(2, rows_per_bank - 2)

    def draw() -> int:
        if rng.random() < random_fraction:
            return rng.randrange(rows_per_bank)
        return target

    return iter(draw, None)


def graphene_worst_case_rows(
    config: GrapheneConfig, seed: int = 0
) -> Iterator[int]:
    """The refresh-maximizing pattern for a Graphene configuration.

    Cycles through ``floor(W / T)`` spread-out rows; at the maximum ACT
    rate every one of them reaches the tracking threshold ``T`` (and
    its multiples) as often as the window's ACT budget allows, which is
    the worst case Fig. 6 plots and the "refresh energy +0.34% at most"
    abstract claim is computed from.
    """
    aggressors = max(1, config.max_refresh_events_per_window)
    rng = random.Random(seed)
    targets = _spread_rows(
        min(aggressors, config.rows_per_bank // 4),
        config.rows_per_bank,
        rng,
    )
    return itertools.cycle(targets)


def _synthetic_segments(
    rows: Iterable[int],
    duration_ns: float,
    bank: int,
    timings: DramTimings,
    start_ns: float,
) -> Iterator[TraceArray]:
    return pace_segments(
        rows,
        interval_ns=timings.trc,
        bank=bank,
        start_ns=start_ns,
        timings=timings,
        honor_refresh_gaps=True,
        duration_ns=duration_ns,
    )


def synthetic_array(
    rows: Iterable[int],
    duration_ns: float,
    bank: int = 0,
    timings: DramTimings = DDR4_2400,
    start_ns: float = 0.0,
) -> TraceArray:
    """Timestamp a row sequence at the maximum legal ACT rate.

    The attacker issues back-to-back ACTs (interval tRC) and loses the
    tRFC blackout after every tREFI like any real agent, so a full
    refresh window carries exactly ~``W`` ACTs.  The trace ends before
    the first ACT at ``time - start_ns >= duration_ns``.

    Exactly as many rows are pulled from ``rows`` as ACTs are emitted.
    (The per-event loop this replaced pulled one more row past the end
    and dropped it; a row iterator shared with another consumer is now
    advanced by one row less.)
    """
    return TraceArray.concat(
        list(_synthetic_segments(rows, duration_ns, bank, timings, start_ns))
    )


def synthetic_events(
    rows: Iterable[int],
    duration_ns: float,
    bank: int = 0,
    timings: DramTimings = DDR4_2400,
    start_ns: float = 0.0,
) -> Iterator[ActEvent]:
    """:func:`synthetic_array` as a lazy :class:`ActEvent` stream.

    Rows are pulled one paced segment (about one tREFI of ACTs) ahead
    of the consumer, never past the end of the trace.
    """
    return itertools.chain.from_iterable(
        _synthetic_segments(rows, duration_ns, bank, timings, start_ns)
    )


#: Named constructors for the Fig. 8(b) x-axis, each returning a row
#: iterator given (rows_per_bank, seed).
SYNTHETIC_PATTERNS = {
    "S1-10": lambda rows_per_bank, seed: s1_rows(10, rows_per_bank, seed),
    "S1-20": lambda rows_per_bank, seed: s1_rows(20, rows_per_bank, seed),
    "S2": lambda rows_per_bank, seed: s2_rows(10, 5, rows_per_bank, seed),
    "S3": lambda rows_per_bank, seed: s3_rows(None, rows_per_bank, seed),
    "S4": lambda rows_per_bank, seed: s4_rows(None, 0.5, rows_per_bank, seed),
}
