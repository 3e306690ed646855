"""Hot-path bench: the columnar fast engine vs the reference event loop.

Times the same traces through :func:`repro.sim.simulator.simulate`
twice per (scheme, workload) cell -- ``fast=False`` (the per-event
reference loop) and ``fast=True`` (the columnar batch engine of
:mod:`repro.core.fastpath`) -- and records ACTs/second for both.  Since
ISSUE-5 every scheme in the kernel registry (graphene, para, twice,
cbt, refresh-rate) has a batched kernel, so each one must beat the
reference by >=2x even at smoke scale; the full-tREFW acceptance bars
are >=5x for PARA on the single-bank hammer and >=4x for Graphene on
the 8-bank round-robin interleave.

Three workloads:

* ``hammer-double-sided`` -- max-rate double-sided hammer on one bank,
  the tracker's worst case (every ACT a table hit, every tREFI a REF
  blackout).
* ``rr8`` -- the same hammer spread round-robin across 8 banks, the
  *dispatcher's* worst case: every per-bank run has length 1, so the
  lane-partition path (whole-trace per-bank segments merged back in
  global order) is what rescues batching.  For ABACuS this is also the
  cross-bank lane's proving ground: its kernel batches multi-bank
  windows in global order (``commit_run_banked``), so the scheme must
  beat the reference here too instead of degrading to scalar stepping.
* ``multirank32`` -- double-sided hammers on all 32 banks of a
  two-rank device (16 banks/rank), interleaved in 32-ACT bursts at
  one ACT per tRC channel-wide: the system-scale workload.  Each
  scheme additionally runs once in streaming mode (``chunk_events`` =
  1/8 of the trace, so the carried-state path crosses seven chunk
  boundaries).

Every run of every variant must produce *identical* serialized
``SimulationResult``s -- the bench doubles as a coarse differential
check (the fine-grained one, with the fault referee and table-state
comparison, is the ``fastpath`` subject in ``repro.verify``, whose
``/chunked`` stack covers streaming).

A ``streaming_memory`` section sizes the constant-memory claim with
``tracemalloc``: the same lazily-generated multirank event stream is
simulated once whole (the engine materializes all columns) and once
chunked; the chunked peak must stay well below the materialized one.

Speed gates compare the batched kernels against the reference loop in
the same process.  The artifact records ``cpu_count`` for context.

Numbers land in ``BENCH_hotpath.json`` (schema 5) at the repo root,
and every run appends a ``hotpath`` entry (per-cell fast/reference
ACTs/s) to the bench-trajectory history
(:mod:`repro.bench.history`; redirect with ``GRAPHENE_BENCH_HISTORY``)
for ``scripts/check_bench_regression.py`` to gate.  CI's
``bench-smoke`` job runs this module at the default reduced scale,
gates the smoke speedups and the history trajectory, and uploads the
artifact.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.config import GrapheneConfig
from repro.core.fastpath import kernel_for
from repro.dram.timing import DDR4_2400
from repro.sim.simulator import simulate
from repro.workloads.columnar import TraceArray, merge_arrays, pace_array
from repro.workloads.trace import ActEvent

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: Schema 5: the sharded entries, the worker-count list and the pool
#: lifecycle section are gone with the process pool (schema 4
#: split sharded entries into cold/warm pool passes; schema 3 added the
#: multi-rank workload, the streaming-memory section and the recorded
#: ``cpu_count``; schema 2 per-workload sections with serial ref/fast
#: rows only; schema 1 a single workload and only graphene/para rows).
SCHEMA = 5

#: Every scheme with a registered batched kernel.  ABACuS's kernel
#: declares ``cross_bank``: on rr8 the vectorized banked lane carries
#: it past the reference loop.
SCHEMES = ("graphene", "para", "twice", "cbt", "refresh-rate", "comet",
           "abacus")

_RR_BANKS = 8

#: The multi-rank workload: 2 ranks x 16 banks = 32 lanes.
_MR_BANKS = 16
_MR_RANKS = 2
_MR_TOTAL = _MR_BANKS * _MR_RANKS
#: Same-bank burst length in the multirank interleave.
_MR_BURST = 32
#: The streaming run cuts the trace into this many chunks (the
#: constant-memory acceptance wants the trace >= 4x the chunk budget).
_MR_CHUNKS = 8


def _factory(scheme: str):
    from repro.analysis.scaling import para_probability_for
    from repro.mitigations import (
        abacus_factory,
        cbt_factory,
        comet_factory,
        graphene_factory,
        increased_refresh_rate_factory,
        para_factory,
        twice_factory,
    )

    if scheme == "graphene":
        return graphene_factory(GrapheneConfig(hammer_threshold=50_000))
    if scheme == "para":
        return para_factory(para_probability_for(50_000), seed=1234)
    if scheme == "twice":
        return twice_factory(50_000)
    if scheme == "cbt":
        return cbt_factory(50_000, num_counters=64, num_levels=8)
    if scheme == "refresh-rate":
        return increased_refresh_rate_factory(multiplier=2)
    if scheme == "comet":
        return comet_factory(50_000)
    if scheme == "abacus":
        return abacus_factory(50_000, total_banks=_MR_TOTAL)
    raise ValueError(f"no bench factory for scheme {scheme!r}")


def _hammer_trace(duration_ns: float) -> TraceArray:
    """Max-rate double-sided hammer on one bank (the worst case for the
    tracker: every ACT is a table hit and every tREFI ends in a REF
    blackout the scheduler must honor)."""
    acts = int(duration_ns / DDR4_2400.trc)
    rows = np.where(np.arange(acts) % 2 == 0, 100, 102).astype(np.int64)
    return pace_array(rows, DDR4_2400.trc)


def _round_robin_trace(duration_ns: float) -> TraceArray:
    """The same double-sided hammer striped across 8 banks with per-bank
    start offsets of tRC/8: consecutive global events alternate banks,
    so every contiguous same-bank run has length 1 -- the pathological
    case for run-at-a-time batching that the per-bank lane dispatch is
    built for."""
    acts_per_bank = int(duration_ns / DDR4_2400.trc)
    rows = np.where(
        np.arange(acts_per_bank) % 2 == 0, 100, 102
    ).astype(np.int64)
    lanes = [
        pace_array(
            rows,
            DDR4_2400.trc,
            bank=b,
            start_ns=b * (DDR4_2400.trc / _RR_BANKS),
        )
        for b in range(_RR_BANKS)
    ]
    return merge_arrays(*lanes)


def _multirank_acts(duration_ns: float) -> int:
    """Total event count of the multirank trace (whole bursts only).

    The per-bank duration is ``duration_ns / 4``: with 32 concurrently
    hammered banks the aggregate trace is still ~8x the single-bank
    hammer, which keeps the (slow) reference arm of every scheme inside
    a smoke-scale CI budget.
    """
    acts_per_bank = int(duration_ns / 4 / DDR4_2400.trc)
    acts_per_bank -= acts_per_bank % _MR_BURST
    return acts_per_bank * _MR_TOTAL


def _multirank_trace(duration_ns: float) -> TraceArray:
    """Double-sided hammers on all 32 banks of a 2-rank device.

    One ACT per tRC channel-wide, rotated across banks in 32-ACT
    bursts: every bank is live across the whole trace (real bank-level
    parallelism, 1/32nd of the channel rate each) while same-bank runs
    stay long enough that the columnar kernels, not the dispatcher,
    dominate.
    """
    n = _multirank_acts(duration_ns)
    idx = np.arange(n, dtype=np.int64)
    burst = idx // _MR_BURST
    within = idx % _MR_BURST
    bank = burst % _MR_TOTAL
    per_bank_index = (burst // _MR_TOTAL) * _MR_BURST + within
    rows = np.where(per_bank_index % 2 == 0, 100, 102).astype(np.int64)
    return TraceArray(
        time_ns=idx.astype(np.float64) * DDR4_2400.trc,
        bank=bank,
        row=rows,
    )


def _multirank_events(duration_ns: float):
    """The same multirank stream as a lazy generator (never more than
    one event alive at a time) -- the input for the streaming-memory
    probe.  Must stay in lockstep with :func:`_multirank_trace`."""
    n = _multirank_acts(duration_ns)
    for idx in range(n):
        burst, within = divmod(idx, _MR_BURST)
        per_bank_index = (burst // _MR_TOTAL) * _MR_BURST + within
        yield ActEvent(
            idx * DDR4_2400.trc,
            int(burst % _MR_TOTAL),
            100 if per_bank_index % 2 == 0 else 102,
        )


#: workload name -> (trace builder, banks per rank, ranks)
WORKLOADS = {
    "hammer-double-sided": (_hammer_trace, 1, 1),
    "rr8": (_round_robin_trace, _RR_BANKS, 1),
    "multirank32": (_multirank_trace, _MR_BANKS, _MR_RANKS),
}


def _timed(
    trace, scheme: str, workload: str, banks: int, ranks: int, fast: bool,
    chunk_events: int | None = None,
) -> tuple[float, dict]:
    # The TraceArray goes straight into simulate(): converting to event
    # objects first would bury the engine speedup under millions of
    # Python-object allocations that neither engine needs.
    start = time.perf_counter()
    result = simulate(
        trace,
        _factory(scheme),
        scheme=scheme,
        workload=workload,
        banks=banks,
        ranks=ranks,
        track_faults=False,
        fast=fast,
        chunk_events=chunk_events,
    )
    return time.perf_counter() - start, result.to_dict()


def _streaming_memory_probe(duration_ns: float) -> dict:
    """Peak working memory, whole vs chunked, on the lazily-generated
    multirank stream (graphene; the memory profile is scheme-blind).

    Whole-trace mode must materialize every column before the first
    kernel call; chunked mode holds one chunk's buffers at a time, so
    its peak stays flat no matter how long the trace runs.
    """
    n = _multirank_acts(duration_ns)
    chunk_events = max(1, n // _MR_CHUNKS)

    def _peak_mb(chunk: int | None) -> tuple[float, dict]:
        tracemalloc.start()
        try:
            result = simulate(
                _multirank_events(duration_ns),
                _factory("graphene"),
                scheme="graphene",
                workload="multirank32-stream",
                banks=_MR_BANKS,
                ranks=_MR_RANKS,
                track_faults=False,
                fast=True,
                chunk_events=chunk,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 1e6, result.to_dict()

    whole_mb, whole_result = _peak_mb(None)
    chunked_mb, chunked_result = _peak_mb(chunk_events)
    return {
        "acts": n,
        "chunk_events": chunk_events,
        "chunks": _MR_CHUNKS,
        "whole_peak_mb": round(whole_mb, 1),
        "chunked_peak_mb": round(chunked_mb, 1),
        "peak_ratio": round(whole_mb / chunked_mb, 2),
        "identical": whole_result == chunked_result,
    }


def run(duration_ns: float) -> dict:
    """Time every (scheme, workload) cell both ways; returns the payload."""
    workloads: dict[str, dict] = {}
    for workload, (build, banks, ranks) in WORKLOADS.items():
        trace = build(duration_ns)
        acts = len(trace)
        schemes: dict[str, dict] = {}
        for scheme in SCHEMES:
            has_kernel = kernel_for(_factory(scheme)(0, 4096)) is not None
            ref_seconds, ref_result = _timed(
                trace, scheme, workload, banks, ranks, fast=False
            )
            fast_seconds, fast_result = _timed(
                trace, scheme, workload, banks, ranks, fast=True
            )
            entry = {
                "has_kernel": has_kernel,
                "identical": ref_result == fast_result,
                "reference_seconds": round(ref_seconds, 4),
                "fast_seconds": round(fast_seconds, 4),
                "reference_acts_per_sec": round(acts / ref_seconds),
                "fast_acts_per_sec": round(acts / fast_seconds),
                "speedup": round(ref_seconds / fast_seconds, 2),
            }
            if workload == "multirank32":
                chunk_events = max(1, acts // _MR_CHUNKS)
                seconds, result = _timed(
                    trace, scheme, workload, banks, ranks, fast=True,
                    chunk_events=chunk_events,
                )
                entry["streaming"] = {
                    "chunk_events": chunk_events,
                    "chunks": _MR_CHUNKS,
                    "seconds": round(seconds, 4),
                    "acts_per_sec": round(acts / seconds),
                    "identical": result == ref_result,
                }
            schemes[scheme] = entry
        workloads[workload] = {
            "acts": acts,
            "banks": banks,
            "ranks": ranks,
            "total_banks": banks * ranks,
            "schemes": schemes,
        }
    return {
        "schema": SCHEMA,
        "duration_ns": duration_ns,
        "timings": "DDR4_2400",
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        "streaming_memory": _streaming_memory_probe(duration_ns),
    }


def _append_history(payload: dict) -> None:
    """One ``hotpath`` trajectory entry per run (best effort)."""
    from repro.bench.history import append_entry, hotpath_metrics

    metrics = hotpath_metrics(payload)
    if not metrics:
        return
    try:
        append_entry(
            "hotpath",
            metrics,
            path=os.environ.get("GRAPHENE_BENCH_HISTORY") or None,
            extra={
                "duration_ns": payload["duration_ns"],
                "cpu_count": payload["cpu_count"],
            },
        )
    except OSError:
        pass


def bench_hotpath(benchmark, bench_duration_ns):
    payload = benchmark.pedantic(
        run,
        kwargs=dict(duration_ns=bench_duration_ns),
        rounds=1,
        iterations=1,
    )
    OUTPUT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _append_history(payload)
    for workload, section in payload["workloads"].items():
        for scheme, entry in section["schemes"].items():
            # Every engine variant must serialize to the same result,
            # always, and every bench scheme carries a batched kernel.
            assert entry["identical"], f"{workload}/{scheme}: fast != reference"
            assert entry["has_kernel"], f"{workload}/{scheme}: kernel missing"
            if "streaming" in entry:
                assert entry["streaming"]["identical"], (
                    f"{workload}/{scheme}: streaming diverged"
                )
    memory = payload["streaming_memory"]
    assert memory["identical"], "streaming-memory probe diverged"
    # Chunked streaming must hold a fraction of the whole-trace peak
    # (the trace is 8 chunks; buffers and tracemalloc overhead keep the
    # ratio below the ideal 8x, but well above 2x).
    assert memory["peak_ratio"] >= 2.0, memory
    hammer = payload["workloads"]["hammer-double-sided"]["schemes"]
    rr8 = payload["workloads"]["rr8"]["schemes"]
    multirank = payload["workloads"]["multirank32"]["schemes"]
    # Smoke-scale gates (full tREFW scale lands near an order of
    # magnitude): the batched Graphene and PARA kernels on the 1-bank
    # hammer, and Graphene across the 8-bank round-robin interleave
    # where the lane dispatch does the work.
    assert hammer["graphene"]["speedup"] >= 2.0, payload
    assert hammer["para"]["speedup"] >= 2.0, payload
    assert rr8["graphene"]["speedup"] >= 2.0, payload
    assert multirank["graphene"]["speedup"] >= 2.0, payload
    # The ISSUE-8 schemes: batched kernels must pay for themselves on
    # the long-run hammer.  ABACuS used to bottom out at ~0.8x on rr8
    # (cross_bank forced single-lane scalar stepping when every
    # same-bank run had length 1); the vectorized banked lane commits
    # multi-bank windows in global order, so rr8 must now at least
    # break even at smoke scale (the full-tREFW artifact records >=2x).
    assert hammer["comet"]["speedup"] >= 2.0, payload
    assert hammer["abacus"]["speedup"] >= 2.0, payload
    assert rr8["abacus"]["speedup"] >= 1.0, payload


if __name__ == "__main__":
    import sys

    full = "--full" in sys.argv
    duration = DDR4_2400.trefw if full else DDR4_2400.trefw / 8
    payload = run(duration)
    OUTPUT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _append_history(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
