"""Tests for the telemetry layer (registry, bus, sampler, exporters).

Covers the contracts the observability layer promises:

* disabled mode is free: no bus installed means no event allocation on
  the ACT hot path, and a disabled registry hands out one shared
  no-op metric object;
* the engine publishes the full event vocabulary (insert, evict,
  spillover, window reset) with correct payloads;
* parallel runs are deterministic: ``--jobs 4`` produces the same
  merged event stream as serial execution;
* exporters: JSONL round-trips events exactly; the Chrome trace is
  valid JSON with monotonically non-decreasing timestamps;
* ``SimulationResult`` serialization round-trips through ``to_dict``
  and through the on-disk result cache.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.core.config import GrapheneConfig
from repro.core.graphene import GrapheneEngine
from repro.experiments.runner import ExperimentRunner, sim_job
from repro.mitigations import no_mitigation_factory
from repro.sim.cache import MISS, ResultCache
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import simulate
from repro.telemetry import (
    NULL_METRIC,
    MetricsRegistry,
    TelemetryBus,
    TimeSeriesSampler,
    session,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.events import (
    NrrEmit,
    SpilloverBump,
    TableEvict,
    TableInsert,
    WindowReset,
    event_from_record,
    event_record,
)
from repro.telemetry.export import iter_jsonl
from repro.telemetry import runtime
from repro.analysis.scaling import scheme_factories
from repro.workloads.adversarial import double_sided_rows
from repro.workloads.synthetic import synthetic_events


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_disabled_registry_returns_shared_null_metric():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("a") is NULL_METRIC
    assert registry.counter("b") is NULL_METRIC
    assert registry.gauge("c") is NULL_METRIC
    assert registry.histogram("d") is NULL_METRIC
    NULL_METRIC.inc()
    NULL_METRIC.set(5)
    NULL_METRIC.observe(3.0)
    assert NULL_METRIC.value == 0


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("acts").inc()
    registry.counter("acts").inc(4)
    registry.gauge("occupancy").set(17)
    for value in (1, 2, 1000):
        registry.histogram("delay").observe(value)
    snap = registry.snapshot()
    assert snap["counters"]["acts"] == 5
    assert snap["gauges"]["occupancy"] == 17
    assert snap["histograms"]["delay"]["count"] == 3

    other = MetricsRegistry()
    other.counter("acts").inc(10)
    other.merge(snap)
    assert other.counter("acts").value == 15


# ----------------------------------------------------------------------
# Disabled-mode hot path
# ----------------------------------------------------------------------


def test_disabled_mode_publishes_nothing_and_stays_fast():
    assert runtime.BUS is None
    engine = GrapheneEngine(GrapheneConfig(hammer_threshold=50_000))
    start = time.perf_counter()
    for index in range(20_000):
        engine.on_activate(index % 64, float(index) * 50.0)
    elapsed = time.perf_counter() - start
    # Pure sanity bound: the disabled path is one branch per ACT, so
    # 20k ACTs must finish far inside this ceiling even on slow CI.
    assert elapsed < 2.0
    assert engine.stats.activations == 20_000


def test_session_installs_and_restores_bus():
    assert runtime.BUS is None
    bus = TelemetryBus()
    with session(bus):
        assert runtime.BUS is bus
        inner = TelemetryBus()
        with session(inner):
            assert runtime.BUS is inner
        assert runtime.BUS is bus
    assert runtime.BUS is None


# ----------------------------------------------------------------------
# Engine event emission
# ----------------------------------------------------------------------


def test_engine_emits_insert_evict_spillover_and_reset():
    config = GrapheneConfig(hammer_threshold=50_000)
    capacity = config.num_entries
    engine = GrapheneEngine(config, bank=3)
    bus = TelemetryBus()
    with session(bus):
        for row in range(capacity):  # fill the table
            engine.on_activate(row, 10.0)
        engine.on_activate(60_000, 20.0)  # miss: spillover 0 -> 1
        engine.on_activate(60_001, 30.0)  # miss: evicts the min key
        engine.on_activate(0, config.reset_window_ns + 1.0)

    inserts = [e for e in bus.events if isinstance(e, TableInsert)]
    bumps = [e for e in bus.events if isinstance(e, SpilloverBump)]
    evicts = [e for e in bus.events if isinstance(e, TableEvict)]
    resets = [e for e in bus.events if isinstance(e, WindowReset)]

    # capacity inserts filling the table, one replacing the evictee,
    # one fresh insert after the window reset.
    assert len(inserts) == capacity + 2
    assert [b.spillover for b in bumps] == [1]
    assert len(evicts) == 1
    assert evicts[0].row == 0  # deterministic min-key eviction
    assert evicts[0].new_row == 60_001
    assert evicts[0].inherited_count == 1
    assert evicts[0].bank == 3
    assert len(resets) == 1
    assert resets[0].tracked_rows == capacity
    assert resets[0].spillover == 1
    # The bus also tallies per-type counters.
    metrics = bus.registry.snapshot()["counters"]
    assert metrics["events.TableInsert"] == capacity + 2
    assert metrics["events.WindowReset"] == 1


def test_simulation_emits_nrr_events_in_time_order():
    duration_ns = 0.2 * 1e6
    factory = scheme_factories(400, reset_window_divisor=8)["graphene"]
    bus = TelemetryBus()
    with session(bus):
        result = simulate(
            synthetic_events(double_sided_rows(victim=1000),
                             duration_ns=duration_ns),
            factory,
            scheme="graphene",
            workload="double-sided",
            hammer_threshold=400,
            duration_ns=duration_ns,
        )
    nrrs = [e for e in bus.events if isinstance(e, NrrEmit)]
    assert nrrs, "a hammered run must emit NRR events"
    assert len(nrrs) == result.victim_refresh_directives
    assert sum(e.victim_rows for e in nrrs) == result.victim_rows_refreshed
    # The stream is publish-ordered; each event type is emitted in
    # simulated-time order (the Chrome exporter sorts globally).
    per_type: dict[type, float] = {}
    for event in bus.events:
        assert event.time_ns >= per_type.get(type(event), 0.0)
        per_type[type(event)] = event.time_ns
    text = summarize(bus.events, bus.registry.snapshot(), bus.dropped)
    assert "NrrEmit" in text


def test_bus_event_cap_counts_drops():
    bus = TelemetryBus(max_events=2)
    with session(bus):
        for index in range(5):
            bus.publish(SpilloverBump(time_ns=float(index), bank=0,
                                      row=index, spillover=index))
    assert len(bus.events) == 2
    assert bus.dropped == 3
    assert bus.registry.counter("events.dropped").value == 3


def test_absorb_event_cap_counts_drops():
    """Events dropped while absorbing a job's state count in the
    registry too, not only in ``bus.dropped``."""
    worker = TelemetryBus()
    for index in range(5):
        worker.publish(SpilloverBump(time_ns=float(index), bank=0,
                                     row=index, spillover=index))
    bus = TelemetryBus(max_events=2)
    bus.absorb(worker.export_state(), job="cell")
    assert len(bus.events) == 2
    assert bus.dropped == 3
    assert bus.registry.counter("events.dropped").value == 3


def test_metrics_level_bus_takes_no_per_act_events():
    """A ``metrics`` bus keeps the scheduler's counters and histogram
    but none of the per-ACT records an ``events`` bus retains."""
    rows = double_sided_rows(victim=1000)
    factory = scheme_factories(400)["graphene"]
    buses = {}
    for per_act in (True, False):
        buses[per_act] = bus = TelemetryBus(events=per_act)
        with session(bus):
            simulate(synthetic_events(rows, duration_ns=2e6), factory,
                     scheme="graphene", workload="double-sided")
    events, metrics = buses[True], buses[False]
    assert (events.level, metrics.level) == ("events", "metrics")
    assert {type(e).__name__ for e in events.events} >= {
        "TableInsert", "NrrEmit", "SchedStall",
    }
    assert metrics.events == []
    assert metrics.registry.snapshot() == {
        "counters": {
            name: value
            for name, value in events.registry.snapshot()["counters"].items()
            if name.startswith("sched.")
        },
        "gauges": {},
        "histograms": events.registry.snapshot()["histograms"],
    }


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------


def test_sampler_buckets_events_and_probes():
    sampler = TimeSeriesSampler(100.0)
    occupancy = {"value": 0}
    sampler.add_probe("bank0", lambda: {"occupancy": occupancy["value"]})
    sampler.observe(TableInsert(time_ns=10.0, bank=0, row=1, count=1))
    occupancy["value"] = 1
    sampler.observe(TableInsert(time_ns=50.0, bank=0, row=2, count=1))
    occupancy["value"] = 2
    sampler.observe(
        NrrEmit(time_ns=150.0, bank=0, aggressor_row=1, victim_rows=2)
    )
    sampler.finish(200.0)
    samples = sampler.samples
    assert len(samples) >= 2
    first, second = samples[0], samples[1]
    assert first["events"] == 2
    assert second["nrr_commands"] == 1
    assert second["nrr_rows"] == 2
    assert first["bank0"] == {"occupancy": 2}


# ----------------------------------------------------------------------
# Determinism across worker counts
# ----------------------------------------------------------------------


def _tiny_jobs():
    return [
        sim_job(
            trace={"kind": "synthetic", "label": pattern},
            factory=["scaling", "graphene"],
            scheme="graphene",
            workload=pattern,
            duration_ns=0.05 * 1e6,
            hammer_threshold=400,
            track_faults=False,
            label=f"tiny/{pattern}",
        )
        for pattern in ("S2", "S3", "S1-10", "S4")
    ]


def test_parallel_event_stream_matches_serial():
    streams = {}
    for jobs in (1, 4):
        bus = TelemetryBus()
        with session(bus):
            runner = ExperimentRunner(jobs=jobs, cache=None,
                                      progress=False)
            results = runner.run(_tiny_jobs())
        assert len(results) == 4
        streams[jobs] = [event_record(e) for e in bus.events]
        assert any(r["type"] == "NrrEmit" for r in streams[jobs])
    assert streams[1] == streams[4]


def test_absorb_tags_events_with_job_label():
    worker = TelemetryBus()
    with session(worker):
        worker.publish(TableInsert(time_ns=1.0, bank=0, row=7, count=1))
    parent = TelemetryBus()
    parent.absorb(worker.export_state(), job="cell-a")
    assert parent.events[0].job == "cell-a"
    assert parent.events[0].row == 7


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_events():
    return [
        TableInsert(time_ns=10.0, bank=0, row=5, count=1),
        SpilloverBump(time_ns=20.0, bank=1, row=9, spillover=3),
        NrrEmit(time_ns=30.0, bank=0, aggressor_row=5, victim_rows=2),
        WindowReset(time_ns=40.0, bank=0, window=1, tracked_rows=12,
                    spillover=3),
    ]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    events = _sample_events()
    lines = write_jsonl(events, path, run_summary={"acts": 3})
    assert lines == len(events) + 1
    loaded = list(iter_jsonl(path))
    assert [event_record(e) for e in loaded[:-1]] == [
        event_record(e) for e in events
    ]
    assert loaded[-1]["type"] == "RunSummary"
    assert loaded[-1]["acts"] == 3


def test_event_record_round_trip():
    for event in _sample_events():
        assert event_from_record(event_record(event)) == event
    with pytest.raises((TypeError, ValueError, KeyError)):
        event_from_record({"type": "TableInsert", "bogus": 1,
                           "time_ns": 0.0, "bank": 0, "row": 0,
                           "count": 1})


def test_chrome_trace_is_valid_and_monotonic(tmp_path):
    path = tmp_path / "trace.json"
    samples = [
        {"time_ns": 100.0, "events": 2, "nrr_commands": 0,
         "nrr_rows": 0},
        {"time_ns": 200.0, "events": 1, "nrr_commands": 1,
         "nrr_rows": 2},
    ]
    write_chrome_trace(_sample_events(), path, samples=samples)
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data["traceEvents"]
    assert entries
    stamps = [e["ts"] for e in entries if e["ph"] != "M"]
    assert stamps == sorted(stamps)
    phases = {e["ph"] for e in entries}
    assert "i" in phases and "C" in phases


# ----------------------------------------------------------------------
# SimulationResult serialization + cache round-trip
# ----------------------------------------------------------------------


def _small_result():
    duration_ns = 0.05 * 1e6
    return simulate(
        synthetic_events(double_sided_rows(victim=500),
                         duration_ns=duration_ns),
        no_mitigation_factory(),
        scheme="none",
        workload="double-sided",
        hammer_threshold=1_000,
        duration_ns=duration_ns,
        track_faults=False,
    )


def test_simulation_result_dict_round_trip():
    result = _small_result()
    payload = result.to_dict()
    json.dumps(payload)  # must be JSON-able
    assert SimulationResult.from_dict(payload) == result


def test_cache_round_trips_simulation_result(tmp_path):
    cache = ResultCache(tmp_path)
    result = _small_result()
    cache.put("k" * 64, result)
    loaded = cache.get("k" * 64)
    assert loaded is not MISS
    assert loaded == result
    assert isinstance(loaded, SimulationResult)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_trace_writes_artifacts(tmp_path, capsys):
    jsonl = tmp_path / "out.jsonl"
    chrome = tmp_path / "out.trace.json"
    code = main([
        "trace", "double-sided", "graphene",
        "--trh", "200", "--duration-ms", "0.1",
        "--jsonl-out", str(jsonl), "--chrome-out", str(chrome),
    ])
    assert code == 0
    assert runtime.BUS is None  # session uninstalled afterwards
    types = {
        record.get("type")
        for record in (
            json.loads(line)
            for line in jsonl.read_text(encoding="utf-8").splitlines()
        )
    }
    assert "TableInsert" in types
    assert "NrrEmit" in types
    assert "RunSummary" in types
    data = json.loads(chrome.read_text(encoding="utf-8"))
    assert data["traceEvents"]
    out = capsys.readouterr().out
    assert "NrrEmit" in out


def test_cli_trace_legacy_out_mode(tmp_path):
    out = tmp_path / "acts.trace"
    code = main([
        "trace", "--workload", "omnetpp", "--duration-ms", "0.2",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("#")


def test_cli_experiment_telemetry_flags(tmp_path, capsys):
    trace_dir = tmp_path / "telemetry"
    code = main([
        "experiment", "table2", "--no-cache", "--quiet",
        "--telemetry", "--trace-out", str(trace_dir),
    ])
    assert code == 0
    assert (trace_dir / "events.jsonl").exists()
    assert (trace_dir / "trace.json").exists()
    out = capsys.readouterr().out
    assert "[runner:" in out
    assert "telemetry:" in out


def test_parallel_jsonl_export_is_byte_identical_to_serial(tmp_path):
    """The end-to-end --jobs N promise: not just equal event objects,
    but byte-identical merged JSONL files (and identical samples),
    because ordering, job labels and float formatting all survive the
    process-pool round trip."""
    paths = {}
    samples = {}
    for jobs in (1, 2):
        bus = TelemetryBus()
        with session(bus):
            runner = ExperimentRunner(
                jobs=jobs, cache=None, progress=False,
                sample_interval_ns=10_000.0,
            )
            results = runner.run(_tiny_jobs())
        assert len(results) == 4
        path = tmp_path / f"events-jobs{jobs}.jsonl"
        write_jsonl(bus.events, path)
        paths[jobs] = path
        samples[jobs] = bus.all_samples()
    serial = paths[1].read_bytes()
    parallel = paths[2].read_bytes()
    assert serial, "traced runs must produce events"
    assert serial == parallel
    assert samples[1] == samples[2]


# ----------------------------------------------------------------------
# Forward compatibility: logs from a newer version of the repo
# ----------------------------------------------------------------------


def test_unknown_event_types_round_trip_through_jsonl(tmp_path):
    """A log written by a newer version (with event types this reader
    does not know) streams through iter_jsonl as plain dicts and
    re-exports byte-identically -- an old reader can filter and relay
    a newer log without understanding it."""
    path = tmp_path / "future.jsonl"
    foreign = [
        {"type": "LaneMigration", "time_ns": 5.0, "from_lane": 1,
         "to_lane": 3, "job": "w1"},
        {"type": "ThermalSample", "time_ns": 9.5, "celsius": 61.2,
         "extra": {"nested": [1, 2, 3]}},
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for record in foreign:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    recovered = list(iter_jsonl(path))
    assert recovered == foreign
    assert all(isinstance(r, dict) for r in recovered)

    again = tmp_path / "relay.jsonl"
    write_jsonl(recovered, again)
    assert again.read_bytes() == path.read_bytes()


def test_known_type_with_unexpected_fields_degrades_to_dict(tmp_path):
    path = tmp_path / "newer-fields.jsonl"
    record = {"type": "TableInsert", "time_ns": 1.0, "bank": 0,
              "row": 7, "count": 1, "job": None,
              "added_by_a_newer_version": True}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (recovered,) = iter_jsonl(path)
    assert isinstance(recovered, dict)
    assert recovered == record
    # The strict default still refuses, so tests catch schema drift.
    with pytest.raises(ValueError):
        event_from_record(record)


def test_chrome_trace_accepts_foreign_records(tmp_path):
    """Mixed typed + dict streams (what iter_jsonl yields for a newer
    log) must export to a valid Chrome trace, not crash."""
    events = [
        TableInsert(time_ns=1.0, bank=0, row=7, count=1),
        {"type": "LaneMigration", "time_ns": 2.0, "from_lane": 1,
         "to_lane": 3},
        {"type": "NoTimestamp", "time_ns": "not-a-number"},
    ]
    path = tmp_path / "trace.json"
    count = write_chrome_trace(events, path)
    assert count == 3
    payload = json.loads(path.read_text(encoding="utf-8"))
    names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "i"]
    assert "LaneMigration" in names and "NoTimestamp" in names
    stamps = [e["ts"] for e in payload["traceEvents"] if e["ph"] == "i"]
    assert stamps == sorted(stamps)


def test_oracle_violation_survives_export_import_byte_identically(tmp_path):
    from repro.telemetry.events import OracleViolation

    violations = [
        OracleViolation(time_ns=123.0, subject="graphene", kind="theorem",
                        generator="uniform", seed=7, step=42, job="cell-1"),
        OracleViolation(time_ns=456.5, subject="tracker:count-min",
                        kind="gap", generator="burst", seed=9),
    ]
    path = tmp_path / "violations.jsonl"
    write_jsonl(violations, path)

    recovered = list(iter_jsonl(path))
    assert recovered == violations
    assert all(type(v) is OracleViolation for v in recovered)

    again = tmp_path / "again.jsonl"
    write_jsonl(recovered, again)
    assert again.read_bytes() == path.read_bytes()


def test_summarize_jsonl_streams_and_tallies_foreign_types(tmp_path):
    from repro.telemetry import summarize_jsonl

    path = tmp_path / "mixed.jsonl"
    events = [TableInsert(time_ns=float(i), bank=0, row=i, count=1)
              for i in range(3)]
    write_jsonl(events, path, run_summary={"scheme": "graphene"})
    text = summarize_jsonl(path)
    assert "4 events" in text  # 3 inserts + the RunSummary record
    assert "TableInsert" in text
    assert "RunSummary" in text
