"""Tests for the experiment runner and the on-disk result cache.

Covers the contract the evaluation harness depends on:

* cache keys: identical specs hit, any perturbed field misses;
* corruption tolerance: a truncated/garbage entry is evicted and
  recomputed, never raised;
* bypass: a cache-less runner recomputes every time;
* determinism: parallel execution is bit-identical to serial;
* CLI wiring: ``--jobs`` / ``--no-cache`` / ``--cache-dir`` flags and
  the second-run cache-hit summary.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main
from repro.dram.timing import DDR4_2400
from repro.experiments import fig8, load
from repro.experiments import runner as runner_module
from repro.experiments.common import matrix_jobs, run_workload_matrix
from repro.experiments.runner import (
    ExperimentRunner,
    Job,
    get_runner,
    run_sim_spec,
    sim_job,
    using_engine,
    using_runner,
)
from repro.sim.cache import MISS, ResultCache, cache_key, canonical


def count_call(counter_path: str, value: int = 7, **_knobs) -> int:
    """Job target that records every real invocation in a file."""
    with open(counter_path, "a", encoding="utf-8") as handle:
        handle.write("x")
    return value


def sleep_for(seconds: float, **_knobs) -> float:
    """Job target that takes ``seconds`` of wall time."""
    import time

    time.sleep(seconds)
    return seconds


def bus_level(**_knobs) -> str:
    """Job target: the level of the telemetry bus the job runs under."""
    from repro.telemetry import runtime

    return runtime.BUS.level


def _counting_job(path, value: int = 7, **extra) -> Job:
    return Job(
        fn="tests.test_runner_cache:count_call",
        kwargs={"counter_path": str(path), "value": value, **extra},
    )


def _invocations(path) -> int:
    return len(path.read_text()) if path.exists() else 0


class TestCacheKey:
    def test_identical_specs_share_a_key(self):
        a = {"scheme": "graphene", "duration_ns": 2e6, "timings": DDR4_2400}
        b = {"timings": DDR4_2400, "duration_ns": 2e6, "scheme": "graphene"}
        assert cache_key(a) == cache_key(b)

    def test_any_perturbation_changes_the_key(self):
        base = dict(
            trace={"kind": "synthetic", "label": "S3"},
            factory=["scaling", "graphene"],
            duration_ns=2e6,
            seed=42,
            hammer_threshold=50_000,
            timings=DDR4_2400,
        )
        reference = cache_key(base)
        perturbations = [
            {"seed": 43},
            {"duration_ns": 4e6},
            {"hammer_threshold": 25_000},
            {"factory": ["scaling", "para"]},
            {"trace": {"kind": "synthetic", "label": "S1-10"}},
            {"timings": DDR4_2400.scaled(trc=46.0)},
        ]
        for change in perturbations:
            assert cache_key({**base, **change}) != reference, change

    def test_canonical_handles_spec_vocabulary(self):
        rendered = canonical(
            {"t": DDR4_2400, "xs": (1, 2.5), "flag": True, "none": None}
        )
        assert rendered["t"][0] == "DramTimings"
        assert rendered["xs"] == [1, "f:2.5"]

    def test_int_float_distinguished(self):
        assert cache_key({"x": 1}) != cache_key({"x": 1.0})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"job": 1})
        assert cache.get(key) is MISS
        cache.put(key, {"value": [1, 2, 3]})
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_truncated_entry_recomputes_not_crashes(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"job": "fragile"})
        cache.put(key, list(range(1000)))
        entry = next(iter(cache.entries()))
        entry.write_bytes(entry.read_bytes()[:10])  # truncate mid-pickle
        assert cache.get(key) is MISS
        assert cache.evictions == 1
        assert not entry.exists()  # bad entry evicted
        cache.put(key, "recomputed")
        assert cache.get(key) == "recomputed"

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"job": "garbage"})
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"this is not a pickle")
        assert cache.get(key) is MISS

    def test_cached_none_is_distinct_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"job": "null"})
        cache.put(key, None)
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(cache_key({"job": index}), index)
        assert cache.clear() == 3
        assert list(cache.entries()) == []


class TestRunner:
    def test_serial_executes_in_order(self, tmp_path):
        counter = tmp_path / "calls"
        runner = ExperimentRunner()
        results = runner.run(
            [_counting_job(counter, value=v) for v in (1, 2, 3)]
        )
        assert results == [1, 2, 3]
        assert _invocations(counter) == 3
        assert runner.stats.jobs == 3
        assert runner.stats.computed == 3

    def test_cache_hit_skips_execution(self, tmp_path):
        counter = tmp_path / "calls"
        runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
        job = _counting_job(counter)
        assert runner.run([job, job]) == [7, 7]
        # First occurrence computes, the duplicate in the same batch
        # recomputes too (keys resolve before any store)...
        first_batch = _invocations(counter)
        # ...but a fresh batch is a pure hit.
        assert runner.run([job]) == [7]
        assert _invocations(counter) == first_batch
        assert runner.stats.cache_hits >= 1

    def test_no_cache_recomputes(self, tmp_path):
        counter = tmp_path / "calls"
        runner = ExperimentRunner(cache=None)
        job = _counting_job(counter)
        runner.run([job])
        runner.run([job])
        assert _invocations(counter) == 2
        assert runner.stats.cache_hits == 0

    def test_uncacheable_job_bypasses_cache(self, tmp_path):
        counter = tmp_path / "calls"
        runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
        job = Job(
            fn="tests.test_runner_cache:count_call",
            kwargs={"counter_path": str(counter)},
            cacheable=False,
        )
        runner.run([job])
        runner.run([job])
        assert _invocations(counter) == 2

    def test_perturbed_kwargs_miss(self, tmp_path):
        counter = tmp_path / "calls"
        runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
        runner.run([_counting_job(counter, extra_knob=1)])
        runner.run([_counting_job(counter, extra_knob=2)])
        assert _invocations(counter) == 2

    def test_call_convenience(self, tmp_path):
        counter = tmp_path / "calls"
        value = get_runner().call(
            "tests.test_runner_cache:count_call",
            counter_path=str(counter), value=11,
        )
        assert value == 11

    def test_invalid_fn_paths(self):
        runner = ExperimentRunner()
        with pytest.raises(ValueError):
            runner.run([Job(fn="no-colon-here")])
        with pytest.raises(ValueError):
            runner.run([Job(fn="repro.experiments.runner:missing_fn")])

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=-1)
        assert ExperimentRunner(jobs=0).jobs >= 1  # 0 = all cores

    def test_stats_summary_format(self):
        runner = ExperimentRunner()
        runner.run([])
        assert "0 jobs" in runner.stats.summary()

    def test_parallel_job_seconds_exclude_queue_wait(self):
        """Under ``jobs=2`` each job is timed in its worker: the job
        seconds sum to at most workers x wall, although every job is
        submitted at once and most wait for a free worker."""
        seen = {}
        runner = ExperimentRunner(
            jobs=2,
            on_progress=lambda index, job, result, seconds, source: (
                seen.__setitem__(index, seconds)
            ),
        )
        batch = [
            Job(fn="tests.test_runner_cache:sleep_for",
                kwargs={"seconds": 0.1, "index": i})
            for i in range(8)
        ]
        runner.run(batch)
        seconds = [record.seconds for record in runner.stats.records]
        assert all(s >= 0.1 for s in seconds)
        assert sum(seconds) <= 2 * runner.stats.wall_seconds
        assert [seen[i] for i in range(8)] == seconds


SIM_SPEC = dict(
    trace={"kind": "synthetic", "label": "S3"},
    factory=["scaling", "graphene"],
    scheme="graphene",
    workload="S3",
    duration_ns=2e6,
    hammer_threshold=10_000,
)


class TestSimJobs:
    def test_sim_job_matches_direct_call(self):
        direct = run_sim_spec(**SIM_SPEC)
        via_runner = ExperimentRunner().run([sim_job(**SIM_SPEC)])[0]
        assert direct == via_runner

    def test_sim_job_cache_roundtrip(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        first = runner.run([sim_job(**SIM_SPEC)])[0]
        second = runner.run([sim_job(**SIM_SPEC)])[0]
        assert runner.stats.cache_hits == 1
        assert first == second  # unpickled result is bit-identical

    def test_cached_result_survives_pickle(self, tmp_path):
        result = run_sim_spec(**SIM_SPEC)
        assert pickle.loads(pickle.dumps(result)) == result


class TestJobTelemetryLevel:
    """Each traced job's bus runs at its parent bus's level, so a
    ``metrics`` parent keeps fast-engine jobs on the fast engine."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("per_act", [False, True])
    def test_job_buses_take_the_parent_level(self, jobs, per_act):
        from repro.telemetry import TelemetryBus, session

        batch = [
            Job(fn="tests.test_runner_cache:bus_level", kwargs={"index": i})
            for i in range(2)
        ]
        parent = TelemetryBus(events=per_act)
        with session(parent):
            levels = ExperimentRunner(jobs=jobs).run(batch)
        assert levels == [parent.level] * 2


class TestParallelDeterminism:
    WORKLOADS = {"omnetpp": "realistic", "S3": "synthetic"}

    def test_parallel_matrix_identical_to_serial(self):
        serial = run_workload_matrix(
            self.WORKLOADS, duration_ns=2e6,
            runner=ExperimentRunner(jobs=1),
        )
        parallel = run_workload_matrix(
            self.WORKLOADS, duration_ns=2e6,
            runner=ExperimentRunner(jobs=2),
        )
        for workload, entry in serial.items():
            for scheme, result in entry.items():
                assert parallel[workload][scheme] == result, (
                    workload, scheme,
                )

    def test_fig8_through_parallel_cached_runner(self, tmp_path):
        reference = fig8.run(
            duration_ns=2e6, realistic=("omnetpp",), adversarial=("S3",)
        )
        runner = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path))
        with using_runner(runner):
            fanned = fig8.run(
                duration_ns=2e6, realistic=("omnetpp",), adversarial=("S3",)
            )
            cached = fig8.run(
                duration_ns=2e6, realistic=("omnetpp",), adversarial=("S3",)
            )
        for workload in ("omnetpp", "S3"):
            for scheme in ("none", "para", "cbt", "twice", "graphene"):
                assert (
                    reference["matrix"][workload][scheme]
                    == fanned["matrix"][workload][scheme]
                    == cached["matrix"][workload][scheme]
                ), (workload, scheme)
        # Second run resolved entirely from cache.
        assert runner.stats.cache_hits == 10

    def test_analytic_experiments_cache(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        with using_runner(runner):
            first = load("table2").run()
            second = load("table2").run()
        assert first == second
        assert runner.stats.cache_hits == 1


class TestCliFlags:
    def test_experiment_flags_parse(self, tmp_path):
        code = main([
            "experiment", "table4", "--jobs", "2", "--no-cache", "--quiet",
        ])
        assert code == 0

    def test_second_cli_run_is_a_cache_hit(self, tmp_path, capsys):
        argv = [
            "experiment", "table2", "--cache-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(0 cached, 1 computed)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(1 cached, 0 computed)" in second
        assert "12,500" in second  # cached output is still correct

    def test_cli_runner_does_not_leak(self, tmp_path):
        before = get_runner()
        main(["experiment", "table4", "--cache-dir", str(tmp_path),
              "--quiet"])
        assert get_runner() is before


class TestTraceMemo:
    """The cells of one matrix row share one generated trace."""

    WORKLOADS = {"omnetpp": "realistic", "S3": "synthetic"}

    @staticmethod
    def _count_generators(monkeypatch) -> list[str]:
        from repro.workloads import spec_like, synthetic

        calls: list[str] = []
        for module, name in ((spec_like, "profile_array"),
                             (synthetic, "synthetic_array")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def _batch(self):
        return matrix_jobs(self.WORKLOADS, ("para", "graphene"),
                           duration_ns=2e5)

    def test_a_row_builds_its_trace_once(self, monkeypatch):
        calls = self._count_generators(monkeypatch)
        ExperimentRunner().run(self._batch())
        assert calls == ["profile_array", "synthetic_array"]

    def test_every_batch_starts_and_ends_empty(self, monkeypatch):
        calls = self._count_generators(monkeypatch)
        runner = ExperimentRunner()
        runner.run(self._batch())
        assert runner_module._trace_memo == []
        runner.run(self._batch())
        assert len(calls) == 4

    def test_capability_matrix_builds_two_traces(self, monkeypatch):
        """The matrix alternates each scheme's attack and benign cells;
        the memo's two slots make that two builds per batch."""
        from repro.experiments import capability_matrix

        calls = self._count_generators(monkeypatch)
        with using_engine("fast"):
            capability_matrix.run(duration_ns=2e5)
        assert sorted(calls) == ["profile_array", "synthetic_array"]

    def test_fig8_builds_one_trace_per_row(self, monkeypatch):
        calls = self._count_generators(monkeypatch)
        with using_engine("fast"):
            fig8.run(duration_ns=2e5, realistic=("omnetpp", "mcf"),
                     adversarial=("S3",))
        assert calls == ["profile_array", "profile_array", "synthetic_array"]

    def test_memo_keeps_the_two_most_recent_traces(self):
        specs = [
            ({"kind": "synthetic", "label": label}, label, 1e5, 42,
             DDR4_2400, 65536)
            for label in ("S1-10", "S3", "S4")
        ]
        try:
            first, second, third = (
                runner_module._build_trace(*spec) for spec in specs
            )
            assert runner_module._build_trace(*specs[1]) is second
            assert runner_module._build_trace(*specs[2]) is third
            assert runner_module._build_trace(*specs[0]) is not first
            assert len(runner_module._trace_memo) == 2
        finally:
            runner_module._trace_memo.clear()

    def test_memoized_columns_are_read_only(self):
        spec = ({"kind": "synthetic", "label": "S3"}, "S3", 1e5, 42,
                DDR4_2400, 65536)
        try:
            trace = runner_module._build_trace(*spec)
            assert runner_module._build_trace(*spec) is trace
            for column in (trace.time_ns, trace.bank, trace.row):
                with pytest.raises(ValueError):
                    column[0] = 1
        finally:
            runner_module._trace_memo.clear()

    def test_two_workers_match_serial_on_the_fast_engine(self):
        with using_engine("fast"):
            serial = ExperimentRunner(jobs=1).run(self._batch())
            parallel = ExperimentRunner(jobs=2).run(self._batch())
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial
        ]
