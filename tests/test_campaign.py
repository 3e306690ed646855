"""Tests for the campaign subsystem: grids, manifests, driver, report.

The load-bearing contract is resume-without-recompute: a campaign
killed mid-sweep and resumed must compute only cells the manifest has
no completed record for, provable by comparing the resume run's
computed-key set against the first run's completed keys (both are the
PR-1 content-addressed cache keys).  Around that core: spec expansion
and serialization, manifest durability semantics (last record wins,
torn lines tolerated), the wall-clock progress sampler, per-cell
failure isolation, HTML report rendering, and the CLI wiring with its
interrupted/failed/complete exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignDriver,
    CampaignManifest,
    CampaignSpec,
    CellRecord,
    ProgressSampler,
    load_spec,
    write_report,
)
from repro.campaign.driver import METRICS_RECORD
from repro.campaign.progress import format_eta
from repro.campaign.report import _telemetry_rollup
from repro.cli import main
from repro.telemetry.events import OracleViolation
from repro.telemetry.export import iter_jsonl

TINY = {
    "name": "tiny",
    "schemes": ["graphene", "para"],
    "workloads": ["mcf", "S3"],
    "thresholds": [4000],
    "duration_ms": 0.2,
}


def tiny_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**TINY, **overrides})


# ----------------------------------------------------------------------
# Grid specs
# ----------------------------------------------------------------------


class TestCampaignSpec:
    def test_expansion_is_the_full_cartesian_product(self):
        spec = tiny_spec(
            thresholds=[4000, 8000],
            timing_grids={"ddr4-2400": {}, "slow-trc": {"trc": 50.0}},
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        assert len({cell.cell_id for cell in cells}) == len(cells)
        assert cells[0].cell_id == "ddr4-2400/trh=4000/mcf/graphene"

    def test_workload_kinds_inferred_from_label_lists(self):
        spec = tiny_spec()
        kinds = dict(spec.workloads)
        assert kinds == {"mcf": "realistic", "S3": "synthetic"}

    def test_timing_grid_overrides_reach_the_cells(self):
        spec = tiny_spec(timing_grids={"slow": {"trc": 60.0}})
        cell = spec.cells()[0]
        assert cell.timings.trc == 60.0

    def test_cell_key_is_the_runner_job_cache_key(self):
        cell = tiny_spec().cells()[0]
        assert cell.key() == cell.job().key()

    def test_round_trip_preserves_digest(self):
        spec = tiny_spec()
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.digest() == spec.digest()

    def test_duration_ms_shorthand(self):
        assert tiny_spec().duration_ns == pytest.approx(0.2e6)

    @pytest.mark.parametrize(
        "bad",
        [
            {"schemes": ["not-a-scheme"]},
            {"schemes": []},
            {"workloads": ["not-a-workload"]},
            {"thresholds": []},
            {"engine": "warp"},
            {"duration_ms": -1},
            {"bogus_field": 1},
            {"schema": 99},
        ],
    )
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({**TINY, **bad})

    def test_load_spec_reads_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY), encoding="utf-8")
        assert load_spec(path).digest() == tiny_spec().digest()

    def test_spec_file_with_removed_shard_workers_is_rejected(self, tmp_path):
        """Specs written for the removed lane-sharding knob fail loudly
        instead of silently running unsharded."""
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({**TINY, "engine": "fast", "shard_workers": 2}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            load_spec(path)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


def _record(cell_id: str, status: str = "completed", **kw) -> CellRecord:
    defaults = dict(
        key=f"key-{cell_id}",
        seconds=1.0,
        source="computed",
        scheme="graphene",
        workload="mcf",
        hammer_threshold=4000,
        timing_grid="ddr4-2400",
        acts=100,
    )
    defaults.update(kw)
    return CellRecord(cell_id=cell_id, status=status, **defaults)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = CampaignManifest.create(
            tmp_path / "c", {"name": "x"}, "digest", total_cells=3
        )
        manifest.record_cell(_record("a"))
        manifest.record_cell(_record("b", status="failed", error="boom"))
        manifest.record_heartbeat({"completed": 1})

        again = CampaignManifest.open(tmp_path / "c")
        assert again.spec_digest == "digest"
        assert again.total_cells == 3
        assert set(again.completed()) == {"a"}
        assert again.failed()["b"].error == "boom"
        assert again.status_counts() == {
            "total": 3, "completed": 1, "failed": 1, "pending": 1,
        }

    def test_last_record_wins(self, tmp_path):
        manifest = CampaignManifest.create(
            tmp_path / "c", {}, "d", total_cells=1
        )
        manifest.record_cell(_record("a", status="failed", error="flaky"))
        manifest.record_cell(_record("a", status="completed"))
        again = CampaignManifest.open(tmp_path / "c")
        assert set(again.completed()) == {"a"}
        assert not again.failed()

    def test_torn_final_line_is_tolerated(self, tmp_path):
        manifest = CampaignManifest.create(
            tmp_path / "c", {}, "d", total_cells=2
        )
        manifest.record_cell(_record("a"))
        with open(manifest.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell": "b", "trunc')
        again = CampaignManifest.open(tmp_path / "c")
        assert set(again.cells) == {"a"}

    def test_unknown_line_types_replay_as_noops(self, tmp_path):
        manifest = CampaignManifest.create(
            tmp_path / "c", {}, "d", total_cells=1
        )
        with open(manifest.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "from-the-future", "x": 1}\n')
        assert CampaignManifest.open(tmp_path / "c").cells == {}

    def test_create_refuses_to_clobber(self, tmp_path):
        CampaignManifest.create(tmp_path / "c", {}, "d", total_cells=1)
        with pytest.raises(FileExistsError):
            CampaignManifest.create(tmp_path / "c", {}, "d", total_cells=1)

    def test_completed_keys(self, tmp_path):
        manifest = CampaignManifest.create(
            tmp_path / "c", {}, "d", total_cells=2
        )
        manifest.record_cell(_record("a", key="ka"))
        manifest.record_cell(_record("b", key="kb", status="failed"))
        assert manifest.completed_keys() == {"ka"}


# ----------------------------------------------------------------------
# Progress sampler
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestProgressSampler:
    def test_rates_eta_and_utilization(self):
        clock = FakeClock()
        sampler = ProgressSampler(total_cells=4, workers=2, clock=clock)
        clock.now += 2.0
        sampler.cell_finished(
            scheme="graphene", seconds=2.0, source="computed", acts=1000
        )
        clock.now += 2.0
        sampler.cell_finished(
            scheme="graphene", seconds=2.0, source="computed", acts=1000
        )
        # 2 cells in 4 s -> 0.5 cells/s; 2 pending -> ETA 4 s.
        assert sampler.cells_per_second() == pytest.approx(0.5)
        assert sampler.eta_seconds() == pytest.approx(4.0)
        # 4 busy seconds over 4 s x 2 workers.
        assert sampler.utilization() == pytest.approx(0.5)
        snapshot = sampler.snapshot({"hits": 3, "misses": 1})
        assert snapshot["schemes"]["graphene"]["acts_per_sec"] == (
            pytest.approx(500.0)
        )
        assert snapshot["cache_hits"] == 3

    def test_cached_and_failed_cells(self):
        clock = FakeClock()
        sampler = ProgressSampler(total_cells=2, clock=clock)
        sampler.cell_finished(scheme="para", seconds=0.01, source="cache")
        sampler.cell_finished(
            scheme="para", seconds=0.0, source="computed", failed=True
        )
        snapshot = sampler.snapshot()
        assert snapshot["cached"] == 1
        assert snapshot["failed"] == 1
        assert snapshot["pending"] == 0
        # Cached cells contribute no busy time or throughput.
        assert "para" not in snapshot["schemes"] or (
            snapshot["schemes"]["para"]["cells"] == 0
        )

    def test_observe_event_collects_violations(self):
        sampler = ProgressSampler(total_cells=1, clock=FakeClock())
        sampler.observe_event(
            OracleViolation(
                time_ns=0.0, subject="graphene", kind="theorem",
                generator="uniform", seed=7,
            )
        )
        snapshot = sampler.snapshot()
        assert snapshot["violations"] == 1
        assert "graphene/theorem" in snapshot["recent_violations"][0]

    def test_render_is_plain_text_lines(self):
        clock = FakeClock()
        sampler = ProgressSampler(total_cells=2, clock=clock)
        clock.now += 1.0
        sampler.cell_finished(
            scheme="graphene", seconds=1.0, source="computed", acts=500
        )
        lines = ProgressSampler.render(sampler.snapshot(), name="t")
        text = "\n".join(lines)
        assert "campaign t: 1/2 cells" in text
        assert "graphene" in text
        assert "\x1b" not in text

    def test_format_eta(self):
        assert format_eta(None) == "--:--"
        assert format_eta(3725) == "1:02:05"
        assert format_eta(0) == "0:00:00"


# ----------------------------------------------------------------------
# Driver: resume without recompute
# ----------------------------------------------------------------------


class TestDriver:
    def test_interrupt_then_resume_recomputes_nothing(self, tmp_path):
        directory = tmp_path / "camp"
        spec = tiny_spec()

        first = CampaignDriver.start(spec, directory, heartbeat_s=0.0)
        summary1 = first.run(max_cells=2)
        assert summary1["status"] == "interrupted"
        assert len(summary1["computed_keys"]) == 2
        completed_before = CampaignManifest.open(directory).completed_keys()

        second = CampaignDriver.resume(directory, heartbeat_s=0.0)
        summary2 = second.run()
        assert summary2["status"] == "completed"
        assert summary2["cells_skipped"] == 2
        # THE invariant: nothing the first run completed was recomputed.
        assert not set(summary2["computed_keys"]) & completed_before
        assert summary2["manifest"]["completed"] == 4

    def test_resume_rejects_a_different_spec(self, tmp_path):
        directory = tmp_path / "camp"
        CampaignDriver.start(tiny_spec(), directory)
        manifest = CampaignManifest.open(directory)
        with pytest.raises(ValueError, match="does not match"):
            CampaignDriver(tiny_spec(seed=7), manifest)

    def test_failed_cells_are_isolated_and_recorded(self, tmp_path):
        # "bogus" passes spec validation via the explicit-kind form but
        # fails in the worker; its batch-mates must still complete.
        spec = CampaignSpec.from_dict(
            {
                **TINY,
                "schemes": ["graphene"],
                "workloads": {"mcf": "realistic", "bogus": "realistic"},
            }
        )
        driver = CampaignDriver.start(spec, tmp_path / "camp")
        summary = driver.run()
        assert summary["status"] == "completed-with-failures"
        assert summary["manifest"] == {
            "total": 2, "completed": 1, "failed": 1, "pending": 0,
        }
        manifest = CampaignManifest.open(tmp_path / "camp")
        (failure,) = manifest.failed().values()
        assert failure.workload == "bogus"
        assert failure.error

    def test_telemetry_stream_is_appended(self, tmp_path):
        driver = CampaignDriver.start(
            tiny_spec(schemes=["graphene"], workloads=["S3"]),
            tmp_path / "camp",
        )
        driver.run()
        lines = (
            (tmp_path / "camp" / "telemetry.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert lines
        assert all(json.loads(line)["type"] for line in lines[:10])

    def test_cells_run_on_the_fast_engine_under_a_metrics_bus(
        self, tmp_path
    ):
        """The stream holds job-level events and metrics records only:
        no per-ACT event, and every cell on the fast engine."""
        directory = tmp_path / "camp"
        CampaignDriver.start(tiny_spec(engine="fast"), directory).run()
        records = [
            json.loads(line)
            for line in (directory / "telemetry.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert {r["type"] for r in records} == {
            "CacheMiss", METRICS_RECORD,
        }
        counters = records[-1]["metrics"]["counters"]
        acts = counters["sched.acts"]
        assert acts > 0
        assert sum(
            value for name, value in counters.items()
            if name.startswith("fastpath.") and name.endswith("_acts")
        ) == acts

    def test_cache_resolves_cells_after_manifest_loss(self, tmp_path):
        directory = tmp_path / "camp"
        spec = tiny_spec(schemes=["graphene"], workloads=["S3"])
        CampaignDriver.start(spec, directory).run()
        # Lose the manifest but keep the cache: the rerun recomputes
        # nothing because manifest keys are result-cache addresses.
        (directory / "manifest.jsonl").unlink()
        driver = CampaignDriver.start(spec, directory)
        summary = driver.run()
        assert summary["status"] == "completed"
        assert summary["computed_keys"] == []
        assert summary["cache_counters"]["hits"] == 1


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


class TestReport:
    def test_report_renders_from_live_campaign(self, tmp_path):
        directory = tmp_path / "camp"
        CampaignDriver.start(tiny_spec(), directory).run()
        target = write_report(directory)
        html = target.read_text(encoding="utf-8")
        assert "<!DOCTYPE html>" in html
        assert "graphene" in html and "para" in html
        assert "cells completed" in html
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html

    def test_resumed_report_totals_match_one_go(self, tmp_path):
        """Counter totals sum the last metrics record of each driver
        run, so an interrupted-and-resumed campaign reports what the
        same campaign run in one go does."""
        spec = tiny_spec(engine="fast")
        # One cell per batch: every run appends several cumulative
        # metrics records, of which only the last may count.
        CampaignDriver.start(spec, tmp_path / "once", batch_size=1).run()
        CampaignDriver.start(
            spec, tmp_path / "split", batch_size=1
        ).run(max_cells=2)
        CampaignDriver.resume(tmp_path / "split", batch_size=1).run()

        def rollup(directory):
            return _telemetry_rollup(
                iter_jsonl(directory / "telemetry.jsonl")
            )["counters"]

        def counter_table(directory):
            html = write_report(directory).read_text(encoding="utf-8")
            start = html.index("<h2>Telemetry counters</h2>")
            return html[start:html.index("</table>", start)]

        once = rollup(tmp_path / "once")
        assert once["cache.misses"] == 4
        assert once["sched.acts"] > 0
        assert rollup(tmp_path / "split") == once
        assert counter_table(tmp_path / "split") == counter_table(
            tmp_path / "once"
        )

    def test_report_lists_fast_path_fallbacks_per_cell(
        self, tmp_path, monkeypatch
    ):
        from repro.core import fastpath
        from repro.mitigations.mrloc import MRLoc

        # MRLoc with its kernel unregistered stands in for a scheme
        # that falls back to the reference loop.
        fastpath.kernel_schemes()
        monkeypatch.delitem(fastpath._KERNEL_REGISTRY, MRLoc)
        directory = tmp_path / "camp"
        spec = tiny_spec(
            engine="fast", schemes=["graphene", "mrloc"], workloads=["S3"]
        )
        CampaignDriver.start(spec, directory).run()
        html = write_report(directory).read_text(encoding="utf-8")
        assert "Fast-path fallbacks (1)" in html
        (mrloc,) = [c for c in spec.cells() if c.scheme == "mrloc"]
        assert f"<code>{mrloc.cell_id}</code>" in html
        assert "no batched kernel for scheme" in html

    def test_report_renders_from_recorded_artifacts_only(self, tmp_path):
        # No driver in sight: hand-written manifest + telemetry JSONL,
        # exactly what "render a report off another machine" needs.
        manifest = CampaignManifest.create(
            tmp_path / "c", {"name": "offline"}, "d", total_cells=1
        )
        manifest.record_cell(_record("g1/trh=1/mcf/graphene", acts=5000))
        telemetry = tmp_path / "c" / "telemetry.jsonl"
        telemetry.write_text(
            json.dumps(
                {
                    "type": "OracleViolation", "time_ns": 0.0,
                    "subject": "para", "kind": "bit-flips",
                    "generator": "g", "seed": 1, "step": None, "job": None,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        html = write_report(tmp_path / "c").read_text(encoding="utf-8")
        assert "offline" in html
        assert "para/bit-flips" in html
        assert "Oracle violations (1)" in html


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCli:
    def test_run_resume_status_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY), encoding="utf-8")
        directory = str(tmp_path / "camp")

        code = main(
            [
                "campaign", "run", str(spec_path), "--dir", directory,
                "--max-cells", "2", "--no-dashboard", "--heartbeat-s", "0",
            ]
        )
        assert code == 3  # interrupted: cells remain
        assert "interrupted" in capsys.readouterr().out

        code = main(
            ["campaign", "resume", directory, "--no-dashboard",
             "--heartbeat-s", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "2 already done" in out

        assert main(["campaign", "status", directory]) == 0
        assert "4/4 completed" in capsys.readouterr().out

        assert main(["campaign", "report", directory]) == 0
        out = capsys.readouterr().out
        assert "report.html" in out

    def test_failed_cells_exit_one(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    **TINY,
                    "schemes": ["graphene"],
                    "workloads": {"bogus": "realistic"},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            [
                "campaign", "run", str(spec_path),
                "--dir", str(tmp_path / "camp"), "--no-dashboard",
            ]
        )
        assert code == 1
