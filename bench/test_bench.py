"""Tests for the benchmark itself: ``python -m pytest bench -q``.

The benchmark runs in child processes, so these tests drive it the way
a user does -- ``python -m bench ...`` from the checkout root -- at the
tiny ``test`` scale.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import END_TO_END, WORKLOAD_NAMES
from bench.compare import verdict
from bench.tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args, "--scale", "test",
         "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _git_status() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _results(proc: subprocess.CompletedProcess) -> list[dict]:
    return [
        json.loads(line) for line in proc.stdout.splitlines()
        if line.startswith("{")
    ]


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Seed 42 untraced and traced, seed 7 untraced, all workloads."""
    tmp = tmp_path_factory.mktemp("bench")
    before = _git_status()
    out = {
        "run42": _bench(
            "run", "--seed", "42", "--record", str(tmp / "a.jsonl")
        ),
        "trace42": _bench(
            "trace", "--seed", "42", "--record", str(tmp / "b.jsonl"),
            "--out", str(tmp / "traces"),
        ),
        "run7": _bench("run", "--seed", "7", "--record", str(tmp / "c.jsonl")),
    }
    for name, proc in out.items():
        assert proc.returncode == 0, f"{name}:\n{proc.stdout}\n{proc.stderr}"
    out["records"] = {
        name: _records(tmp / f"{file}.jsonl")
        for name, file in (("run42", "a"), ("trace42", "b"), ("run7", "c"))
    }
    out["traces"] = tmp / "traces"
    out["git_before"], out["git_after"] = before, _git_status()
    return out


def test_benchmark_json_declares_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


def test_every_workload_prints_the_declared_metrics(runs):
    for proc, declared in (
        (runs["run42"], SPEC["end_to_end"]),
        (runs["trace42"], SPEC["per_layer"]),
    ):
        results = _results(proc)
        assert len(results) == len(WORKLOAD_NAMES)
        for result in results:
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            } == {m["name"]: m["unit"] for m in declared}
        for metric in declared:
            assert f"  {metric['name']} " in proc.stdout


def test_results_digest_repeats_and_follows_the_seed(runs):
    records = runs["records"]
    for index, name in enumerate(WORKLOAD_NAMES):
        run42, trace42, run7 = (
            records[key][index] for key in ("run42", "trace42", "run7")
        )
        assert run42["workload"] == trace42["workload"] == name
        assert run42["results_digest"] == trace42["results_digest"]
        assert run42["results_digest"] != run7["results_digest"]
        assert run42["cells"] == run7["cells"] > 0


def test_traced_spans_nest_with_nonnegative_self_time(runs):
    paths = sorted(runs["traces"].glob("*.json"))
    assert len(paths) == len(WORKLOAD_NAMES)
    for path in paths:
        events = json.loads(path.read_text())["traceEvents"]
        assert events
        by_id = {event["args"]["id"]: event for event in events}
        for event in events:
            assert event["args"]["self_us"] >= 0.0
            parent = by_id.get(event["args"]["parent"])
            if parent is not None:
                assert parent["ts"] <= event["ts"]
                assert (
                    event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-3
                )


def test_layer_counts_match_the_workload_design(runs):
    layers = {
        record["workload"]: {
            name: metric["value"] for name, metric in record["metrics"].items()
        }
        for record in runs["records"]["trace42"]
    }
    for name, values in layers.items():
        assert values["trace.coverage"] >= 0.9, name
        assert (values["faults.activate_calls"] > 0) == (
            name == "capability-faults"
        ), name
    assert layers["capability-faults"]["faults.flips"] > 0
    campaign = layers["campaign-fast"]
    # 7 kernel schemes x mcf/S3 x one T_RH, every cell sent to the
    # reference loop.
    assert campaign["fastpath.fallback_cells"] == 14
    assert campaign["kernels.vector_acts"] == 0
    assert campaign["cache.hit_frac"] == 0.5


def test_runs_leave_the_tree_unchanged(runs):
    if runs["git_before"] is None:
        pytest.skip("not a git checkout")
    assert runs["git_after"] == runs["git_before"]
    assert not list((ROOT / ".bench_cache" / "tmp").iterdir())


#: Appended to a copy of ``repro/core/fastpath.py``: the first directive
#: any kernel returns in the process is dropped, and only that one.
_DROP_ONE_DIRECTIVE = '''

_bench_dropped = []
_bench_kernel_for = kernel_for


def kernel_for(mitigation):
    kernel = _bench_kernel_for(mitigation)
    if kernel is None:
        return None
    for method in ("on_activate", "on_refresh_command"):
        original = getattr(kernel, method)

        def dropping(*args, _original=original):
            directives = _original(*args)
            if directives and not _bench_dropped:
                _bench_dropped.append(directives[0])
                return directives[1:]
            return directives

        setattr(kernel, method, dropping)
    return kernel
'''


def test_a_kernel_that_drops_a_directive_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    with open(tmp_path / "src/repro/core/fastpath.py", "a") as handle:
        handle.write(_DROP_ONE_DIRECTIVE)
    proc = _bench("run", "--workload", "multirank-kernels", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = _results(proc)[-1]
    assert not result["correct"]
    assert result["failed"] > 0
    assert "error_rate" in proc.stdout


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("run", "--workload", "fig8-fast", cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc)


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([100.0] * 5 + [101.0] * 5, [110.0] * 10, "higher", "improved"),
        ([100.0] * 10, [80.0] * 10, "higher", "regressed"),
        ([1.0] * 10, [1.2] * 10, "lower", "regressed"),
        ([100.0, 101.0] * 5, [100.5] * 10, "higher", "unchanged"),
        ([60.0, 140.0] * 5, [99.0] * 10, "higher", "unresolved"),
        # Fewer than 10 pairs never count as a gain.
        ([100.0] * 5, [110.0] * 5, "higher", "unchanged"),
    ],
)
def test_compare_applies_the_pairing_rule(parent, change, better, expected):
    assert verdict(parent, change, better, bound=0.1) == expected
