"""``python -m bench``: the benchmark's command line.

    python -m bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
    python -m bench trace [--workload W] [--seed S] [--out DIR]
    python -m bench compare PARENT.jsonl CHANGE.jsonl

``run`` runs each workload (all four when ``--workload`` is not given)
in its own child processes, one at a time: first set-up-only spawns,
then one child that runs timed passes.  For each workload it prints
every end-to-end metric with its unit (``--trace 1``: every per-layer
metric), the input size, the ``results_digest`` and the share of
cells that differed from the reference engine, and ends the block with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 if any cell failed and 2 if the checkout has no ``src/repro``.
``--record FILE`` appends one JSON line per workload for ``compare``.

Everything a run writes stays under ``.bench_cache/`` in the checkout
(temp dirs are removed on exit); ``trace`` writes one Chrome trace per
workload into ``--out`` (default ``.bench_cache/traces``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from bench import END_TO_END, WORKLOAD_NAMES
from bench.tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_cache"

#: Set-up spawns per workload at each scale, the timed child included:
#: setup_s is their median.
SETUP_SPAWNS = {"bench": 11, "full": 3, "test": 2}
#: A bench-scale run must end within 180 s: every child of a workload
#: shares this budget.
RUN_BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def _spawn(
    args: list[str], env: dict[str, str], deadline: float
) -> dict[str, Any]:
    """Run one worker child to completion; returns its JSON report
    with ``setup_s`` (spawn to ready, both on ``time.monotonic()``)."""
    command = [sys.executable, "-m", "bench.worker", *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(
            f"worker ran past the {RUN_BUDGET_S} s run budget"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def _measure(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Set-up spawns, then the timed child, for one workload."""
    tmp_root = CACHE_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    worker_args = [
        "--workload", name, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", str(args.out),
    ]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = [
            _spawn([*worker_args, "--setup-only"], env, deadline)["setup_s"]
            for _ in range(SETUP_SPAWNS[args.scale] - 1)
        ]
        report = _spawn(worker_args, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(report["setup_s"])
    report["setup_runs"] = setups
    return report


def _end_to_end(report: dict[str, Any]) -> dict[str, float]:
    seconds = report["best_seconds"]
    return {
        "acts_per_s": report["acts"] / seconds if seconds else 0.0,
        "setup_s": statistics.median(report["setup_runs"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _print_block(
    name: str, args, report: dict[str, Any], metrics, units
) -> None:
    passes = report["passes"]
    print(
        f"== {name}  seed={args.seed}  scale={args.scale}  "
        f"passes={len(passes)}  cells={report['cells']}  "
        f"acts={report['acts']}"
    )
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:>16.6g}  {units[metric]}")
    error_rate = report["failed"] / max(1, report["attempted"])
    print(
        f"  {'error_rate':34s} {error_rate:>16.6g}  ratio  "
        f"({report['failed']} of {report['attempted']} cells differ from "
        f"the reference engine)"
    )
    memo = "memoized" if report["memoized"] else "computed now"
    print(f"  {'verify_s':34s} {report['verify_s']:>16.6g}  s  ({memo})")
    for reason, count in sorted(report.get("fallback_reasons", {}).items()):
        print(f"  fallback x{count}: {reason}")
    if report.get("trace_path"):
        print(f"  chrome trace: {report['trace_path']}")
    print(f"  results_digest {report['results_digest']}")


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"bench: no src/repro under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    args.out = (args.out or CACHE_DIR / "traces").resolve()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    units = LAYER_METRICS if args.trace else END_TO_END
    status = 0
    for name in names:
        try:
            report = _measure(name, args)
        except ChildFailed as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        metrics = (
            report.get("layers", {}) if args.trace else _end_to_end(report)
        )
        if set(metrics) != set(units):
            print(
                f"bench: {name}: no complete metric set "
                f"({report['failed']} of {report['attempted']} cells failed)",
                file=sys.stderr,
            )
            status = 1
            continue
        metrics = {metric: metrics[metric] for metric in units}
        _print_block(name, args, report, metrics, units)
        result = {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in metrics.items()
            },
        }
        if report["failed"]:
            status = 1
        if args.record:
            record = {
                "workload": name, "seed": args.seed, "scale": args.scale,
                "trace": args.trace, "cells": report["cells"],
                "acts": report["acts"],
                "results_digest": report["results_digest"], **result,
            }
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--workload", choices=WORKLOAD_NAMES)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--seconds", type=float, default=15.0)
        p.add_argument("--scale", choices=tuple(SETUP_SPAWNS), default="bench")
        p.add_argument("--out", type=Path, help="Chrome trace directory")
        p.add_argument("--record", type=Path,
                       help="append one JSON line per workload (for compare)")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import main as compare

        return compare(args.parent, args.change)
    if args.command == "trace":
        args.trace = 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
