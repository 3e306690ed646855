"""``python -m bench compare PARENT.jsonl CHANGE.jsonl``: the pairing rule.

Each file holds the records ``python -m bench run --record FILE``
appends, one per workload per run.  The i-th parent record of a
workload is paired with its i-th change record; alternate which side
runs first.  For every end-to-end metric of every workload the verdict
is:

* **improved** -- at least 10 pairs, the change wins at least 9/10 of
  all pairs (ties count for neither side), and the medians differ by
  more than the parent's own spread (its interquartile range);
* **regressed** -- the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json, or more cells failed;
* **unresolved** -- the parent's spread, as a share of its median, is
  wider than the bound, unless every change run beats every parent run;
* **unchanged** -- otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict[str, Any]]]:
    """End-to-end records by workload, in file order."""
    by_workload: dict[str, list[dict[str, Any]]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    by_workload[record["workload"]].append(record)
    return by_workload


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """Classify one (metric, workload) pair of samples."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = _iqr(parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > p_iqr
    ):
        return "improved"
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "regressed"
    every_change_better = (
        min(sign * c for c in change) > max(sign * p for p in parent)
    )
    if p_med and p_iqr / abs(p_med) > bound and not every_change_better:
        return "unresolved"
    return "unchanged"


def compare(
    parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict
) -> list[dict[str, Any]]:
    """One row per workload: ``{"workload", "pairs", metric: cell}``."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        p_runs, c_runs = parent.get(name, []), change.get(name, [])
        row: dict[str, Any] = {
            "workload": name, "pairs": min(len(p_runs), len(c_runs)),
        }
        if not p_runs or not c_runs:
            rows.append(row)
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in p_runs]
            c = [r["metrics"][key]["value"] for r in c_runs]
            p_med, c_med = statistics.median(p), statistics.median(c)
            row[key] = {
                "verdict": verdict(p, c, metric["better"], metric["bound"]),
                "parent": p_med,
                "change": c_med,
                "delta": (c_med - p_med) / p_med if p_med else 0.0,
            }
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        row["failed"] = {
            "verdict": "regressed" if c_failed > p_failed else "unchanged",
            "parent": p_failed,
            "change": c_failed,
        }
        rows.append(row)
    return rows


def main(parent_path: Path, change_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load(parent_path), load(change_path), spec)
    metrics = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':20s} {'pairs':>5s}  " + "  ".join(
        f"{m:>28s}" for m in [*metrics, "failed"]
    ))
    regressed = False
    for row in rows:
        cells = []
        for key in [*metrics, "failed"]:
            cell = row.get(key)
            if cell is None:
                cells.append(f"{'no runs':>28s}")
                continue
            regressed |= cell["verdict"] == "regressed"
            delta = (
                f" {100 * cell['delta']:+.1f}%" if "delta" in cell
                else f" {cell['parent']}->{cell['change']}"
            )
            cells.append(f"{cell['verdict'] + delta:>28s}")
        print(f"{row['workload']:20s} {row['pairs']:>5d}  " + "  ".join(cells))
    return 1 if regressed else 0
