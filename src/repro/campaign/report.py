"""Self-contained static HTML campaign report.

Rendered from the two artifacts a campaign directory always has -- the
checkpoint manifest and the merged ``telemetry.jsonl`` -- so a report
can be produced from a finished campaign, a half-finished one, or a
recorded stream copied off another machine.  No external assets, no
JavaScript dependencies: one file, inline CSS, inline SVG.

Visual grammar (kept deliberately small):

* headline numbers are stat tiles, not charts;
* per-scheme throughput is a magnitude comparison, so the bars use a
  single hue (the series blue), light and dark modes each getting
  their own step against their own surface;
* failed cells carry an icon plus the word "failed" -- state is never
  encoded by color alone;
* all text wears text tokens; color is reserved for marks.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..telemetry.events import event_record
from ..telemetry.export import iter_jsonl
from ..telemetry.registry import MetricsRegistry
from .driver import METRICS_RECORD, TELEMETRY_NAME
from .manifest import CampaignManifest, CellRecord

__all__ = ["render_report", "write_report", "REPORT_NAME"]

REPORT_NAME = "report.html"

#: Palette roles (light, dark) validated against the matching surfaces.
_CSS = """
:root {
  --surface: #fcfcfb;
  --surface-raised: #f4f4f2;
  --text: #1a1a19;
  --text-secondary: #5c5c58;
  --border: #e3e3df;
  --series-1: #2a78d6;
  --serious: #b4442c;
  --good: #3c7a3e;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --surface-raised: #242423;
    --text: #f2f2ef;
    --text-secondary: #a8a8a2;
    --border: #3a3a37;
    --series-1: #3987e5;
    --serious: #e06c50;
    --good: #6fae71;
  }
}
[data-theme="dark"] {
  --surface: #1a1a19;
  --surface-raised: #242423;
  --text: #f2f2ef;
  --text-secondary: #a8a8a2;
  --border: #3a3a37;
  --series-1: #3987e5;
  --serious: #e06c50;
  --good: #6fae71;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 2rem 1.5rem; max-width: 62rem;
  background: var(--surface); color: var(--text);
  font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 1.4rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 0.75rem; }
.meta { color: var(--text-secondary); font-size: 0.85rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.75rem; margin: 1.25rem 0; }
.tile {
  background: var(--surface-raised); border: 1px solid var(--border);
  border-radius: 8px; padding: 0.7rem 1rem; min-width: 8.5rem;
}
.tile .value { font-size: 1.5rem; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: 0.8rem; }
.bar-row { display: grid; grid-template-columns: 10rem 1fr 7rem;
  align-items: center; gap: 0.6rem; margin: 2px 0; }
.bar-label { text-align: right; font-size: 0.85rem;
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.bar-value { font-size: 0.85rem; color: var(--text-secondary); }
.bar-track { height: 18px; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
  border-bottom: 1px solid var(--border); }
th { color: var(--text-secondary); font-weight: 500; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.status-failed { color: var(--serious); }
.status-ok { color: var(--good); }
code { background: var(--surface-raised); border-radius: 4px;
  padding: 0.05rem 0.3rem; font-size: 0.85em; }
footer { margin-top: 2.5rem; color: var(--text-secondary);
  font-size: 0.8rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _tile(value: str, label: str) -> str:
    return (
        f'<div class="tile"><div class="value">{_esc(value)}</div>'
        f'<div class="label">{_esc(label)}</div></div>'
    )


def _rate(acts_per_sec: float) -> str:
    if acts_per_sec >= 1e6:
        return f"{acts_per_sec / 1e6:.2f}M ACTs/s"
    if acts_per_sec >= 1e3:
        return f"{acts_per_sec / 1e3:.1f}k ACTs/s"
    return f"{acts_per_sec:.0f} ACTs/s"


def _scheme_bars(per_scheme: Mapping[str, dict[str, float]]) -> str:
    """Single-hue horizontal bars: per-scheme simulated ACTs/wall-s."""
    if not per_scheme:
        return '<p class="meta">No computed cells yet.</p>'
    peak = max(row["acts_per_sec"] for row in per_scheme.values()) or 1.0
    rows = []
    ranked = sorted(
        per_scheme.items(), key=lambda kv: kv[1]["acts_per_sec"], reverse=True
    )
    for scheme, row in ranked:
        # The 4px-rounded data end is the bar's value edge; the bar is
        # anchored to the zero baseline at the left.
        width_pct = 100.0 * row["acts_per_sec"] / peak
        rows.append(
            f'<div class="bar-row">'
            f'<div class="bar-label">{_esc(scheme)}</div>'
            f'<svg class="bar-track" preserveAspectRatio="none" '
            f'viewBox="0 0 100 18" width="100%" height="18" '
            f'role="img" aria-label="{_esc(scheme)}: '
            f'{_esc(_rate(row["acts_per_sec"]))}">'
            f'<rect x="0" y="2" width="{width_pct:.2f}" height="14" '
            f'rx="2" fill="var(--series-1)"/></svg>'
            f'<div class="bar-value">{_esc(_rate(row["acts_per_sec"]))}'
            f' &middot; {int(row["cells"])} cells</div>'
            f"</div>"
        )
    return "\n".join(rows)


def _aggregate(
    cells: Mapping[str, CellRecord],
) -> dict[str, dict[str, float]]:
    """Per-scheme throughput from the manifest's computed cells."""
    totals: dict[str, dict[str, float]] = {}
    for record in cells.values():
        if record.status != "completed" or record.source != "computed":
            continue
        row = totals.setdefault(
            record.scheme, {"acts": 0.0, "seconds": 0.0, "cells": 0}
        )
        row["acts"] += record.acts
        row["seconds"] += record.seconds
        row["cells"] += 1
    for row in totals.values():
        row["acts_per_sec"] = (
            row["acts"] / row["seconds"] if row["seconds"] > 0 else 0.0
        )
    return totals


def _telemetry_rollup(events: Iterable[Any]) -> dict[str, Any]:
    """Merged counters, violations and fallbacks from the stream.

    Each driver run appends cumulative ``CampaignMetrics`` records, so
    the last record of each run holds that run's totals and the
    campaign's counters are their sum -- an interrupted-and-resumed
    campaign totals the same as one run in one go.
    """
    last: dict[str, Mapping[str, Any]] = {}
    violations: list[str] = []
    fallbacks: list[tuple[str, str]] = []
    for event in events:
        record = event if isinstance(event, Mapping) else event_record(event)
        name = record.get("type")
        if name == METRICS_RECORD:
            last[str(record.get("run"))] = record.get("metrics", {})
        elif name == "OracleViolation":
            violations.append(f"{record.get('subject')}/{record.get('kind')}")
        elif name == "FastPathFallback":
            cell = record.get("job") or (
                f"{record.get('workload')}/{record.get('scheme')}"
            )
            fallbacks.append((str(cell), str(record.get("reason", ""))))
    registry = MetricsRegistry()
    for snapshot in last.values():
        registry.merge(snapshot)
    return {
        "counters": registry.snapshot()["counters"],
        "violations": violations,
        "fallbacks": fallbacks,
    }


def render_report(
    manifest: CampaignManifest,
    telemetry: Iterable[Any] = (),
    max_table_rows: int = 200,
) -> str:
    """The full HTML document for one campaign directory's state."""
    header = manifest.header or {}
    name = header.get("name") or "(unnamed campaign)"
    counts = manifest.status_counts()
    cells = manifest.cells
    per_scheme = _aggregate(cells)
    rollup = _telemetry_rollup(telemetry)

    computed = sum(
        1
        for r in cells.values()
        if r.status == "completed" and r.source == "computed"
    )
    cached = sum(
        1
        for r in cells.values()
        if r.status == "completed" and r.source == "cache"
    )
    wall = sum(r.seconds for r in cells.values() if r.source == "computed")
    total_acts = sum(r.acts for r in cells.values())
    n_violations = len(rollup["violations"])

    tiles = [
        _tile(f"{counts['completed']}/{counts['total']}", "cells completed"),
        _tile(str(counts["failed"]), "cells failed"),
        _tile(str(computed), "computed"),
        _tile(str(cached), "from cache"),
        _tile(f"{wall:.1f}s", "worker time"),
        _tile(f"{total_acts:,}", "simulated ACTs"),
        _tile(str(n_violations), "oracle violations"),
    ]

    failed = sorted(manifest.failed().values(), key=lambda r: r.cell_id)
    failed_html = ""
    if failed:
        items = "\n".join(
            f'<li><code>{_esc(r.cell_id)}</code> '
            f'<span class="status-failed">&#10007; failed</span> '
            f"&mdash; {_esc(r.error or 'no error recorded')}</li>"
            for r in failed
        )
        failed_html = f"<h2>Failed cells</h2><ul>{items}</ul>"

    violations_html = ""
    if rollup["violations"]:
        items = "\n".join(
            f'<li><span class="status-failed">&#9888; violation</span> '
            f"<code>{_esc(v)}</code></li>"
            for v in rollup["violations"][:50]
        )
        violations_html = (
            f"<h2>Oracle violations ({n_violations})</h2><ul>{items}</ul>"
        )

    fallbacks_html = ""
    if rollup["fallbacks"]:
        items = "\n".join(
            f"<li><code>{_esc(cell)}</code> &mdash; {_esc(reason)}</li>"
            for cell, reason in rollup["fallbacks"]
        )
        fallbacks_html = (
            f"<h2>Fast-path fallbacks ({len(rollup['fallbacks'])})</h2>"
            f"<ul>{items}</ul>"
        )

    counter_rows = "\n".join(
        f"<tr><td><code>{_esc(name)}</code></td>"
        f'<td class="num">{value:,}</td></tr>'
        for name, value in rollup["counters"].items()
    )
    counters_html = (
        "<h2>Telemetry counters</h2><table><thead><tr><th>counter</th>"
        '<th class="num">total</th></tr></thead>'
        f"<tbody>{counter_rows}</tbody></table>"
        if rollup["counters"]
        else ""
    )

    ordered = sorted(cells.values(), key=lambda r: r.cell_id)
    shown = ordered[:max_table_rows]
    cell_rows = []
    for r in shown:
        if r.status == "completed":
            status = '<span class="status-ok">&#10003; ok</span>'
        else:
            status = '<span class="status-failed">&#10007; failed</span>'
        cell_rows.append(
            f"<tr><td><code>{_esc(r.cell_id)}</code></td>"
            f"<td>{status}</td><td>{_esc(r.source)}</td>"
            f'<td class="num">{r.acts:,}</td>'
            f'<td class="num">{r.seconds:.2f}s</td></tr>'
        )
    truncated = (
        f'<p class="meta">Showing {len(shown)} of {len(ordered)} cells.</p>'
        if len(ordered) > len(shown)
        else ""
    )
    table_html = (
        "<h2>Cells</h2>"
        '<table><thead><tr><th>cell</th><th>status</th><th>source</th>'
        '<th class="num">ACTs</th><th class="num">wall</th></tr></thead>'
        f"<tbody>{''.join(cell_rows)}</tbody></table>{truncated}"
        if cell_rows
        else ""
    )

    digest = header.get("spec_digest", "")[:12]
    spec_json = _esc(
        json.dumps(header.get("spec", {}), indent=2, sort_keys=True)
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>campaign report: {_esc(name)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>Campaign: {_esc(name)}</h1>
<p class="meta">spec digest <code>{_esc(digest)}</code> &middot;
{counts['pending']} pending</p>
<div class="tiles">{''.join(tiles)}</div>
<h2>Per-scheme throughput (simulated ACTs per worker-second)</h2>
{_scheme_bars(per_scheme)}
{failed_html}
{violations_html}
{fallbacks_html}
{counters_html}
{table_html}
<h2>Spec</h2>
<details><summary class="meta">campaign grid (JSON)</summary>
<pre>{spec_json}</pre></details>
<footer>Rendered offline from <code>manifest.jsonl</code> and
<code>telemetry.jsonl</code>; safe to open from a half-finished
campaign.</footer>
</body>
</html>
"""


def write_report(
    directory: str | Path,
    output: str | Path | None = None,
    telemetry_path: str | Path | None = None,
) -> Path:
    """Render ``report.html`` for a campaign directory and return its path."""
    directory = Path(directory)
    manifest = CampaignManifest.open(directory)
    if telemetry_path is None:
        telemetry_path = directory / TELEMETRY_NAME
    telemetry_path = Path(telemetry_path)
    events: Iterable[Any] = (
        iter_jsonl(telemetry_path) if telemetry_path.exists() else ()
    )
    target = Path(output) if output is not None else directory / REPORT_NAME
    target.write_text(render_report(manifest, events), encoding="utf-8")
    return target
