"""One benchmark child process: set up a workload, run it, check it.

Run by ``python -m bench`` as ``python -m bench.worker --workload W
--seed S --scale X --seconds N --trace 0|1 [--setup-only]`` from the
checkout root, with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints one JSON report as its last stdout line.

* ``--setup-only``: import and build the workload, report the
  ``time.monotonic()`` reading at which it was ready, and exit.
* otherwise: run passes on the fast engine until ``--seconds`` have
  elapsed and at least ``TIMED_PASSES`` passes are done (a closed
  loop: one pass after another, one process, runner ``jobs=1``), read
  ``ru_maxrss``, then check every cell of every pass against the same
  pass on the reference engine.  With ``--trace 1`` untraced and
  traced passes alternate, and the report carries the per-layer
  metrics (median over traced passes) and the path of the first traced
  pass's Chrome trace.

Reference results are memoized under ``.bench_cache/oracle`` in the
checkout, keyed by a digest of ``src/repro/**/*.py`` and ``bench/*.py``,
the Python and numpy versions, and workload, seed and scale, so only
the first run of a source tree and seed pays for them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
ORACLE_DIR = ROOT / ".bench_cache" / "oracle"

#: Passes ``best_seconds`` is taken over, at each scale.  Every run
#: measures at least this many, however slow the code, and ignores any
#: later ones, so a faster commit does not get a minimum over more
#: samples than a slower one.
TIMED_PASSES = {"bench": 4, "full": 1, "test": 1}


class Clock:
    """Times a pass's timed region, cut into segments at each cell
    completion (``mark``); with a tracer, records inside the region."""

    def __init__(self, tracer=None) -> None:
        self.marks: list[float] = []
        self.tracer = tracer

    def __enter__(self) -> "Clock":
        if self.tracer is not None:
            self.tracer.start()
        self.marks.append(perf_counter())
        return self

    def mark(self) -> None:
        self.marks.append(perf_counter())

    def __exit__(self, *exc: Any) -> None:
        self.marks.append(perf_counter())
        if self.tracer is not None:
            self.tracer.stop()

    @property
    def seconds(self) -> float:
        return self.marks[-1] - self.marks[0] if self.marks else 0.0

    def segments(self) -> list[float]:
        return [end - start for start, end in zip(self.marks, self.marks[1:])]


def best_seconds(clocks: list[Clock]) -> float:
    """A pass's time with the host's slow spells filtered out.

    Every pass does the same work in the same order, so segment ``i``
    (from the previous cell's completion to this one's) is the same
    work in every pass.  The sum over segments of each segment's
    fastest time across passes is the pass time on a quiet host.  On a
    shared box, other tenants slow a process by up to half for seconds
    at a time; such a spell lengthens a segment and never shortens one,
    so the minimum is the stable estimate (as with ``timeit``), while a
    median still moves when a spell covers most of a run's passes.
    The caller passes the same number of passes on every run, since a
    minimum falls as its sample grows.
    """
    runs = [clock.segments() for clock in clocks]
    runs = [run for run in runs if len(run) == len(runs[0])]
    return sum(min(run[i] for run in runs) for i in range(len(runs[0])))


def run_one(workload, engine: str, tracer=None):
    """One pass; returns ``(PassResult, Clock, ok)``.  A pass that
    raises keeps the cells it finished and reports ``ok=False``."""
    from bench.workloads import PassResult

    out = PassResult()
    clock = Clock(tracer)
    try:
        workload.run_pass(engine, clock, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return out, clock, False
    return out, clock, True


def _source_digest() -> str:
    digest = hashlib.sha256()
    paths = sorted([*ROOT.glob("src/repro/**/*.py"), *ROOT.glob("bench/*.py")])
    for path in paths:
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_cells(workload, name: str, seed: int, scale: str):
    """The reference engine's ``(label, digest)`` cells for this input:
    ``(cells, ok, seconds, memoized)``."""
    import numpy

    key = hashlib.sha256(
        f"{_source_digest()}/{sys.version}/{numpy.__version__}/"
        f"{name}/{seed}/{scale}".encode("utf-8")
    ).hexdigest()
    path = ORACLE_DIR / f"{key}.json"
    try:
        cells = [tuple(cell) for cell in json.loads(path.read_text())]
        return cells, True, 0.0, True
    except (OSError, ValueError):
        pass
    started = perf_counter()
    out, _, ok = run_one(workload, "reference")
    cells = out.cells()
    seconds = perf_counter() - started
    if ok:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(cells, handle)
        os.replace(tmp, path)
    return cells, ok, seconds, False


def count_failures(expected: list, got: list) -> tuple[int, int]:
    """``(attempted, failed)`` for one pass against the reference."""
    attempted = max(len(expected), len(got))
    failed = sum(
        1
        for i in range(attempted)
        if i >= len(expected) or i >= len(got) or got[i] != expected[i]
    )
    return attempted, failed


def results_digest(cells: list) -> str:
    text = "\n".join(f"{label}\t{digest}" for label, digest in cells)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # ---- set-up: what setup_s prices --------------------------------
    import repro

    from bench import workloads

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(
            f"bench: imported repro from {repro.__file__}, not from this "
            f"checkout's src/",
            file=sys.stderr,
        )
        return 2
    workload = workloads.build(
        args.workload, args.seed, args.scale, Path(tempfile.gettempdir())
    )
    report: dict[str, Any] = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # ---- timed passes -----------------------------------------------
    passes = []
    layer_passes: list[dict[str, float]] = []
    first_tracer = None
    started = time.monotonic()
    if args.trace:
        from bench.tracing import Tracer

        types = workloads.kernel_types()
    while True:
        if not args.trace:
            passes.append(run_one(workload, "fast"))
        else:
            untraced = run_one(workload, "fast")
            tracer = Tracer(types)
            with tracer.installed():
                traced = run_one(workload, "fast", tracer)
            passes += [untraced, traced]
            if untraced[2] and traced[2]:
                layer_passes.append(
                    tracer.metrics(
                        traced[1].seconds,
                        untraced[1].seconds,
                        traced[0].telemetry_events,
                    )
                )
                first_tracer = first_tracer or tracer
        if not passes[-1][2]:
            break
        if (
            len(passes) >= TIMED_PASSES[args.scale]
            and time.monotonic() - started >= args.seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- check against the reference engine -------------------------
    expected, reference_ok, verify_s, memoized = reference_cells(
        workload, args.workload, args.seed, args.scale
    )
    attempted = failed = 0
    for out, _, _ in passes:
        tried, wrong = count_failures(expected, out.cells())
        attempted += tried
        failed += wrong
    if not reference_ok:
        failed = attempted

    timed = [clock for _, clock, ok in passes if ok]
    timed = timed[: TIMED_PASSES[args.scale]]
    report.update(
        passes=[
            {"seconds": clock.seconds, "acts": out.acts, "ok": ok}
            for out, clock, ok in passes
        ],
        best_seconds=best_seconds(timed) if timed else 0.0,
        cells=len(expected),
        acts=passes[0][0].acts,
        attempted=attempted,
        failed=failed,
        results_digest=results_digest(passes[0][0].cells()),
        peak_rss_mb=peak_rss_mb,
        verify_s=verify_s,
        memoized=memoized,
    )
    if args.trace and layer_passes:
        from bench.tracing import median_metrics

        path = args.trace_dir / f"{args.workload}-seed{args.seed}.json"
        first_tracer.write_chrome_trace(
            path, {"workload": args.workload, "seed": args.seed}
        )
        report.update(
            layers=median_metrics(layer_passes),
            fallback_reasons=dict(first_tracer.fallback_reasons),
            trace_path=str(path),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
