"""End-to-end benchmark of the experiments users run.

``python -m bench run`` runs each workload in child processes (set-up
spawns, then one child that runs timed passes and checks every cell
against the reference engine) and prints the end-to-end metrics;
``python -m bench trace`` prints the per-layer metrics of traced
passes; ``python -m bench compare`` applies the pairing rule to two
sets of recorded runs.  See ``bench/README.md``.

This module is imported by the parent process, which must not import
``repro`` (a checkout without ``src/`` has to fail cleanly), so it
holds only names.
"""

#: The benchmark's workloads, in run order (``bench.workloads`` builds
#: them; BENCHMARK.json declares them).
WORKLOAD_NAMES = (
    "fig8-fast",
    "multirank-kernels",
    "capability-faults",
    "campaign-fast",
)

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "acts_per_s": "ACT/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
