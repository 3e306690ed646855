"""Workload generators and the ACT-trace model.

* :mod:`~repro.workloads.trace` -- the :class:`ActEvent` stream model,
  pacing, merging, serialization and statistics;
* :mod:`~repro.workloads.columnar` -- the array-backed
  :class:`TraceArray` form every generator emits, with vectorized
  pacing, merging and statistics (event streams are views over it);
* :mod:`~repro.workloads.spec_like` -- calibrated synthetic stand-ins
  for the paper's SPEC CPU2006 / multithreaded workloads;
* :mod:`~repro.workloads.synthetic` -- the S1-S4 attack patterns and
  Graphene's worst case;
* :mod:`~repro.workloads.adversarial` -- the Fig. 7 PRoHIT/MRLoc
  killers, double-sided and window-straddling hammers.
"""

from .attacks import (
    assisted_double_sided_rows,
    decoy_flood_rows,
    graphene_saturation_rows,
    many_sided_rows,
)
from .adversarial import (
    double_sided_rows,
    mrloc_killer_rows,
    prohit_killer_rows,
    window_straddle_rows,
)
from .phased import Phase, PhasedWorkload, phase_shifting_attack
from .spec_like import (
    MIX_PROFILES,
    MULTITHREADED_PROFILES,
    REALISTIC_PROFILES,
    SPEC_HIGH_PROFILES,
    WorkloadProfile,
    profile_array,
    profile_events,
)
from .synthetic import (
    SYNTHETIC_PATTERNS,
    graphene_worst_case_rows,
    s1_rows,
    s2_rows,
    s3_rows,
    s4_rows,
    synthetic_array,
    synthetic_events,
)
from .columnar import (
    TraceArray,
    collect_stats_array,
    iter_chunk_arrays,
    merge_arrays,
    pace_array,
)
from .validation import (
    TraceReport,
    TraceViolation,
    assert_valid,
    validate_trace,
)
from .trace import (
    ActEvent,
    TraceStats,
    collect_stats,
    merge_streams,
    pace,
    read_trace,
    take_until,
    write_trace,
)

__all__ = [
    "ActEvent",
    "TraceStats",
    "collect_stats",
    "merge_streams",
    "pace",
    "TraceArray",
    "iter_chunk_arrays",
    "pace_array",
    "merge_arrays",
    "collect_stats_array",
    "read_trace",
    "take_until",
    "write_trace",
    "WorkloadProfile",
    "REALISTIC_PROFILES",
    "SPEC_HIGH_PROFILES",
    "MIX_PROFILES",
    "MULTITHREADED_PROFILES",
    "profile_array",
    "profile_events",
    "SYNTHETIC_PATTERNS",
    "s1_rows",
    "s2_rows",
    "s3_rows",
    "s4_rows",
    "graphene_worst_case_rows",
    "synthetic_array",
    "synthetic_events",
    "prohit_killer_rows",
    "mrloc_killer_rows",
    "double_sided_rows",
    "window_straddle_rows",
    "many_sided_rows",
    "graphene_saturation_rows",
    "assisted_double_sided_rows",
    "decoy_flood_rows",
    "Phase",
    "PhasedWorkload",
    "phase_shifting_attack",
    "TraceReport",
    "TraceViolation",
    "validate_trace",
    "assert_valid",
]
