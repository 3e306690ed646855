"""Batched kernels for every mitigation scheme the fast engine covers.

Each kernel here *wraps the live reference engine* rather than
replicating it: the scalar path delegates straight to
``MitigationEngine.on_activate`` / ``on_refresh_command`` (so every
boundary event runs the exact reference logic on the real state), and
:meth:`~repro.core.fastpath.FastKernel.commit_run` applies bulk updates
to that same state that are provably equal to replaying the events one
at a time.  The per-scheme batching arguments:

* **Graphene** keeps a Misra-Gries table.  A run of hits to tracked
  rows commits in numpy (per-row ``+= occurrences``) up to the first
  miss; from there an exact pure-Python Misra-Gries loop on the same
  table continues through hits, inserts into free slots,
  evict-and-carry replacements and spillover bumps.  Either phase
  truncates before the first event whose new count lands on a multiple
  of ``T`` -- that event replays scalar and emits the directive.  The
  reference evicts ``min`` of the spillover bucket; the kernel instead
  reads the front of one sorted snapshot of that bucket per (window,
  spillover) epoch, skipping keys whose count has moved on.  No key can
  *join* the bucket inside an epoch (inserts land at spillover + 1 and
  counts never fall), so the snapshot's first live key is the bucket's
  minimum.
* **PARA** is stateless apart from its RNG, so a run of ACTs with no
  successful draw is a pure no-op.  ``Generator.random(n)`` consumes
  the same PCG64 double stream as ``n`` scalar ``.random()`` calls
  (pinned by ``tests/test_para.py``), so the kernel draws the whole
  run's candidate matrix at once, finds the first event with any
  success, rewinds the generator (it saves the bit-generator state
  before the speculative draw) and re-draws exactly the prefix's worth
  of values -- the generator lands bit-for-bit where the scalar loop
  would, and the first successful event replays scalar (its side draw
  and edge reflection included).
* **TWiCe** counts exactly per row and only mutates shared state on a
  threshold trigger or a REF-tick pruning pass.  The controller never
  lets a REF fall inside a batch, and between events every counter sits
  strictly below ``act_threshold`` (triggers reset to zero), so the
  batch truncates before the first event that would reach the
  threshold -- everything earlier is plain per-row ``+= occurrences``,
  with new entries allocated in first-occurrence order so occupancy
  peaks and capacity violations replay exactly.
* **CBT** shares counters via a split tree, but the leaf partition can
  only change on a split, a trigger, or a window reset.  Resets are
  excluded by the controller (:meth:`next_blocking_ns`), and the batch
  truncates before the first event that could reach a leaf's action or
  split threshold, so within a batch the row->leaf map is constant and
  the update is a ``bincount`` over leaf indices.  The counter pool
  only grows within a window, so "a free counter exists" is constant
  across the batch too.
* **refresh-rate** does all its work at REF ticks and **none** does no
  work at all; their ACTs are pure no-ops, so the whole run commits
  unconditionally.
* **CoMeT** splits rows into the exact-count RAT and the sketch.  RAT
  entries batch exactly like TWiCe's (truncate before the first entry
  that would reach the threshold).  Each distinct *non*-RAT row is
  hashed once with the sketch's own formula; while no two of the
  batch's sketch rows share a cell in any hash row, only the row itself
  touches its cells, so after ``k`` occurrences its estimate is exactly
  its pre-batch ``min`` plus ``k``.  Such a row then batches like a RAT
  row against ``T - estimate``, and the commit is one indexed ``+=``
  on the counter table.  Rows are admitted in first-occurrence order
  and the batch truncates at the first occurrence of a row whose cell,
  at any depth, collides with an earlier one; promotions (and the RAT
  evictions they cause) are threshold crossings, so they replay
  scalar.
* **ABACuS** shares one table across banks (``cross_bank = True`` --
  the dispatcher never splits it into per-bank lanes, but runs it
  through the vectorized cross-bank lane: long same-bank runs use ``commit_run``,
  interleave-heavy stretches use ``commit_run_banked`` over
  multi-bank windows in global order).  Within a same-bank run the
  SAV discipline collapses: the first occurrence of a tracked row
  increments iff the bank's bit is already set, and every later
  occurrence increments (the SAV resets to exactly this bank's bit on
  each bump), so a row's committed occurrences map to ``k`` or
  ``k - 1`` RAC increments.  Across banks the same recurrence runs
  per row group over (bank-bit, SAV) state -- closed form for
  uniform-bank groups, an era-skip scan otherwise.  Either way the
  batch truncates before the first event whose increment would land
  the RAC on a trigger multiple, and before any miss
  (insert/evict/spillover replay scalar).  ABACuS is REF-free, so
  the banked lane cuts each bank's events at that bank's *own* next
  auto-refresh instead of the earliest one across banks.

* **PRoHIT** draws one double from its ``random.Random`` per in-range
  neighbor of every ACT and samples the victim into its hot/cold tables
  when the draw is below ``q``.  CPython's ``random()`` and numpy's
  legacy ``RandomState.random_sample`` build each double from two
  MT19937 words the same way, so the kernel loads the engine's state
  into a ``RandomState``, draws the whole run's doubles at once, and
  sends each sampled victim through the engine's own
  ``_sample_victim``, in order.  ``getrandbits(64 * k)`` then advances
  the engine's generator past exactly the ``k`` draws the committed
  ACTs consume (two words per draw, one C call; reading the state back
  out of numpy costs about ten times more).  ACTs never emit directives
  and the tables are read only at REF, a blocking event, so the whole
  timing-valid run commits -- except that with
  ``promotion_probability < 1`` a sampled victim found in the cold
  table takes an extra draw, and the batch cuts before that ACT.
* **CRA** keeps exact per-row counters behind an LRU counter cache.  A
  run of cache hits commits like TWiCe's entries: per-row
  ``+= occurrences``, ``move_to_end`` in last-occurrence order and
  ``cache_hits += n``.  The batch cuts before the first miss (eviction
  and write-back replay scalar) and before the first ACT whose count
  reaches ``act_threshold``; the tREFW reset is a scheme blocking
  boundary.
* **MRLoc** weighs each victim's refresh probability by its position
  in a history queue, so every earlier victim matters and there is no
  bulk shortcut.  The kernel walks the engine's own ``deque`` exactly
  as ``_process_activation`` does -- look the victim up, take the
  probability from its position before removing it, one
  ``random()`` per in-range victim in order, append -- without the
  controller's per-ACT dispatch around it.  A successful draw is
  common (about one ACT in thirteen on S3), so instead of cutting
  before it, which would need the queue and generator rewound, the
  batch stops right *after* the first ACT that emits directives and
  returns them anchored at that ACT.

Every kernel is **REF-free** (``ref_free``) exactly when its engine's
type keeps :class:`~repro.mitigations.base.MitigationEngine`'s no-op REF
hook -- all but TWiCe, PRoHIT and refresh-rate.  The controller then
applies that bank's REF ticks as bank arithmetic, in bulk, without
calling ``on_refresh_command``.

``reference_state(engine)`` produces the comparable table snapshot for
any kernel-covered scheme; the differential subject
(:mod:`repro.verify.fastpath_check`) uses it on both the reference
run's engines and the fast run's kernels.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..mitigations.abacus import AbacusMitigation
from ..mitigations.base import MitigationEngine, RefreshDirective
from ..mitigations.cbt import CBT
from ..mitigations.comet import CoMeTMitigation
from ..mitigations.graphene import GrapheneMitigation
from ..mitigations.none import NoMitigation
from ..mitigations.cra import CRA
from ..mitigations.mrloc import MRLoc
from ..mitigations.para import PARA
from ..mitigations.prohit import PRoHIT
from ..mitigations.refresh_rate import IncreasedRefreshRate
from ..mitigations.twice import TWiCe, _Entry
from .fastpath import register_kernel

__all__ = [
    "FastGrapheneKernel",
    "FastParaKernel",
    "FastTwiceKernel",
    "FastCbtKernel",
    "FastRefreshRateKernel",
    "FastCometKernel",
    "FastAbacusKernel",
    "FastNoneKernel",
    "FastProhitKernel",
    "FastCraKernel",
    "FastMrlocKernel",
    "reference_state",
    "reference_table_state",
]


class _WrappedKernel:
    """Base for kernels that wrap the live reference engine.

    The scalar path *is* the reference path: delegation to the real
    ``MitigationEngine`` entry points, stats object shared.  Subclasses
    supply ``commit_run`` (and override ``next_blocking_ns`` where the
    scheme has windowed state).
    """

    def __init__(self, mitigation: MitigationEngine) -> None:
        self.mitigation = mitigation
        self.name = mitigation.name
        self.stats = mitigation.stats
        #: REF-free: the engine's type keeps the base class's REF hook,
        #: which returns no directives and touches no state.
        engine_type = type(mitigation)
        self.ref_free = (
            engine_type.on_refresh_command
            is MitigationEngine.on_refresh_command
            and engine_type._process_refresh_command
            is MitigationEngine._process_refresh_command
        )

    def on_activate(self, row: int, time_ns: float) -> list[RefreshDirective]:
        return self.mitigation.on_activate(row, time_ns)

    def on_refresh_command(self, time_ns: float) -> list[RefreshDirective]:
        return self.mitigation.on_refresh_command(time_ns)

    def next_blocking_ns(self) -> float:
        return math.inf

    def table_state(self) -> dict[str, Any]:
        return reference_state(self.mitigation)

    def describe(self) -> str:
        return self.mitigation.describe()


def _first_crossing(
    inverse: np.ndarray, occurrences: np.ndarray, needed: np.ndarray,
    extent: int,
) -> int:
    """The first event at which some row's occurrence count reaches its
    ``needed`` (``extent`` if none does).

    ``inverse`` maps each event of the run to its row's index,
    ``occurrences`` counts them per row.
    """
    for u in np.flatnonzero(occurrences >= needed):
        positions = np.flatnonzero(inverse == u)
        extent = min(extent, int(positions[int(needed[u]) - 1]))
    return extent


class FastGrapheneKernel(_WrappedKernel):
    """Graphene's Misra-Gries table: bulk hits, then an exact miss loop.

    Commits straight into the wrapped engine's
    :class:`~repro.core.misra_gries.MisraGriesTable` (counts, count
    buckets, spillover) and both stats layers -- the mitigation's
    :class:`~repro.mitigations.base.MitigationStats` and the engine's
    :class:`~repro.core.graphene.GrapheneStats` -- for exactly the ACTs
    committed.  Window resets happen only on the scalar path: the batch
    never crosses :meth:`next_blocking_ns`.
    """

    def __init__(self, mitigation: GrapheneMitigation) -> None:
        super().__init__(mitigation)
        self._engine = mitigation.engine
        #: Sorted snapshot of the spillover bucket, the (window resets,
        #: spillover) epoch it was taken in, and the read position.
        self._evict_epoch: tuple[int, int] | None = None
        self._evict_order: list[int] = []
        self._evict_next = 0

    def next_blocking_ns(self) -> float:
        engine = self._engine
        return (engine.current_window + 1) * engine._window_length_ns

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        engine = self._engine
        table = engine.table
        counts = table._counts
        buckets = table._buckets
        threshold = engine.threshold
        n = len(rows)

        # Phase 1 (numpy): hits to tracked rows up to the first miss.
        # Tracked counts are >= 1, so a 0 base marks an untracked row.
        uniq, inverse = np.unique(rows, return_inverse=True)
        base = np.fromiter(
            (counts.get(int(u), 0) for u in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        missing = base == 0
        extent = int(np.argmax(missing[inverse])) if missing.any() else n
        crossed = False
        if extent:
            occurrences = np.bincount(inverse[:extent], minlength=len(uniq))
            to_next_multiple = threshold - base % threshold
            crossing = (occurrences >= to_next_multiple) & ~missing
            if crossing.any():
                crossed = True
                prefix = inverse[:extent]
                for u in np.flatnonzero(crossing):
                    positions = np.flatnonzero(prefix == u)
                    extent = min(
                        extent, int(positions[int(to_next_multiple[u]) - 1])
                    )
                occurrences = np.bincount(
                    inverse[:extent], minlength=len(uniq)
                )
            for u in np.flatnonzero(occurrences):
                old = int(base[u])
                table._move(int(uniq[u]), old, old + int(occurrences[u]))
        hits = extent
        inserts = bumps = 0
        consumed = extent

        # Phase 2 (Python): MisraGriesTable.observe, operation for
        # operation, from the first miss on.
        if not crossed and extent < n:
            capacity = table.capacity
            spillover = table.spillover
            evicted = None
            for row in rows[extent:].tolist():
                count = counts.get(row)
                if count is not None:
                    new = count + 1
                    if new % threshold == 0:
                        break
                    bucket = buckets[count]
                    bucket.discard(row)
                    if not bucket:
                        del buckets[count]
                    hits += 1
                elif len(counts) < capacity:
                    new = 1
                    if threshold == 1:
                        break
                    inserts += 1
                else:
                    victim = self._evictable(counts, buckets, spillover)
                    if victim is None:
                        spillover += 1
                        bumps += 1
                        consumed += 1
                        continue
                    new = spillover + 1
                    if new % threshold == 0:
                        break
                    del counts[victim]
                    bucket = buckets[spillover]
                    bucket.discard(victim)
                    if not bucket:
                        del buckets[spillover]
                    evicted = victim
                    inserts += 1
                counts[row] = new
                bucket = buckets.get(new)
                if bucket is None:
                    buckets[new] = {row}
                else:
                    bucket.add(row)
                consumed += 1
            table.spillover = spillover
            if evicted is not None:
                table.last_evicted = evicted

        if consumed:
            table.observations += consumed
            gstats = engine.stats
            gstats.activations += consumed
            gstats.table_hits += hits
            gstats.table_insertions += inserts
            gstats.spillover_increments += bumps
            self.stats.activations += consumed
        return consumed, []

    def _evictable(self, counts, buckets, spillover: int) -> int | None:
        """The smallest key whose count equals ``spillover``, or None.

        Equal to the reference's ``min(buckets[spillover])``: the
        snapshot is taken once per epoch, and inside an epoch keys only
        ever leave the bucket (hit, eviction), so skipping entries whose
        count moved on leaves the bucket's current minimum in front.
        """
        epoch = (self._engine.stats.window_resets, spillover)
        if epoch != self._evict_epoch:
            self._evict_epoch = epoch
            self._evict_order = sorted(buckets.get(spillover, ()))
            self._evict_next = 0
        order = self._evict_order
        index = self._evict_next
        while index < len(order) and counts.get(order[index]) != spillover:
            index += 1
        self._evict_next = index
        return order[index] if index < len(order) else None


class FastParaKernel(_WrappedKernel):
    """Bulk-draw PARA: commit the no-success prefix of a run.

    Draws the run's full candidate matrix (one column per nonzero
    distance probability, row-major -- the exact order the scalar loop
    consumes draws), then rewinds and repositions the generator at the
    first event with any successful draw.  That event replays scalar,
    reproducing the success draw, the side draw and edge reflection
    from the identical generator state.
    """

    def __init__(self, mitigation: PARA) -> None:
        super().__init__(mitigation)
        self._active_ps = np.array(
            [p for p in mitigation.distance_probabilities if p > 0.0],
            dtype=np.float64,
        )

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        n = len(rows)
        k = len(self._active_ps)
        if k == 0:
            # p == 0 everywhere: the scalar loop draws nothing at all.
            self.stats.activations += n
            return n, []
        rng = self.mitigation._rng
        state = rng.bit_generator.state
        draws = rng.random(n * k).reshape(n, k)
        hits = draws < self._active_ps
        if not hits.any():
            # No successes: the generator has consumed exactly the n*k
            # draws the scalar loop would have -- leave it there.
            self.stats.activations += n
            return n, []
        first = int(np.argmax(hits.any(axis=1)))
        # Rewind past the speculative draws, then consume exactly the
        # committed prefix's worth so the first successful event replays
        # scalar from the identical generator state.
        rng.bit_generator.state = state
        if first:
            rng.random(first * k)
        self.stats.activations += first
        return first, []


class FastProhitKernel(_WrappedKernel):
    """Bulk-draw PRoHIT: every ACT's victim draws in one numpy call.

    The engine's ``random.Random`` state is copied into a
    ``numpy.random.RandomState`` whose ``random_sample`` yields the same
    doubles as ``random()``; each sampled victim then goes through the
    engine's own ``_sample_victim`` in draw order, and the engine's
    generator is advanced past the committed draws with
    ``getrandbits``.
    """

    def __init__(self, mitigation: PRoHIT) -> None:
        super().__init__(mitigation)
        self._bulk = np.random.RandomState()

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: PRoHIT = self.mitigation
        n = len(rows)
        # ``neighbors_of(row)`` order: row - 1, then row + 1, in range.
        neighbors = np.stack((rows - 1, rows + 1), axis=1).ravel()
        drawn = np.flatnonzero((neighbors >= 0) & (neighbors < m.rows))
        owner = drawn >> 1
        rng = m._rng
        internal = rng.getstate()[1]
        self._bulk.set_state(("MT19937", internal[:-1], internal[-1]))
        draws = self._bulk.random_sample(len(drawn))
        sampled = np.flatnonzero(draws < m.insert_probability)
        consumed = n
        if len(sampled):
            victims = neighbors[drawn[sampled]].tolist()
            acts = owner[sampled].tolist()
            consumed = self._sample(m, victims, acts, n)
        used = len(drawn) if consumed == n else int(
            np.searchsorted(owner, consumed)
        )
        if used:
            # Each double is two 32-bit words; so is each 64 bits here.
            rng.getrandbits(64 * used)
        self.stats.activations += consumed
        return consumed, []

    @staticmethod
    def _sample(m: PRoHIT, victims: list, acts: list, n: int) -> int:
        """Sample ``victims`` in order; the ACT count committed.

        With ``promotion_probability < 1``, a cold-table victim takes an
        extra draw: restore the tables to before that victim's ACT and
        stop there, so the ACT replays scalar.
        """
        extra_draws = m.promotion_probability < 1.0
        current = -1
        for victim, act in zip(victims, acts):
            if extra_draws:
                if act != current:
                    current = act
                    saved = (m._hot[:], m._cold[:])
                if victim in m._cold:
                    m._hot[:], m._cold[:] = saved
                    return act
            m._sample_victim(victim)
        return n


class FastCraKernel(_WrappedKernel):
    """Batched CRA counter-cache hits.

    Between events every cached count sits strictly below
    ``act_threshold`` (a trigger resets it to zero), so a run of hits
    commits per-row ``+= occurrences`` up to (not including) the first
    miss or the first ACT that would reach the threshold.  The LRU
    order after the run is the untouched rows, then the touched ones
    by last occurrence.
    """

    def next_blocking_ns(self) -> float:
        m: CRA = self.mitigation
        return (m._current_window + 1) * m._window_length_ns

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: CRA = self.mitigation
        cache = m._cache
        extent = len(rows)
        uniq, first_pos, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        present = np.fromiter(
            (int(u) in cache for u in uniq),
            dtype=np.bool_,
            count=len(uniq),
        )
        if not present.all():
            # A miss evicts and writes back: scalar territory.
            extent = int(first_pos[~present].min())
            if extent == 0:
                return 0, []
            inverse = inverse[:extent]
        counts = np.fromiter(
            (cache[int(u)] if present[i] else 0 for i, u in enumerate(uniq)),
            dtype=np.int64,
            count=len(uniq),
        )
        needed = np.maximum(m.act_threshold - counts, 1)
        occurrences = np.bincount(inverse, minlength=len(uniq))
        cut = _first_crossing(inverse, occurrences, needed, extent)
        if cut < extent:
            if cut == 0:
                return 0, []
            extent = cut
            inverse = inverse[:extent]
            occurrences = np.bincount(inverse, minlength=len(uniq))
        # Last occurrence of each touched row inside the prefix.
        last_pos = np.full(len(uniq), -1, dtype=np.int64)
        last_pos[inverse] = np.arange(extent)
        touched = np.flatnonzero(occurrences)
        for u in touched[np.argsort(last_pos[touched])].tolist():
            row = int(uniq[u])
            cache[row] += int(occurrences[u])
            cache.move_to_end(row)
        m.cache_hits += extent
        self.stats.activations += extent
        return extent, []


def _bounded_rows(rows: np.ndarray, piece: int = 64):
    """``rows`` as Python ints, converted ``piece`` at a time, for a
    loop that usually stops long before the end of its slice."""
    for start in range(0, len(rows), piece):
        yield from rows[start:start + piece].tolist()


class FastMrlocKernel(_WrappedKernel):
    """MRLoc's history queue, walked in one call per run.

    The same lookups, probabilities, draws and appends as the
    reference, in the same order, on the engine's own ``deque`` and
    ``random.Random``; the run stops after the first ACT that emits a
    directive, whose directives come back for the controller to
    execute at that ACT.
    """

    def __init__(self, mitigation: MRLoc) -> None:
        super().__init__(mitigation)
        #: ``_hit_probability`` of every position, per queue length.
        self._hit_tables: dict[int, list[float]] = {}

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: MRLoc = self.mitigation
        queue = m._queue
        contains = queue.__contains__
        position_of = queue.index
        remove = queue.remove
        append = queue.append
        draw = m._rng.random
        size = m.rows
        miss_probability = m.base_probability / 2
        tables = self._hit_tables
        hits = misses = consumed = 0
        directives: list[RefreshDirective] = []
        for row in _bounded_rows(rows):
            consumed += 1
            for victim in (row - 1, row + 1):
                if not 0 <= victim < size:
                    continue
                if contains(victim):
                    hits += 1
                    # Weighted by the position in the queue as it stands
                    # before the victim is removed.
                    length = len(queue)
                    table = tables.get(length)
                    if table is None:
                        # The engine's own expression, at this length.
                        table = tables[length] = [
                            m._hit_probability(position)
                            for position in range(length)
                        ]
                    probability = table[position_of(victim)]
                    remove(victim)
                    reason = "queue-hit"
                else:
                    misses += 1
                    probability = miss_probability
                    reason = "queue-miss"
                if draw() < probability:
                    directives.append(
                        RefreshDirective(
                            bank=m.bank,
                            victim_rows=(victim,),
                            time_ns=float(times[consumed - 1]),
                            aggressor_row=row,
                            reason=reason,
                        )
                    )
                append(victim)
            if directives:
                break
        m.queue_hits += hits
        m.queue_misses += misses
        self.stats.activations += consumed
        self.stats.record(directives)
        return consumed, directives


class FastTwiceKernel(_WrappedKernel):
    """Vectorized TWiCe entry-table update.

    Between events every entry's ``act_count`` sits strictly below
    ``act_threshold`` (a trigger resets it), and pruning only runs at
    REF ticks the controller keeps out of batches, so the batch commits
    per-row occurrence counts up to (not including) the first event
    that would reach the threshold.
    """

    def __init__(self, mitigation: TWiCe) -> None:
        super().__init__(mitigation)

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: TWiCe = self.mitigation
        entries = m._entries
        extent = len(rows)
        uniq, first_pos, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        present = np.fromiter(
            (int(u) in entries for u in uniq),
            dtype=np.bool_,
            count=len(uniq),
        )
        counts = np.fromiter(
            (
                entries[int(u)].act_count if present[i] else 0
                for i, u in enumerate(uniq)
            ),
            dtype=np.int64,
            count=len(uniq),
        )
        # Invariant: counts < act_threshold between events; the clamp is
        # belt-and-braces so a violated invariant truncates instead of
        # mis-indexing.
        needed = np.maximum(m.act_threshold - counts, 1)
        occurrences = np.bincount(inverse, minlength=len(uniq))
        cut = _first_crossing(inverse, occurrences, needed, extent)
        if cut < extent:
            if cut == 0:
                return 0, []
            extent = cut
            inverse = inverse[:extent]
            occurrences = np.bincount(inverse, minlength=len(uniq))

        # Allocate new entries in first-occurrence order -- the order
        # the scalar loop would insert them -- so the occupancy peak and
        # capacity-violation sequence replay exactly.  (occurrences > 0
        # implies the first occurrence lies inside the prefix.)
        fresh = np.flatnonzero((occurrences > 0) & ~present)
        for u in fresh[np.argsort(first_pos[fresh], kind="stable")]:
            entries[int(uniq[u])] = _Entry(act_count=0, life=0)
            if len(entries) > m.max_entries:
                m.capacity_violations += 1
            if len(entries) > m.peak_occupancy:
                m.peak_occupancy = len(entries)
        for u in np.flatnonzero(occurrences):
            entries[int(uniq[u])].act_count += int(occurrences[u])
        self.stats.activations += extent
        return extent, []


class FastCbtKernel(_WrappedKernel):
    """Counter-tree update over ``np.bincount`` leaf segments.

    The row->leaf map is a ``searchsorted`` over the (sorted) leaf
    starts; it can only change on a split, trigger, or window reset,
    all of which truncate the batch, so one map serves the whole batch.
    """

    def __init__(self, mitigation: CBT) -> None:
        super().__init__(mitigation)

    def next_blocking_ns(self) -> float:
        m: CBT = self.mitigation
        return (m._current_window + 1) * m._window_length_ns

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: CBT = self.mitigation
        leaves = m._leaves
        extent = len(rows)
        starts = np.fromiter(
            (leaf.start for leaf in leaves),
            dtype=np.int64,
            count=len(leaves),
        )
        leaf_idx = np.searchsorted(starts, rows, side="right") - 1
        occurrences = np.bincount(leaf_idx, minlength=len(leaves))
        # The pool only grows within a window; no split commits in a
        # batch, so "a free counter exists" is constant here.
        pool_free = len(leaves) < m.num_counters
        hot = np.flatnonzero(occurrences)
        first_special = extent
        for l in hot:
            leaf = leaves[int(l)]
            ceiling = m.action_threshold
            if (
                pool_free
                and leaf.size > 1
                and leaf.level < m.num_levels - 1
            ):
                ceiling = min(ceiling, m.split_threshold(leaf.level))
            needed = max(1, ceiling - leaf.count)
            if int(occurrences[l]) >= needed:
                positions = np.flatnonzero(leaf_idx == l)
                event_index = int(positions[needed - 1])
                if event_index < first_special:
                    first_special = event_index
        if first_special < extent:
            extent = first_special
            if extent == 0:
                return 0, []
            occurrences = np.bincount(
                leaf_idx[:extent], minlength=len(leaves)
            )
        for l in np.flatnonzero(occurrences):
            leaves[int(l)].count += int(occurrences[l])
        self.stats.activations += extent
        return extent, []


class _ActTransparentKernel(_WrappedKernel):
    """A scheme whose ACTs are no-ops; commit the whole run."""

    #: ACTs never change this scheme's decisions, so a zero-consumption
    #: vector failure is always a *timing* boundary (REF pop, blocked
    #: bank), never a miss-heavy stream: the lane skips its exponential
    #: scalar back-off and retries vectorizing immediately.
    act_transparent = True

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        self.stats.activations += len(rows)
        return len(rows), []


class FastRefreshRateKernel(_ActTransparentKernel):
    """Refresh-rate does all its work at REF ticks."""


class FastNoneKernel(_ActTransparentKernel):
    """The unprotected baseline tracks nothing.

    Its own class (not the refresh-rate kernel's) so per-scheme kernel
    accounting never mixes the two."""


class FastCometKernel(_WrappedKernel):
    """Batched RAT and count-min sketch updates.

    Between events every RAT entry sits strictly below the threshold
    (triggers re-arm to zero).  A sketch-path row's estimate after
    ``k`` batch occurrences is ``min_d table[d, cell_d] + k`` as long as
    no other sketch row of the batch shares one of its cells, so the
    batch truncates at the first occurrence of a row that collides (at
    any depth) with an earlier-admitted one.  Every remaining row needs
    ``max(T - count, 1)`` occurrences to trigger, where ``count`` is its
    RAT count or sketch estimate; the batch commits per-row occurrence
    counts up to (not including) the first event that would reach it.
    Triggers, promotions and RAT evictions replay scalar on the real
    state.
    """

    def __init__(self, mitigation: CoMeTMitigation) -> None:
        super().__init__(mitigation)

    def next_blocking_ns(self) -> float:
        m: CoMeTMitigation = self.mitigation
        return (m.current_window + 1) * m.window_len

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: CoMeTMitigation = self.mitigation
        rat = m.rat
        sketch = m.sketch
        extent = len(rows)
        uniq, first_pos, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        present = np.fromiter(
            (int(u) in rat for u in uniq),
            dtype=np.bool_,
            count=len(uniq),
        )
        # Pre-batch counter per distinct row: the exact RAT count, or
        # the sketch estimate for sketch-path rows.
        counts = np.fromiter(
            (rat[int(u)] if present[i] else 0 for i, u in enumerate(uniq)),
            dtype=np.int64,
            count=len(uniq),
        )
        # Sketch-path rows, hashed once each in first-occurrence order
        # with the sketch's own formula (``hash(int) == int``).
        order = np.flatnonzero(~present)
        order = order[np.argsort(first_pos[order], kind="stable")]
        keys = uniq[order] & 0x7FFFFFFF
        cells = (
            (sketch._a[:, None] * keys + sketch._b[:, None]) % sketch._prime
        ) % sketch.width
        # Cut before the first sketch row sharing a cell (at any depth)
        # with an earlier one: while the admitted rows' cells are
        # disjoint, each row's estimate is its own ``min + k``.
        depth_ix = np.arange(sketch.depth)
        flat = (cells + (depth_ix * sketch.width)[:, None]).T.ravel()
        # A stable sort lists each cell's holders in admission order, so
        # the repeats after the first are exactly the clashing entries.
        ranked = np.argsort(flat, kind="stable")
        repeat = flat[ranked[1:]] == flat[ranked[:-1]]
        if repeat.any():
            admitted = int(ranked[1:][repeat].min()) // sketch.depth
            extent = int(first_pos[order[admitted]])
            if extent == 0:
                return 0, []
            inverse = inverse[:extent]
            order = order[:admitted]
            cells = cells[:, :admitted]
        counts[order] = sketch._table[depth_ix[:, None], cells].min(axis=0)
        # Invariant: RAT counts < threshold between events; a sketch
        # estimate may already reach it (evicted or collided rows), so
        # the clamp makes such a row cut at its first occurrence.
        needed = np.maximum(m.threshold - counts, 1)
        occurrences = np.bincount(inverse, minlength=len(uniq))
        cut = _first_crossing(inverse, occurrences, needed, extent)
        if cut < extent:
            if cut == 0:
                return 0, []
            extent = cut
            occurrences = np.bincount(
                inverse[:extent], minlength=len(uniq)
            )
        for u in np.flatnonzero(occurrences * present):
            rat[int(uniq[u])] += int(occurrences[u])
        sketched = occurrences[order]
        sketch._table[depth_ix[:, None], cells] += sketched
        sketch.observations += int(sketched.sum())
        self.stats.activations += extent
        return extent, []


class FastAbacusKernel(_WrappedKernel):
    """Batched shared-table RAC updates for one bank's ABACuS view.

    Declares ``cross_bank``: the wrapped engine mutates rank-level
    state, so the dispatcher must execute same-bank runs in global
    order on a single lane (see ``FastMemoryController``).  Within one
    same-bank run a tracked row's RAC gains ``k`` increments when the
    bank's SAV bit starts set, else ``k - 1`` (the first occurrence
    only claims the bit); the batch truncates before the first event
    whose increment lands on a trigger multiple, and before any miss.
    """

    cross_bank = True

    def __init__(self, mitigation: AbacusMitigation) -> None:
        super().__init__(mitigation)

    def next_blocking_ns(self) -> float:
        state = self.mitigation.state
        return (state.current_window + 1) * state.window_ns

    def commit_run(
        self, times: np.ndarray, rows: np.ndarray
    ) -> tuple[int, list[RefreshDirective]]:
        m: AbacusMitigation = self.mitigation
        state = m.state
        entries = state.entries
        bit = 1 << m.bank
        extent = len(rows)
        uniq, first_pos, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        present = np.fromiter(
            (int(u) in entries for u in uniq),
            dtype=np.bool_,
            count=len(uniq),
        )
        if not present.all():
            # Misses mutate shared Misra-Gries state (insert, evict,
            # spillover): scalar territory.
            extent = int(first_pos[~present].min())
            if extent == 0:
                return 0, []
            inverse = inverse[:extent]
        has_bit = np.fromiter(
            (
                bool(entries[int(u)].sav & bit) if present[i] else False
                for i, u in enumerate(uniq)
            ),
            dtype=np.bool_,
            count=len(uniq),
        )
        racs = np.fromiter(
            (entries[int(u)].rac if present[i] else 0
             for i, u in enumerate(uniq)),
            dtype=np.int64,
            count=len(uniq),
        )
        # Increments to the next trigger multiple; occurrence count
        # needed is one more when the first occurrence only sets the
        # bit.  (rac % T == 0 means the last bump just triggered, so a
        # full period remains.)
        to_next = state.threshold - racs % state.threshold
        needed = np.maximum(to_next + np.where(has_bit, 0, 1), 1)
        occurrences = np.bincount(inverse, minlength=len(uniq))
        cut = _first_crossing(inverse, occurrences, needed, extent)
        if cut < extent:
            if cut == 0:
                return 0, []
            extent = cut
            occurrences = np.bincount(
                inverse[:extent], minlength=len(uniq)
            )
        for u in np.flatnonzero(occurrences):
            entry = entries[int(uniq[u])]
            k = int(occurrences[u])
            if has_bit[u]:
                increments = k
            else:
                increments = k - 1
                state.stats.sav_sets += 1
            entry.rac += increments
            if increments:
                entry.sav = bit
                state.stats.rac_increments += increments
            else:
                entry.sav |= bit
        state.stats.observations += extent
        self.stats.activations += extent
        return extent, []

    def commit_run_banked(
        self, times: np.ndarray, rows: np.ndarray, banks: np.ndarray
    ) -> int:
        """Global-order batch commit across banks (cross-bank lane).

        Same contract as ``commit_run`` -- consume the longest prefix
        whose tracking outcomes the bulk update reproduces exactly,
        truncating before misses and trigger multiples -- except events
        may interleave banks.  The caller owns per-bank
        ``MitigationStats.activations`` (it knows each bank's committed
        position count); this method owns only the shared-table side.

        Per reference observe semantics, an event on bank ``b`` against
        a tracked row increments the RAC iff bit ``b`` is in the SAV
        (then resets the SAV to ``{b}``), else it just ORs the bit in.
        Within one row group in global order that reduces to: event
        ``t`` increments iff its bank occurred at or after the last
        increment position ``L`` (which wiped the SAV to that event's
        bit) -- or, before any increment, iff its bank occurred earlier
        or started in the SAV.  Uniform-bank groups (every occurrence
        on one bank) collapse to closed form: every occurrence
        increments except a bit-less first.  Mixed-bank groups
        (round-robin hammers share rows across banks) walk increment to
        increment via :meth:`_scan_mixed` in O(increments), not
        O(events).
        """
        m: AbacusMitigation = self.mitigation
        state = m.state
        entries = state.entries
        threshold = state.threshold
        extent = len(rows)
        uniq, first_pos, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        present = np.fromiter(
            (int(u) in entries for u in uniq),
            dtype=np.bool_,
            count=len(uniq),
        )
        if not present.all():
            # Misses mutate shared Misra-Gries state (insert, evict,
            # spillover): scalar territory.
            extent = int(first_pos[~present].min())
            if extent == 0:
                return 0
        bits = np.int64(1) << banks[:extent]

        # Phase 1: earliest trigger across row groups.  Each group's
        # first trigger is computed independently; the global minimum
        # is the true first trigger because every event before it has
        # an outcome unaffected by anything at or after it.
        plans = self._group_plans(
            uniq, inverse[:extent], bits, entries, threshold
        )
        cut = extent
        for positions, _, _, _, trigger in plans:
            if trigger is not None:
                cut = min(cut, int(positions[trigger]))
        if cut == 0:
            return 0
        if cut < extent:
            # Re-plan on the trigger-free prefix (every group's
            # remaining events precede the first trigger, so the new
            # plans carry no triggers).
            extent = cut
            bits = bits[:extent]
            plans = self._group_plans(
                uniq, inverse[:extent], bits, entries, threshold
            )

        # Phase 2: apply.
        for positions, entry, count, last_inc, _ in plans:
            entry.rac += count
            if last_inc == -2:
                # No increment: the SAV only accumulated bits.
                entry.sav |= int(np.bitwise_or.reduce(bits[positions]))
            else:
                # The increment at ``last_inc`` wiped the SAV to that
                # event's bit; later (non-increment) events OR theirs.
                entry.sav = int(
                    np.bitwise_or.reduce(bits[positions[last_inc:]])
                )
            state.stats.rac_increments += count
            state.stats.sav_sets += len(positions) - count
        state.stats.observations += extent
        return extent

    def _group_plans(self, uniq, inverse, bits, entries, threshold):
        """Per row group: positions, entry, increment count, last
        increment index (group-local, ``-2`` if none) and first trigger
        index (group-local, ``None`` if none)."""
        if not len(inverse):
            return []
        order = np.argsort(inverse, kind="stable")
        sorted_inv = inverse[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_inv[1:] != sorted_inv[:-1]]
        )
        ends = np.append(starts[1:], len(inverse))
        plans = []
        for s, e in zip(starts, ends):
            positions = order[s:e]
            entry = entries[int(uniq[sorted_inv[s]])]
            group_bits = bits[positions]
            rac0 = entry.rac
            n = len(positions)
            if (group_bits == group_bits[0]).all():
                has_bit = bool(entry.sav & int(group_bits[0]))
                count = n if has_bit else n - 1
                last_inc = n - 1 if count else -2
                trigger = None
                needed = (
                    threshold - rac0 % threshold + (0 if has_bit else 1)
                )
                if needed <= n:
                    trigger = needed - 1
            else:
                count, last_inc, trigger = self._scan_mixed(
                    entry.sav, rac0, group_bits, threshold
                )
            plans.append((positions, entry, count, last_inc, trigger))
        return plans

    @staticmethod
    def _scan_mixed(sav0, rac0, group_bits, threshold):
        """Walk one mixed-bank row group increment to increment.

        An event increments iff its bank occurred at or after the last
        increment ``L`` (or, while ``L == -2``, iff its bank occurred
        before or starts in the SAV); each increment wipes the SAV, so
        the *next* increment after ``L`` is the earliest event whose
        same-bank predecessor sits at or after ``L`` -- that is
        ``min(nxt[p] for p >= L)``, a precomputed suffix minimum of the
        same-bank successor array.  The walk therefore costs one step
        per increment, with all per-event work vectorized.

        Returns ``(count, last_inc, trigger)``: increments performed,
        group-local index of the last one (``-2`` if none), group-local
        index of the first trigger (``None`` if none; ``count`` and
        ``last_inc`` are then only valid up to it).
        """
        n = len(group_bits)
        bid = np.unique(group_bits, return_inverse=True)[1]
        order = np.argsort(bid, kind="stable")
        sb = bid[order]
        same = sb[1:] == sb[:-1]
        prev = np.full(n, -2, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        nxt = np.full(n, n, dtype=np.int64)
        nxt[order[:-1][same]] = order[1:][same]
        firsts = order[np.r_[True, ~same]]
        seeded = (sav0 & group_bits[firsts]) != 0
        prev[firsts[seeded]] = -1
        sufmin_next = np.minimum.accumulate(nxt[::-1])[::-1]
        candidates = np.flatnonzero(prev != -2)
        if not len(candidates):
            return 0, -2, None
        t = int(candidates[0])
        count = 0
        while True:
            count += 1
            if (rac0 + count) % threshold == 0:
                return count, t, t
            step = int(sufmin_next[t])
            if step >= n:
                return count, t, None
            t = step


def reference_table_state(mitigation: GrapheneMitigation) -> dict[str, object]:
    """A Graphene engine's Misra-Gries table snapshot."""
    table = mitigation.engine.table
    return {
        "tracked": table.tracked(),
        "spillover": table.spillover,
        "observations": table.observations,
        "window": mitigation.engine.current_window,
    }


def reference_state(engine: Any) -> dict[str, Any]:
    """Comparable tracking-table snapshot for any kernel-covered scheme.

    Works on both the reference engine objects and the fast kernels'
    wrapped engines (they are the same classes).
    """
    if isinstance(engine, GrapheneMitigation):
        return reference_table_state(engine)
    if isinstance(engine, NoMitigation):
        return {"activations": engine.stats.activations}
    if isinstance(engine, PARA):
        return {
            "rng": engine._rng.bit_generator.state,
            "activations": engine.stats.activations,
            "directives": engine.stats.refresh_directives,
        }
    if isinstance(engine, TWiCe):
        return {
            "entries": {
                row: (entry.act_count, entry.life)
                for row, entry in engine._entries.items()
            },
            "peak": engine.peak_occupancy,
            "violations": engine.capacity_violations,
            "pruned": engine.pruned_entries,
        }
    if isinstance(engine, CBT):
        return {
            "leaves": engine.leaf_snapshot(),
            "window": engine._current_window,
            "splits": engine.splits,
            "resets": engine.window_resets,
        }
    if isinstance(engine, IncreasedRefreshRate):
        return {"pointer": engine._pointer}
    if isinstance(engine, CoMeTMitigation):
        return {
            # bytes for exact, hashable array comparison
            "sketch": engine.sketch._table.tobytes(),
            "observations": engine.sketch.observations,
            "rat": dict(engine.rat),
            "window": engine.current_window,
            "resets": engine.cstats.window_resets,
            "sketch_triggers": engine.cstats.sketch_triggers,
            "rat_triggers": engine.cstats.rat_triggers,
            "evictions": engine.cstats.rat_evictions,
            "insertions": engine.cstats.rat_insertions,
            "tracked_peak": engine.cstats.tracked_peak,
        }
    if isinstance(engine, PRoHIT):
        return {
            "hot": list(engine._hot),
            "cold": list(engine._cold),
            "rng": engine._rng.getstate(),
            "ref_commands": engine._ref_commands_seen,
        }
    if isinstance(engine, MRLoc):
        return {
            "queue": list(engine._queue),
            "rng": engine._rng.getstate(),
            "hits": engine.queue_hits,
            "misses": engine.queue_misses,
        }
    if isinstance(engine, CRA):
        return {
            "cache": list(engine._cache.items()),
            "backing": dict(engine._backing),
            "hits": engine.cache_hits,
            "misses": engine.cache_misses,
            "writebacks": engine.writebacks,
            "window": engine._current_window,
        }
    if isinstance(engine, AbacusMitigation):
        state = engine.state
        # Shared across banks: every bank reports the same snapshot,
        # so per-bank comparison still covers the whole table.
        return {
            "tracked": state.tracked(),
            "spillover": state.spillover,
            "window": state.current_window,
            "observations": state.stats.observations,
            "rac_increments": state.stats.rac_increments,
            "sav_sets": state.stats.sav_sets,
            "triggers": state.stats.triggers,
            "insertions": state.stats.insertions,
            "evictions": state.stats.evictions,
            "resets": state.stats.window_resets,
        }
    raise TypeError(f"no reference state extractor for {type(engine)!r}")


register_kernel(GrapheneMitigation, FastGrapheneKernel)
register_kernel(PARA, FastParaKernel)
register_kernel(TWiCe, FastTwiceKernel)
register_kernel(CBT, FastCbtKernel)
register_kernel(IncreasedRefreshRate, FastRefreshRateKernel)
register_kernel(CoMeTMitigation, FastCometKernel)
register_kernel(AbacusMitigation, FastAbacusKernel)
register_kernel(NoMitigation, FastNoneKernel)
register_kernel(PRoHIT, FastProhitKernel)
register_kernel(CRA, FastCraKernel)
register_kernel(MRLoc, FastMrlocKernel)
