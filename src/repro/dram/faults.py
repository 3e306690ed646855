"""Row Hammer fault model.

This module is the *ground truth* the mitigation schemes are judged
against.  It implements the disturbance abstraction the paper's own
guarantee proof rests on (Sections II-B, III-C, III-D):

* every ACT on an aggressor row deposits charge disturbance on nearby
  victim rows;
* a victim at distance ``i`` receives a fraction ``mu_i`` of the
  disturbance an immediately adjacent victim receives (``mu_1 = 1``,
  ``mu_i`` decreasing with ``i`` -- Section III-D);
* a victim whose accumulated disturbance since its last refresh reaches
  the Row Hammer threshold ``T_RH`` suffers a bit flip;
* any refresh of the victim (regular auto-refresh or a victim-row/NRR
  refresh) restores full charge, i.e. resets the accumulator.

A double-sided attack where both neighbors of one victim each receive
``T_RH / 2`` ACTs therefore flips the victim -- exactly the worst case
the paper sizes ``T`` against (Inequality 2).

The model deliberately has **no false tolerance**: it flips a bit the
moment the threshold is reached, making it a strict adversarial referee
for protection-guarantee tests.

:meth:`HammerFaultModel.batch` plans a whole run of ACTs at once for the
batched engine (:mod:`repro.core.fastpath`): it finds the first ACT that
would flip a bit, and commits any prefix before it with the same float
sums the per-ACT :meth:`~HammerFaultModel.on_activate` loop produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["CouplingProfile", "BitFlip", "HammerFaultModel", "FaultBatch"]


@dataclass(frozen=True)
class CouplingProfile:
    """Distance-dependent disturbance coefficients ``mu_i``.

    Attributes:
        blast_radius: Farthest distance ``n`` at which an ACT disturbs a
            victim (the paper's "non-adjacent (+-n) Row Hammer").
        coefficients: ``(mu_1, mu_2, ..., mu_n)`` with ``mu_1 == 1``.
    """

    blast_radius: int = 1
    coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        if len(self.coefficients) != self.blast_radius:
            raise ValueError(
                "need exactly one coefficient per distance: "
                f"{len(self.coefficients)} given for radius {self.blast_radius}"
            )
        if abs(self.coefficients[0] - 1.0) > 1e-12:
            raise ValueError("mu_1 must be 1.0 by definition")
        previous = float("inf")
        for mu in self.coefficients:
            if not 0.0 < mu <= 1.0:
                raise ValueError(f"coefficients must be in (0, 1], got {mu}")
            if mu > previous + 1e-12:
                raise ValueError("coefficients must be non-increasing with distance")
            previous = mu

    @classmethod
    def adjacent_only(cls) -> "CouplingProfile":
        """The classic +-1 model used in most of the paper."""
        return cls(blast_radius=1, coefficients=(1.0,))

    @classmethod
    def inverse_square(cls, blast_radius: int) -> "CouplingProfile":
        """``mu_i = 1 / i**2`` -- the paper's Section III-D example.

        The amplification factor ``1 + mu_2 + ... + mu_n`` then stays
        below ``pi**2 / 6 ~= 1.64`` for any radius.
        """
        return cls(
            blast_radius=blast_radius,
            coefficients=tuple(1.0 / (i * i) for i in range(1, blast_radius + 1)),
        )

    @classmethod
    def uniform(cls, blast_radius: int) -> "CouplingProfile":
        """``mu_i = 1`` for all distances -- the conservative worst case."""
        return cls(blast_radius=blast_radius, coefficients=(1.0,) * blast_radius)

    def mu(self, distance: int) -> float:
        """Disturbance coefficient for a victim ``distance`` rows away."""
        if distance < 1:
            raise ValueError("distance must be >= 1")
        if distance > self.blast_radius:
            return 0.0
        return self.coefficients[distance - 1]

    @property
    def amplification_factor(self) -> float:
        """``1 + mu_2 + ... + mu_n`` (Section III-D).

        Scales both the required table size and the inverse of ``T`` when
        non-adjacent victims must be protected.
        """
        return sum(self.coefficients)


@dataclass(frozen=True)
class BitFlip:
    """Record of a Row Hammer-induced bit flip in a victim row."""

    bank: int
    row: int
    time_ns: float
    #: Accumulated mu-weighted disturbance when the flip occurred.
    disturbance: float
    #: The aggressor whose ACT pushed the victim over the threshold.
    triggering_aggressor: int


class HammerFaultModel:
    """Per-bank charge-disturbance bookkeeping and bit-flip injection.

    Args:
        threshold: Row Hammer threshold ``T_RH`` -- the mu-weighted ACT
            count a victim must absorb (without an intervening refresh)
            to flip.
        rows: Number of rows in the bank; ACT/refresh row operands are
            validated against it.
        coupling: Distance model for disturbance deposition.
        bank: Flat bank index used only for labelling :class:`BitFlip`
            records.
        flip_once: When True (default) a row reports at most one flip and
            further disturbance on it is ignored, which keeps adversarial
            traces from generating unbounded flip lists.
    """

    def __init__(
        self,
        threshold: float,
        rows: int,
        coupling: CouplingProfile | None = None,
        bank: int = 0,
        flip_once: bool = True,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.threshold = float(threshold)
        self.rows = int(rows)
        self.coupling = coupling or CouplingProfile.adjacent_only()
        self.bank = bank
        self.flip_once = flip_once
        #: Accumulated disturbance per victim row since its last refresh.
        self._disturbance: dict[int, float] = {}
        self._flipped: set[int] = set()
        self.flips: list[BitFlip] = []
        self.activations = 0
        self.refreshes = 0
        #: ``(offset, mu)`` per victim in on_activate's visiting order
        #: (-1, +1, -2, +2, ...), for :class:`FaultBatch`.
        self._pairs = tuple(
            (sign * d, self.coupling.mu(d))
            for d in range(1, self.coupling.blast_radius + 1)
            for sign in (-1, 1)
        )

    # ------------------------------------------------------------------
    # Event entry points
    # ------------------------------------------------------------------

    def on_activate(self, row: int, time_ns: float) -> list[BitFlip]:
        """Record an ACT on ``row``; return any bit flips it caused."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        self.activations += 1
        new_flips: list[BitFlip] = []
        for distance in range(1, self.coupling.blast_radius + 1):
            mu = self.coupling.mu(distance)
            for victim in (row - distance, row + distance):
                if not 0 <= victim < self.rows:
                    continue
                if self.flip_once and victim in self._flipped:
                    continue
                total = self._disturbance.get(victim, 0.0) + mu
                self._disturbance[victim] = total
                if total >= self.threshold:
                    flip = BitFlip(
                        bank=self.bank,
                        row=victim,
                        time_ns=time_ns,
                        disturbance=total,
                        triggering_aggressor=row,
                    )
                    self.flips.append(flip)
                    new_flips.append(flip)
                    if self.flip_once:
                        self._flipped.add(victim)
                        self._disturbance.pop(victim, None)
                    else:
                        self._disturbance[victim] = 0.0
        return new_flips

    def batch(self, rows: np.ndarray) -> "FaultBatch":
        """Plan a run of ACTs on ``rows`` (in ACT order), read-only.

        The plan's :attr:`~FaultBatch.cut` is the first ACT that would
        flip a bit; :meth:`FaultBatch.commit` then applies any prefix up
        to it.  Rows must already be range-checked.
        """
        return FaultBatch(self, rows)

    def _flip_cut(self, rows: list[int]) -> int:
        """Index of the first ACT in ``rows`` that would flip a bit.

        ``len(rows)`` if none would.  :meth:`on_activate`'s additions
        in its order, into a local overlay, so the model is not touched.
        """
        # Each ACT adds at most mu_1 = 1 to a victim, so a run that
        # cannot lift even the largest accumulator to the threshold
        # needs no walk; the 1.0 of slack covers float rounding.
        if max(self._disturbance.values(), default=0.0) + len(rows) + 1.0 < (
            self.threshold
        ):
            return len(rows)
        disturbance = self._disturbance
        flipped = self._flipped if self.flip_once else ()
        threshold = self.threshold
        size = self.rows
        overlay: dict[int, float] = {}
        for index, row in enumerate(rows):
            for offset, mu in self._pairs:
                victim = row + offset
                if 0 <= victim < size and victim not in flipped:
                    total = overlay.get(victim)
                    if total is None:
                        total = disturbance.get(victim, 0.0)
                    total += mu
                    if total >= threshold:
                        return index
                    overlay[victim] = total
        return len(rows)

    def _deposit(self, rows: list[int]) -> None:
        """:meth:`on_activate` for ACTs known not to flip a bit.

        The same additions in the same order, minus the threshold
        check, so new victims enter the dict in first-touch order.
        """
        disturbance = self._disturbance
        flipped = self._flipped if self.flip_once else ()
        size = self.rows
        for row in rows:
            for offset, mu in self._pairs:
                victim = row + offset
                if 0 <= victim < size and victim not in flipped:
                    disturbance[victim] = disturbance.get(victim, 0.0) + mu
        self.activations += len(rows)

    def on_refresh(self, row: int) -> None:
        """A refresh of ``row`` restores its charge fully."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        self.refreshes += 1
        self._disturbance.pop(row, None)

    def on_refresh_range(self, rows: Iterable[int]) -> None:
        """Refresh several rows at once (auto-refresh chunks, NRR bursts)."""
        for row in rows:
            self.on_refresh(row)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def disturbance_of(self, row: int) -> float:
        """Current accumulated disturbance of ``row`` (0.0 if clean)."""
        return self._disturbance.get(row, 0.0)

    @property
    def flip_count(self) -> int:
        return len(self.flips)

    @property
    def max_disturbance(self) -> float:
        """Largest outstanding accumulator -- the attack's best progress."""
        return max(self._disturbance.values(), default=0.0)

    def rows_above(self, fraction: float) -> list[int]:
        """Rows whose accumulator exceeds ``fraction * threshold``.

        Handy for visualizing how close an attack came to flipping bits.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        bar = fraction * self.threshold
        return sorted(r for r, d in self._disturbance.items() if d >= bar)

    def headroom(self) -> float:
        """Remaining margin before the closest victim flips, in ACTs."""
        return self.threshold - self.max_disturbance

    def reset(self) -> None:
        """Forget all accumulated state (fresh bank)."""
        self._disturbance.clear()
        self._flipped.clear()
        self.flips.clear()
        self.activations = 0
        self.refreshes = 0


class FaultBatch:
    """One run of ACTs planned against a :class:`HammerFaultModel`.

    :attr:`cut` is the first ACT that would flip a bit (the run's length
    if none would), found by a read-only walk of :meth:`on_activate`'s
    arithmetic.  No ACT before it flips or resets a victim, so
    :meth:`commit` applies a prefix with the same additions minus the
    threshold check.  The flipping ACT itself replays through
    :meth:`HammerFaultModel.on_activate`, which builds the
    :class:`BitFlip`.
    """

    def __init__(self, model: HammerFaultModel, rows: np.ndarray) -> None:
        self.model = model
        self._rows = rows.tolist()
        #: ACTs this plan can commit: up to the first that would flip.
        self.cut = model._flip_cut(self._rows)

    def commit(self, consumed: int) -> None:
        """Apply the first ``consumed`` ACTs (``consumed <= cut``)."""
        if consumed > self.cut:
            raise ValueError(
                f"cannot commit {consumed} ACTs past the cut at {self.cut}"
            )
        if consumed > 0:
            self.model._deposit(self._rows[:consumed])
