"""Adaptive per-timestep loss weighting for calibration batches.

Reconstruction error is not equally easy to fix at every point of the
sampling trajectory: steps whose running error is already large tend to soak
up all of the optimization signal. This module keeps an exponential moving
average of the per-timestep loss and turns it into a focal-style weight

    weight(t) = (1 - avg_t / sum_over_T(avg))^alpha

so that timesteps with a large running average are damped and the easy,
low-loss timesteps keep contributing. alpha=0 switches the mechanism off
(every weight is 1); larger alpha sharpens the damping.

Weights are frozen for the duration of one batch: weighted_mean computes
every sample's weight first, then folds the batch's fresh losses into the
running averages afterwards. A caller that reads a batch's weights and then
folds its losses looks the batch up once (lookup) and hands both calls the
StepLookup in place of the timesteps; one that draws its batches from a
fixed set of rows looks the rows up once and indexes the lookup per batch.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class StepLookup:
    """A batch's timesteps, found once in one weighter's subset.

    Made by TimestepWeighter.lookup; its weights and weighted_mean accept
    it wherever they accept timesteps, and only from the weighter that
    made it.
    """

    weighter: "TimestepWeighter"
    positions: np.ndarray

    def __getitem__(self, rows) -> "StepLookup":
        """The lookup of the timesteps at rows, without a new search."""
        return StepLookup(self.weighter, self.positions[rows])


class TimestepWeighter:
    """Running per-timestep loss averages and the weights derived from them.

    Args:
        timesteps: the sampler's timestep subset; weights exist only for
            these values.
        alpha: damping exponent, >= 0.
        xi: momentum of the running average, in [0, 1). An average that has
            never been updated bootstraps to the first observed loss instead
            of being dragged up from zero.

    The state is two arrays indexed by a timestep's position in the subset:
    the running averages and whether each has been updated yet. The weight
    table derived from them is built on first use and kept until the
    averages change.
    """

    def __init__(self, timesteps: Iterable[int], alpha: float = 1.0, xi: float = 0.95):
        steps = [int(t) for t in timesteps]
        if not steps:
            raise DomainError("at least one timestep is required")
        if len(set(steps)) != len(steps):
            raise DomainError("timesteps must be distinct")
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise DomainError(f"alpha must be a finite non-negative real, got {alpha}")
        if not (0.0 <= xi < 1.0):
            raise DomainError(f"xi must lie in [0, 1), got {xi}")
        self.timesteps = tuple(steps)
        self.alpha = float(alpha)
        self.xi = float(xi)
        self._order = np.argsort(np.array(steps, dtype=np.int64), kind="stable")
        self._sorted = np.array(steps, dtype=np.int64)[self._order]
        self._avg = np.zeros(len(steps))
        self._seen = np.zeros(len(steps), dtype=bool)
        self._cached_table = None

    def running_average(self, t: int) -> float:
        return float(self._avg[self._positions(t)[0]])

    def lookup(self, timesteps: Sequence[int]) -> StepLookup:
        """Find every entry of timesteps in the subset, once for a batch
        whose weights are read and whose losses are then folded."""
        return StepLookup(self, self._positions(timesteps))

    def _found(self, timesteps) -> np.ndarray:
        """Positions of timesteps, or of a StepLookup this weighter made."""
        if not isinstance(timesteps, StepLookup):
            return self._positions(timesteps)
        if timesteps.weighter is not self:
            raise DomainError("timesteps were looked up in another weighter")
        return timesteps.positions

    def _positions(self, timesteps) -> np.ndarray:
        """Position of every entry of timesteps in the subset."""
        steps = np.asarray(timesteps).reshape(-1)
        at = np.minimum(np.searchsorted(self._sorted, steps), len(self._sorted) - 1)
        unknown = self._sorted[at] != steps
        if unknown.any():
            raise DomainError(
                f"timestep {steps[unknown][0]} is not part of this "
                "weighter's subset"
            )
        return self._order[at]

    def weight(self, t: int) -> float:
        """Current weight for timestep t, in [0, 1] once averages exist.

        While every running average is still zero there is no ranking to
        derive, so the weight falls back to 1 uniformly.
        """
        return float(self._table()[self._positions(t)[0]])

    def weights(self, timesteps: Sequence[int] | StepLookup) -> np.ndarray:
        """weight(t) for every entry of timesteps, summing the averages once."""
        return self._table()[self._found(timesteps)]

    def _total(self) -> float:
        # a sequential sum in subset order, as a plain Python sum
        return sum(self._avg.tolist())

    def _table(self) -> np.ndarray:
        """The current weight of every position in the subset; callers
        must not write to it."""
        if self._cached_table is None:
            total = self._total()
            self._cached_table = np.array(
                [self._weight_from(a, total) for a in self._avg.tolist()]
            )
        return self._cached_table

    def _weight_from(self, avg: float, total: float) -> float:
        if self.alpha == 0.0 or total == 0.0:
            return 1.0
        base = 1.0 - avg / total
        if base < 0.0:  # guard against float dust; averages are non-negative
            base = 0.0
        return base**self.alpha

    def update(self, t: int, batch_mean_loss: float) -> None:
        """Fold one batch's mean loss at timestep t into the running average."""
        pos = self._positions(t)
        loss = float(batch_mean_loss)
        if not math.isfinite(loss) or loss < 0.0:
            raise DomainError(f"batch mean loss must be finite and >= 0, got {loss}")
        self._fold(pos.tolist(), [loss])

    def weighted_mean(
        self, losses: Sequence[float], timesteps: Sequence[int] | StepLookup
    ) -> float:
        """Weighted mean of per-sample losses, then update the averages.

        Weights for the whole batch are taken from the state as it was when
        the batch started; the batch's own losses only influence later
        batches. Returns (1/B) * sum_i weight(t_i) * loss_i. Losses must be
        finite and non-negative: this check is what stops a descent whose
        losses overflowed.
        """
        losses = np.asarray(losses, dtype=np.float64).reshape(-1)
        pos = self._found(timesteps)
        if losses.shape[0] != pos.shape[0]:
            raise DimensionError(
                f"{losses.shape[0]} losses but {pos.shape[0]} timesteps"
            )
        if losses.shape[0] == 0:
            raise DimensionError("weighted_mean needs a non-empty batch")
        if not np.isfinite(losses).all() or (losses < 0.0).any():
            raise DomainError("per-sample losses must be finite and >= 0")
        result = float(np.mean(self._table()[pos] * losses))
        self._fold(pos.tolist(), losses.tolist())
        return result

    def _fold(self, pos: list, losses: list) -> None:
        """update(t, mean of the batch's losses at t) for every t in the
        batch: the one fold of the running averages.

        A group of fewer than 8 losses is summed in order from 0.0 in
        Python floats, which is the sum np.mean takes of so few values (and
        np.bincount's); a group of 8 or more takes np.mean itself, which
        sums pairwise there. So every group mean is np.mean's, bit for bit.
        Then each position the batch touches takes its mean as its first
        average or blends it into the one it has; no state changes unless
        every mean is finite.
        """
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for p, loss in zip(pos, losses):
            if p in sums:
                sums[p] += loss
                counts[p] += 1
            else:
                sums[p] = 0.0 + loss
                counts[p] = 1
        means = {
            p: total / counts[p] if counts[p] < 8
            else float(np.mean([v for q, v in zip(pos, losses) if q == p]))
            for p, total in sums.items()
        }
        if not all(map(math.isfinite, means.values())):
            raise DomainError("batch mean loss must be finite")  # a sum overflowed
        avg, seen, xi = self._avg.tolist(), self._seen.tolist(), self.xi
        for p, mean in means.items():
            avg[p] = xi * avg[p] + (1.0 - xi) * mean if seen[p] else mean
            seen[p] = True
        self._avg, self._seen = np.array(avg), np.array(seen)
        self._cached_table = None
