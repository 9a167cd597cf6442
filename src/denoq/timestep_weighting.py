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
running averages afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError


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
    the running averages and whether each has been updated yet.
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

    def running_average(self, t: int) -> float:
        return float(self._avg[self._positions(t)[0]])

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

    def weights(self, timesteps: Sequence[int]) -> np.ndarray:
        """weight(t) for every entry of timesteps, summing the averages once."""
        return self._table()[self._positions(timesteps)]

    def _total(self) -> float:
        # a sequential sum in subset order, as a plain Python sum
        return sum(self._avg.tolist())

    def _table(self) -> np.ndarray:
        """The current weight of every position in the subset."""
        total = self._total()
        return np.array([self._weight_from(a, total) for a in self._avg.tolist()])

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
        self._fold(pos, np.array([loss]))

    def weighted_mean(self, losses: Sequence[float], timesteps: Sequence[int]) -> float:
        """Weighted mean of per-sample losses, then update the averages.

        Weights for the whole batch are taken from the state as it was when
        the batch started; the batch's own losses only influence later
        batches. Returns (1/B) * sum_i weight(t_i) * loss_i.
        """
        losses = np.asarray(losses, dtype=np.float64).reshape(-1)
        steps = np.asarray(timesteps).reshape(-1)
        if losses.shape[0] != steps.shape[0]:
            raise DimensionError(
                f"{losses.shape[0]} losses but {steps.shape[0]} timesteps"
            )
        if losses.shape[0] == 0:
            raise DimensionError("weighted_mean needs a non-empty batch")
        if not np.all(np.isfinite(losses)) or np.any(losses < 0.0):
            raise DomainError("per-sample losses must be finite and >= 0")
        pos = self._positions(steps)
        result = float(np.mean(self._table()[pos] * losses))
        self._fold(pos, losses)
        return result

    def _fold(self, pos: np.ndarray, losses: np.ndarray) -> None:
        """update(t, mean of the batch's losses at t) for every t in the batch.

        np.mean sums fewer than 8 values in sequence, as bincount does, and
        8 or more pairwise; those groups take np.mean itself, so every group
        mean is the one np.mean gives, bit for bit.
        """
        counts = np.bincount(pos, minlength=self._avg.shape[0])
        present = counts > 0
        means = np.bincount(pos, weights=losses, minlength=self._avg.shape[0])
        np.divide(means, counts, out=means, where=present)
        for i in np.flatnonzero(counts >= 8):
            means[i] = np.mean(losses[pos == i])
        if not np.isfinite(means).all():  # a sum of huge losses can overflow
            raise DomainError("batch mean loss must be finite")
        blended = self.xi * self._avg + (1.0 - self.xi) * means
        fresh = present & ~self._seen
        self._avg = np.where(fresh, means, np.where(present, blended, self._avg))
        self._seen |= present
