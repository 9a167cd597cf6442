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
        self._avg = {t: 0.0 for t in steps}
        self._seen = {t: False for t in steps}

    def running_average(self, t: int) -> float:
        self._check_known(t)
        return self._avg[t]

    def _check_known(self, t: int) -> None:
        if t not in self._avg:
            raise DomainError(f"timestep {t} is not part of this weighter's subset")

    def weight(self, t: int) -> float:
        """Current weight for timestep t, in [0, 1] once averages exist.

        While every running average is still zero there is no ranking to
        derive, so the weight falls back to 1 uniformly.
        """
        self._check_known(t)
        return self._weight_from(self._avg[t], sum(self._avg.values()))

    def weights(self, timesteps: Sequence[int]) -> np.ndarray:
        """weight(t) for every entry of timesteps, summing the averages once."""
        steps = [int(t) for t in np.asarray(timesteps).reshape(-1)]
        distinct = dict.fromkeys(steps)
        for t in distinct:
            self._check_known(t)
        total = sum(self._avg.values())
        table = {t: self._weight_from(self._avg[t], total) for t in distinct}
        return np.array([table[t] for t in steps], dtype=np.float64)

    def _weight_from(self, avg: float, total: float) -> float:
        if self.alpha == 0.0 or total == 0.0:
            return 1.0
        base = 1.0 - avg / total
        if base < 0.0:  # guard against float dust; averages are non-negative
            base = 0.0
        return base**self.alpha

    def update(self, t: int, batch_mean_loss: float) -> None:
        """Fold one batch's mean loss at timestep t into the running average."""
        self._check_known(t)
        loss = float(batch_mean_loss)
        if not math.isfinite(loss) or loss < 0.0:
            raise DomainError(f"batch mean loss must be finite and >= 0, got {loss}")
        if not self._seen[t]:
            self._avg[t] = loss
            self._seen[t] = True
        else:
            self._avg[t] = self.xi * self._avg[t] + (1.0 - self.xi) * loss

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
        weights = self.weights(steps)
        result = float(np.mean(weights * losses))
        for t in sorted(set(int(t) for t in steps)):
            group = losses[steps == t]
            self.update(t, float(np.mean(group)))
        return result
