"""Epoch-indexed learning rate schedules.

Two kinds: the classic step decay used for full-precision pretraining, and
a cyclical discrete schedule for retraining. The cyclical schedule repeats
a descending ladder of k + 2 geometrically spaced values per period; its
bounds default to one tenth of the pretraining schedule's largest and
smallest rates, and models are meant to be captured at the last epoch of
each complete period, where the rate sits at the cycle minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "StepDecaySchedule",
    "CyclicalSchedule",
    "derive_cycle_bounds",
    "ladder",
    "capture_epochs",
]


@dataclass(frozen=True)
class StepDecaySchedule:
    """lr = initial_lr * factor^(number of milestones passed)."""

    initial_lr: float
    factor: float
    milestones: tuple[int, ...]
    total_epochs: int

    def __post_init__(self):
        if not 0.0 < self.initial_lr < math.inf:
            raise ValueError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        ms = tuple(self.milestones)
        if list(ms) != sorted(set(ms)) or any(m < 1 for m in ms):
            raise ValueError("milestones must be strictly increasing epochs >= 1")
        object.__setattr__(self, "milestones", ms)

    def lr_values(self) -> list[float]:
        """Every distinct rate the schedule takes, in order of use. A rate
        past the last epoch (a milestone >= total_epochs) is included."""
        return [self.initial_lr * self.factor ** i for i in range(len(self.milestones) + 1)]

    def rates(self) -> list[float]:
        """The rate of each epoch, in order."""
        return [self.initial_lr * self.factor ** sum(1 for m in self.milestones if m <= epoch)
                for epoch in range(self.total_epochs)]


@dataclass(frozen=True)
class CyclicalSchedule:
    """Descending ladder of mid_steps + 2 rates, repeated every `period` epochs.

    Ladder values run from max_lr down to min_lr with geometric spacing.
    Within a period each value dwells for period // (mid_steps + 2) epochs
    and any remainder epochs stay at min_lr, so the final epoch of every
    period runs at the cycle minimum.
    """

    max_lr: float
    min_lr: float
    period: int
    mid_steps: int
    total_epochs: int

    def __post_init__(self):
        if not (math.inf > self.max_lr > self.min_lr > 0.0):
            raise ValueError(f"need finite max_lr > min_lr > 0, got {self.max_lr}, {self.min_lr}")
        if self.mid_steps not in (1, 2):
            raise ValueError(f"mid_steps must be 1 or 2, got {self.mid_steps}")
        if self.period < self.mid_steps + 2:
            raise ValueError(f"period {self.period} cannot fit {self.mid_steps + 2} ladder values")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")

    def rates(self) -> list[float]:
        """The rate of each epoch, in order."""
        values = ladder(self)
        dwell = self.period // len(values)
        return [values[min(epoch % self.period // dwell, len(values) - 1)]
                for epoch in range(self.total_epochs)]


def derive_cycle_bounds(pretrain_lrs) -> tuple[float, float]:
    """Cycle bounds from the pretraining rates: (max/10, min/10).

    Needs at least two distinct positive rates, otherwise the cycle would
    be degenerate.
    """
    lrs = [float(v) for v in pretrain_lrs]
    if not lrs:
        raise ValueError("need at least one pretraining learning rate")
    if any(v <= 0.0 for v in lrs):
        raise ValueError("pretraining learning rates must be positive")
    hi, lo = max(lrs), min(lrs)
    if hi == lo:
        raise ValueError("need at least two distinct pretraining learning rates")
    return hi / 10.0, lo / 10.0


def ladder(spec: CyclicalSchedule) -> list[float]:
    """The mid_steps + 2 distinct rates of one period, descending."""
    n = spec.mid_steps + 2
    ratio = spec.min_lr / spec.max_lr
    values = [spec.max_lr * ratio ** (j / (n - 1)) for j in range(n)]
    values[-1] = spec.min_lr  # exact endpoints
    return values


def capture_epochs(spec: CyclicalSchedule) -> list[int]:
    """Last epoch of each complete period; incomplete trailing periods get none."""
    return [p * spec.period + spec.period - 1
            for p in range(spec.total_epochs // spec.period)]
