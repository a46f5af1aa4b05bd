"""Averaging of captured quantized models on the exact step-size grid.

n captured models sharing a common per-layer step all have weights of the
form k * step, so their elementwise mean lives on the finer step / n grid.
The mean is computed by summing the integer levels and scaling once, which
keeps the result exactly grid-resident. Averaging n models on an M-level
grid yields at most n (M - 1) + 1 distinct values per layer (2n + 1 for
ternary models), i.e. an effective bit width of the smallest b' whose
level count covers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Network
from .quantizer import QuantizedModel, _weight_steps, direct_quantize_model, levels_count

__all__ = [
    "CaptureEntry",
    "CaptureBank",
    "AveragedModel",
    "effective_bits",
    "average_models",
    "requantize_averaged",
]


@dataclass
class CaptureEntry:
    """One captured model: the quantized weights that were live at the end
    of a cycle, the full-precision shadow behind them, and its metrics."""

    epoch: int
    model: QuantizedModel
    shadow: Network
    metrics: dict

    def __post_init__(self):
        if self.shadow.layout != self.model.net.layout:
            raise ValueError("shadow and quantized weights disagree in shape")


@dataclass
class CaptureBank:
    """Ordered collection of captures sharing one quantizer configuration."""

    bits: int
    steps: list[float]
    entries: list[CaptureEntry] = field(default_factory=list)

    def add(self, entry: CaptureEntry) -> None:
        if entry.model.bits != self.bits or list(entry.model.steps) != list(self.steps):
            raise ValueError("capture does not share the bank's quantizer configuration")
        if self.entries:
            if self.entries[0].model.net.layout != entry.model.net.layout:
                raise ValueError("capture shapes do not match the bank")
            if entry.epoch <= self.entries[-1].epoch:
                raise ValueError(f"capture epoch {entry.epoch} not after "
                                 f"{self.entries[-1].epoch}")
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class AveragedModel:
    """Mean of n grid-resident models: weights on the step / n grid, biases
    full precision."""

    net: Network
    count: int
    base_steps: list[float]
    effective_bits: int


def effective_bits(n: int, bits: int) -> int:
    """Smallest bit width whose levels cover the n (M - 1) + 1 values an
    average of n models on the M-level `bits` grid can take."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    values = n * (levels_count(bits) - 1) + 1
    b = 1
    while levels_count(b) < values:
        b += 1
    return b


def average_models(bank: CaptureBank, last_n: int) -> AveragedModel:
    """Elementwise mean of the bank's last `last_n` captures."""
    if not (1 <= last_n <= len(bank)):
        raise ValueError(f"last_n must be in [1, {len(bank)}], got {last_n}")
    entries = bank.entries[-last_n:]
    out = entries[0].model.net.copy()
    nw = out.weight_size
    step_of = _weight_steps(out, bank.bits, bank.steps)
    weights = np.array([e.model.net.flat[:nw] for e in entries])
    levels = np.rint(weights / step_of)
    off_grid = np.flatnonzero((levels * step_of != weights).any(axis=0))
    if off_grid.size:
        layer = next(i for i in out.param_layers() if out.layout[i][1] > off_grid[0])
        raise ValueError(f"layer {layer}: captured weights are not on the shared grid")
    out.flat[:nw] = levels.astype(np.int64).sum(axis=0) * (step_of / last_n)
    out.flat[nw:] = np.mean([e.model.net.flat[nw:] for e in entries], axis=0)
    return AveragedModel(out, last_n, list(bank.steps), effective_bits(last_n, bank.bits))


def requantize_averaged(avg: AveragedModel, target_bits: int) -> tuple[QuantizedModel, list[float]]:
    """Map an averaged model back onto a coarse grid with fresh per-layer
    MSE-minimizing step sizes. The result is the starting point for
    fine-tuning."""
    return direct_quantize_model(avg.net, target_bits)
