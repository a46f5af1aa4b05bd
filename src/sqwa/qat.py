"""Quantized-weight training with full-precision shadow parameters.

The forward pass, the loss, and the gradients all use the quantized
(applied) weights; the update is applied to a full-precision shadow copy,
which is re-quantized after every step under the frozen per-layer step
sizes. Gradients too small to push a shadow weight across a grid midpoint
therefore leave the applied weights untouched while still accumulating in
the shadow. Biases are never quantized: the applied model always carries
the shadow's biases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import CaptureBank, CaptureEntry
from .data import Dataset, shuffle_batches
from .nn import (Gradients, Network, OptimizerState, _check_input, _check_labels, _one_hot,
                 forward, loss_and_backward, sgd_momentum_step)
from .quantizer import (QuantizedModel, _quantize, _weight_steps, quantize_network,
                        select_step_size)
from .schedule import CyclicalSchedule, capture_epochs, lr_at

__all__ = ["ShadowModel", "qat_train_step", "fit", "retrain", "finetune"]


@dataclass
class ShadowModel:
    """Full-precision shadow network plus its quantized applied view.

    Invariant: applied weights equal quantize(shadow weights) under the
    frozen `steps`, and applied biases mirror the shadow biases. Both
    networks share one parameter layout. Construction builds the per-element
    steps and the re-quantizer's scratch buffer once.
    """

    shadow: Network
    applied: Network
    bits: int
    steps: list[float]

    def __post_init__(self):
        if self.applied.layout != self.shadow.layout:
            raise ValueError("shadow and applied network disagree in layout")
        self._step_of = _weight_steps(self.shadow, self.bits, self.steps)
        self._work = np.empty(self.shadow.weight_size)

    @staticmethod
    def from_network(net: Network, bits: int, steps: list[float] | None = None) -> "ShadowModel":
        """Wrap a full-precision network. Steps are selected per layer by
        MSE minimization unless given (e.g. frozen from an earlier stage)."""
        shadow = net.copy()
        if steps is None:
            steps = [select_step_size(shadow.weights[i], bits) for i in shadow.param_layers()]
        applied = quantize_network(shadow, bits, list(steps))
        return ShadowModel(shadow, applied, bits, list(steps))

    def refresh_applied(self) -> None:
        """Re-quantize the shadow's weight region into the applied view and
        copy the biases."""
        nw, shadow, applied = self.shadow.weight_size, self.shadow.flat, self.applied.flat
        _quantize(shadow[:nw], self._step_of, self.bits, out=applied[:nw], work=self._work)
        applied[nw:] = shadow[nw:]

    def as_quantized(self) -> QuantizedModel:
        """Deep-copied snapshot of the applied model."""
        return QuantizedModel(self.applied.copy(), self.bits, list(self.steps))

    def copy(self) -> "ShadowModel":
        return ShadowModel(self.shadow.copy(), self.applied.copy(), self.bits, list(self.steps))


class _StepWorkspace:
    """What the steps of one training loop share: the model, the momentum
    state, and one gradient buffer that every step overwrites whole."""

    def __init__(self, model: ShadowModel | Network, opt: OptimizerState):
        self.model, self.opt = model, opt
        self.quantized = isinstance(model, ShadowModel)
        self.applied = model.applied if self.quantized else model
        self.trained = model.shadow if self.quantized else model
        self.grads = Gradients.like(self.applied)


def qat_train_step(ws: _StepWorkspace, batch: np.ndarray, targets: np.ndarray,
                   lr: float) -> None:
    """One training step on quantized weights.

    Forward pass and gradients are computed on the applied (quantized)
    network; the momentum update lands on the trained (shadow) network; the
    applied view is rebuilt from the updated shadow. A plain Network is the
    no-quantizer case, its own applied and shadow network. `targets` is the
    batch's one-hot label block, which fit builds from labels it has checked;
    the forward pass checks the batch's input shape.
    """
    logits, cache = forward(ws.applied, batch)
    loss_and_backward(ws.applied, cache, logits, targets, ws.grads)
    sgd_momentum_step(ws.trained, ws.grads, ws.opt, lr)
    if ws.quantized:
        ws.model.refresh_applied()


def fit(model: ShadowModel | Network, dataset: Dataset, lrs: list[float], seed: int, *,
        batch_size: int = 32, momentum: float = 0.9, l2_scale: float = 0.0,
        after_epoch=None) -> ShadowModel | Network:
    """The training loop: one epoch of shuffled batches per rate in `lrs`,
    each batch one qat_train_step, with fresh momentum buffers, and
    `after_epoch(epoch, lr)` after every epoch. Mutates `model`, returns it.

    The dataset's input shape and labels are checked once, before the
    first step, and all steps share one gradient buffer. Each epoch builds
    the one-hot targets of its shuffled labels once. After every epoch
    a trained parameter that is not finite, or a weighted layer whose
    weights are all zero at float32 precision, raises ValueError naming the
    epoch and layer.
    """
    net = model.applied if isinstance(model, ShadowModel) else model
    ws = _StepWorkspace(model, OptimizerState.for_network(net, momentum, l2_scale))
    _check_input(net, dataset.images)
    _check_labels(dataset.labels, len(dataset), net.num_classes)
    for epoch, lr in enumerate(lrs):
        _run_epoch(model, dataset, lr, ws, batch_size, seed, epoch)
        _check_alive(ws.trained, epoch)
        if after_epoch is not None:
            after_epoch(epoch, lr)
    return model


def _run_epoch(model: ShadowModel | Network, dataset: Dataset, lr: float,
               ws: _StepWorkspace, batch_size: int, seed: int, epoch: int) -> None:
    batches = shuffle_batches(dataset, batch_size, seed, epoch)
    # the epoch's labels in batch order (the empty head keeps an empty
    # dataset's list nonempty) as one target block, sliced per step
    targets = _one_hot(np.concatenate([dataset.labels[:0], *(yb for _, yb in batches)]),
                       ws.applied.num_classes)
    for start, (xb, _) in zip(range(0, len(dataset), batch_size), batches):
        qat_train_step(ws, xb, targets[start:start + batch_size], lr)


def _check_alive(net: Network, epoch: int) -> None:
    # A diverged or dead model stops training here, not at a later stage
    # that cannot use it: an all-zero layer has no quantizer step. Zero is
    # judged at float32, the precision checkpoints keep plain weights at,
    # so weights that decayed below it count as zero, as they load.
    for i in net.param_layers():
        where = f"epoch {epoch}: layer {i} ({net.specs[i].kind})"
        w, b = net.weights[i], net.biases[i]
        if not (np.isfinite(w).all() and (b is None or np.isfinite(b).all())):
            raise ValueError(f"{where} holds non-finite parameters; training diverged")
        if not w.astype(np.float32).any():
            raise ValueError(f"{where} weights are all zero at float32 precision; "
                             "training left the layer dead")


def retrain(model: ShadowModel, dataset: Dataset, schedule: CyclicalSchedule,
            epochs: int, seed: int, *, batch_size: int = 32, momentum: float = 0.9,
            on_capture=None) -> tuple[ShadowModel, CaptureBank]:
    """Cyclical-rate retraining with a capture at the end of every period.

    No L2 penalty is applied: it fights the clipping built into the
    quantizer. Captures hold a deep copy of the applied model, the shadow
    behind it, and an empty `metrics` dict: retraining scores nothing.
    `on_capture(entry, lr)` is called after every capture and may fill it.
    """
    if not (1 <= epochs <= schedule.total_epochs):
        raise ValueError(f"epochs must be in [1, {schedule.total_epochs}], got {epochs}")
    capture_at = set(capture_epochs(schedule))
    bank = CaptureBank(model.bits, list(model.steps))

    def capture(epoch, lr):
        if epoch in capture_at:
            bank.add(CaptureEntry(epoch, model.as_quantized(), model.shadow.copy(), {}))
            if on_capture is not None:
                on_capture(bank.entries[-1], lr)

    fit(model, dataset, [lr_at(schedule, epoch) for epoch in range(epochs)], seed,
        batch_size=batch_size, momentum=momentum, after_epoch=capture)
    return model, bank


def finetune(model: ShadowModel, dataset: Dataset, initial_lr: float, epochs: int,
             decay: float, seed: int, *, batch_size: int = 32,
             momentum: float = 0.9) -> ShadowModel:
    """Short quantized fine-tune: lr = initial_lr * decay^epoch, no L2.

    Zero epochs returns the model unchanged.
    """
    _check_finetune(initial_lr, epochs, decay)
    lrs = [initial_lr * decay ** epoch for epoch in range(epochs)]
    return fit(model, dataset, lrs, seed, batch_size=batch_size, momentum=momentum)


def _check_finetune(initial_lr: float, epochs: int, decay: float) -> None:
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs and (initial_lr <= 0.0 or not (0.0 < decay <= 1.0)):
        raise ValueError("need initial_lr > 0 and decay in (0, 1]")
