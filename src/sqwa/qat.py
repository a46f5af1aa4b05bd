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
from .nn import (Gradients, Network, OptimizerState, _backward, _check_input, _check_labels,
                 _log_softmax, evaluate, forward, sgd_momentum_step)
from .quantizer import (QuantizedModel, _quantize, _weight_steps, quantize_network,
                        select_step_size)
from .schedule import CyclicalSchedule, capture_epochs, lr_at

__all__ = ["ShadowModel", "qat_train_step", "fit", "retrain", "finetune"]


@dataclass
class ShadowModel:
    """Full-precision shadow network plus its quantized applied view.

    Invariant: applied weights equal quantize(shadow weights) under the
    frozen `steps`, and applied biases mirror the shadow biases. Both
    networks share one parameter layout.
    """

    shadow: Network
    applied: Network
    bits: int
    steps: list[float]

    def __post_init__(self):
        if self.applied.layout != self.shadow.layout:
            raise ValueError("shadow and applied network disagree in layout")
        self._step_of = _weight_steps(self.shadow, self.bits, self.steps)

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
        nw = self.shadow.weight_size
        self.applied.flat[:nw] = _quantize(self.shadow.flat[:nw], self._step_of, self.bits)
        self.applied.flat[nw:] = self.shadow.flat[nw:]

    def as_quantized(self) -> QuantizedModel:
        """Deep-copied snapshot of the applied model."""
        return QuantizedModel(self.applied.copy(), self.bits, list(self.steps))

    def copy(self) -> "ShadowModel":
        return ShadowModel(self.shadow.copy(), self.applied.copy(), self.bits, list(self.steps))


class _StepWorkspace:
    """What the steps of one training loop share: the momentum state and
    one gradient buffer, which every step overwrites whole."""

    def __init__(self, net: Network, opt: OptimizerState):
        self.opt = opt
        self.grads = Gradients.like(net)

    def update(self, model: ShadowModel | Network, logits: np.ndarray,
               cache: list[np.ndarray], labels: np.ndarray, lr: float) -> None:
        """Backward pass on the applied network, momentum update of the
        trained one, re-quantization. `labels` must already be checked."""
        quantized = isinstance(model, ShadowModel)
        applied = model.applied if quantized else model
        _backward(applied, cache, _log_softmax(logits), labels, self.grads)
        sgd_momentum_step(model.shadow if quantized else model, self.grads, self.opt, lr)
        if quantized:
            model.refresh_applied()


def qat_train_step(model: ShadowModel | Network, batch: np.ndarray, labels: np.ndarray,
                   lr: float, opt: OptimizerState) -> ShadowModel | Network:
    """One training step on quantized weights.

    Forward, loss, and gradients are computed on the applied (quantized)
    network; the momentum update lands on the shadow; the applied view is
    rebuilt from the updated shadow. A plain Network is the no-quantizer
    case, its own applied and shadow network. The labels are checked on
    every call. Mutates `model` and returns it.
    """
    applied = model.applied if isinstance(model, ShadowModel) else model
    logits, cache = forward(applied, batch)
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    _StepWorkspace(applied, opt).update(model, logits, cache, labels, lr)
    return model


def fit(model: ShadowModel | Network, dataset: Dataset, lrs: list[float], seed: int, *,
        batch_size: int = 32, momentum: float = 0.9, l2_scale: float = 0.0,
        after_epoch=None) -> ShadowModel | Network:
    """The training loop: one epoch of shuffled batches per rate in `lrs`,
    each batch one training step as in qat_train_step, with fresh momentum
    buffers, and `after_epoch(epoch, lr)` after every epoch. Mutates
    `model`, returns it.

    The dataset's input shape and labels are checked once, before the
    first step, and all steps share one gradient buffer. After every epoch
    a trained parameter that is not finite, or a weighted layer whose
    weights are all zero at float32 precision, raises ValueError naming the
    epoch and layer.
    """
    quantized = isinstance(model, ShadowModel)
    net = model.applied if quantized else model
    ws = _StepWorkspace(net, OptimizerState.for_network(net, momentum, l2_scale))
    _check_input(net, dataset.images)
    _check_labels(dataset.labels, len(dataset), net.num_classes)
    for epoch, lr in enumerate(lrs):
        _run_epoch(model, dataset, lr, ws, batch_size, seed, epoch)
        _check_alive(model.shadow if quantized else model, epoch)
        if after_epoch is not None:
            after_epoch(epoch, lr)
    return model


def _run_epoch(model: ShadowModel | Network, dataset: Dataset, lr: float,
               ws: _StepWorkspace, batch_size: int, seed: int, epoch: int) -> None:
    applied = model.applied if isinstance(model, ShadowModel) else model
    for xb, yb in shuffle_batches(dataset, batch_size, seed, epoch):
        ws.update(model, *forward(applied, xb), yb, lr)


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
            eval_dataset: Dataset | None = None,
            on_capture=None) -> tuple[ShadowModel, CaptureBank]:
    """Cyclical-rate retraining with a capture at the end of every period.

    No L2 penalty is applied: it fights the clipping built into the
    quantizer. Captures hold a deep copy of the applied model, the shadow
    behind it, and metrics on `dataset` (plus `eval_dataset` when given).
    `on_capture(entry, lr)` is called after every capture.
    """
    if not (1 <= epochs <= schedule.total_epochs):
        raise ValueError(f"epochs must be in [1, {schedule.total_epochs}], got {epochs}")
    capture_at = set(capture_epochs(schedule))
    bank = CaptureBank(model.bits, list(model.steps))

    def capture(epoch, lr):
        if epoch not in capture_at:
            return
        metrics = dict(zip(("train_loss", "train_accuracy"), evaluate(model.applied, dataset)))
        if eval_dataset is not None:
            metrics.update(zip(("test_loss", "test_accuracy"),
                               evaluate(model.applied, eval_dataset)))
        entry = CaptureEntry(epoch, model.as_quantized(), model.shadow.copy(), metrics)
        bank.add(entry)
        if on_capture is not None:
            on_capture(entry, lr)

    fit(model, dataset, [lr_at(schedule, epoch) for epoch in range(epochs)], seed,
        batch_size=batch_size, momentum=momentum, after_epoch=capture)
    return model, bank


def finetune(model: ShadowModel, dataset: Dataset, initial_lr: float, epochs: int,
             decay: float, seed: int, *, batch_size: int = 32,
             momentum: float = 0.9) -> ShadowModel:
    """Short quantized fine-tune: lr = initial_lr * decay^epoch, no L2.

    Zero epochs returns the model unchanged.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs and (initial_lr <= 0.0 or not (0.0 < decay <= 1.0)):
        raise ValueError("need initial_lr > 0 and decay in (0, 1]")
    lrs = [initial_lr * decay ** epoch for epoch in range(epochs)]
    return fit(model, dataset, lrs, seed, batch_size=batch_size, momentum=momentum)
