"""Minimal feed-forward substrate: dense / conv2d / relu / flatten layers with
explicit forward, backward, and SGD-with-momentum updates.

Networks are plain data (numpy float64 arrays) plus pure functions, so they
can be copied, diffed, and serialized without ceremony. Update helpers mutate
arrays in place and return the mutated object for chaining. Nothing here
spawns threads; networks and datasets are safe to share read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict

import numpy as np

__all__ = [
    "LayerSpec",
    "Network",
    "Gradients",
    "OptimizerState",
    "dense",
    "conv2d",
    "relu",
    "flatten",
    "output_shapes",
    "zero_network",
    "init_weights",
    "forward",
    "loss_and_backward",
    "sgd_momentum_step",
    "evaluate",
]


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one layer. Only `dense` and `conv2d` carry parameters."""

    kind: str
    fan_in: int | None = None
    fan_out: int | None = None
    in_channels: int | None = None
    out_channels: int | None = None
    kernel_size: int | None = None
    has_bias: bool = True

    @property
    def has_params(self) -> bool:
        return self.kind in ("dense", "conv2d")

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if not self.has_params:
            d.pop("has_bias", None)
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return LayerSpec(**d)


def dense(fan_in: int, fan_out: int, has_bias: bool = True) -> LayerSpec:
    return LayerSpec("dense", fan_in=fan_in, fan_out=fan_out, has_bias=has_bias)


def conv2d(in_channels: int, out_channels: int, kernel_size: int,
           has_bias: bool = True) -> LayerSpec:
    return LayerSpec("conv2d", in_channels=in_channels, out_channels=out_channels,
                     kernel_size=kernel_size, has_bias=has_bias)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def output_shapes(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Propagate a (batch-free) input shape through the layer stack.

    Returns the per-layer output shapes and rejects non-composable stacks
    with a diagnostic naming the offending layer.
    """
    shape = tuple(int(s) for s in input_shape)
    out: list[tuple[int, ...]] = []
    for i, spec in enumerate(specs):
        where = f"layer {i} ({spec.kind})"
        if spec.kind == "dense":
            if len(shape) != 1:
                raise ValueError(f"{where}: expects a flat feature vector, got shape {shape}")
            if shape[0] != spec.fan_in:
                raise ValueError(f"{where}: fan_in {spec.fan_in} does not match input width {shape[0]}")
            shape = (spec.fan_out,)
        elif spec.kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"{where}: expects (channels, height, width), got shape {shape}")
            c, h, w = shape
            k = spec.kernel_size
            if c != spec.in_channels:
                raise ValueError(f"{where}: in_channels {spec.in_channels} does not match input channels {c}")
            if h < k or w < k:
                raise ValueError(f"{where}: kernel size {k} exceeds input {h}x{w}")
            shape = (spec.out_channels, h - k + 1, w - k + 1)
        elif spec.kind == "relu":
            pass
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
        else:
            raise ValueError(f"{where}: unknown layer kind")
        out.append(shape)
    if not specs:
        raise ValueError("network needs at least one layer")
    if len(out[-1]) != 1:
        raise ValueError("network must end in a flat logits vector")
    return out


class ParamViews(list):
    """Per-layer views into a flat parameter buffer, None where a layer has
    no tensor. Assigning an entry copies the value into its view, so entries
    never detach from the buffer."""

    def __setitem__(self, i, value):
        view = self[i] if isinstance(i, (int, np.integer)) else None
        if view is None or np.shape(value) != view.shape:
            raise ValueError(f"entry {i!r}: only a value of its own shape can replace it")
        view[...] = value


@dataclass
class Network:
    """A layer stack plus its parameters, aligned by layer index.

    `weights[i]` / `biases[i]` are None for parameter-free layers. Dense
    weights are (fan_out, fan_in); conv weights are (out_c, in_c, k, k).
    Construction copies the tensors into the network's own buffer `flat`,
    biases from `weight_size` on; `layout` holds each tensor's (start, stop,
    shape) in it, in buffer order.
    """

    input_shape: tuple[int, ...]
    specs: list[LayerSpec]
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]

    def __post_init__(self):
        if not len(self.weights) == len(self.biases) == len(self.specs):
            raise ValueError("need one weight and one bias entry per layer")
        tensors = [*self.weights, *self.biases]
        sizes = [0 if t is None else np.size(t) for t in tensors]
        self.layout = [None if t is None else (end - size, end, np.shape(t))
                       for t, size, end in zip(tensors, sizes, itertools.accumulate(sizes))]
        self.flat = np.concatenate([np.zeros(0), *(np.ravel(t) for t in tensors if t is not None)])
        self.weights, self.biases = self.views_of(self.flat)
        self.weight_size = sum(sizes[:len(self.specs)])

    def views_of(self, flat: np.ndarray) -> tuple[ParamViews, ParamViews]:
        """Per-layer weight and bias views of a buffer laid out like `flat`."""
        views = [None if sp is None else flat[sp[0]:sp[1]].reshape(sp[2]) for sp in self.layout]
        return ParamViews(views[:len(self.specs)]), ParamViews(views[len(self.specs):])

    def copy(self) -> "Network":
        return Network(tuple(self.input_shape), list(self.specs), self.weights, self.biases)

    def __reduce__(self):
        # Pickle the tensors, not the buffer and its views, which would
        # unpickle as separate arrays.
        return Network, (tuple(self.input_shape), list(self.specs),
                         list(self.weights), list(self.biases))

    def param_layers(self) -> list[int]:
        """Indices of layers that carry a weight tensor."""
        return [i for i, w in enumerate(self.weights) if w is not None]

    @property
    def num_classes(self) -> int:
        return output_shapes(self.specs, self.input_shape)[-1][0]


@dataclass
class Gradients:
    """Per-layer gradient views into `flat`, laid out like the network's."""

    flat: np.ndarray
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]

    @staticmethod
    def like(net: Network) -> "Gradients":  # uninitialized
        flat = np.empty_like(net.flat)
        return Gradients(flat, *net.views_of(flat))


@dataclass
class OptimizerState:
    """Classical momentum buffers plus the scalar hyperparameters.

    `l2_scale` is applied to weight tensors only; biases are updated with
    plain momentum. The buffers are views into `flat`; `work` is scratch
    for the L2 term, one value per weight.
    """

    momentum: float
    l2_scale: float
    flat: np.ndarray
    buffers_w: list[np.ndarray | None]
    buffers_b: list[np.ndarray | None]
    work: np.ndarray

    @staticmethod
    def for_network(net: Network, momentum: float, l2_scale: float = 0.0) -> "OptimizerState":
        _check_optimizer(momentum, l2_scale)
        flat = np.zeros_like(net.flat)
        return OptimizerState(momentum, l2_scale, flat, *net.views_of(flat),
                              np.empty(net.weight_size))


def _check_optimizer(momentum: float, l2_scale: float) -> None:
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if l2_scale < 0.0:
        raise ValueError(f"l2_scale must be >= 0, got {l2_scale}")


def zero_network(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> Network:
    """A Network of the topology's shapes with every parameter zero."""
    output_shapes(specs, input_shape)  # reject non-composable stacks up front
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for spec in specs:
        shape = ((spec.fan_out, spec.fan_in) if spec.kind == "dense" else
                 (spec.out_channels, spec.in_channels, spec.kernel_size, spec.kernel_size)
                 if spec.kind == "conv2d" else None)
        weights.append(None if shape is None else np.zeros(shape))
        biases.append(np.zeros(shape[0]) if shape and spec.has_bias else None)
    return Network(tuple(int(s) for s in input_shape), list(specs), weights, biases)


def init_weights(specs: list[LayerSpec], input_shape: tuple[int, ...], seed: int) -> Network:
    """Build a Network with uniform [-sqrt(6/fan_in), +sqrt(6/fan_in)] weights.

    Conv layers use fan_in = in_channels * kernel_size^2. Biases start at
    zero. The same seed reproduces the same network bit for bit.
    """
    net = zero_network(specs, input_shape)
    rng = np.random.default_rng(seed)
    for i in net.param_layers():
        w = net.weights[i]
        bound = np.sqrt(6.0 / (w.size // w.shape[0]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    # (C, H, W, N) -> (C*k*k, oh*ow*N): rows ordered (channel, di, dj) to match
    # weight.reshape(out_c, -1), columns ordered (i, j, n), so a conv layer is
    # one 2-D matmul; with the batch innermost each slice copy moves runs of
    # ow*N contiguous values
    c, h, w, n = x.shape
    oh, ow = h - k + 1, w - k + 1
    cols = np.empty((c, k, k, oh, ow, n), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = x[:, di:di + oh, dj:dj + ow]
    return cols.reshape(c * k * k, oh * ow * n)


def _col2im(dcols: np.ndarray, x_shape: tuple, k: int) -> np.ndarray:
    # adjoint of _im2col: (C*k*k, oh*ow*N) summed back into (C, H, W, N)
    c, h, w, n = x_shape
    oh, ow = h - k + 1, w - k + 1
    d = dcols.reshape(c, k, k, oh, ow, n)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for di in range(k):
        for dj in range(k):
            dx[:, di:di + oh, dj:dj + ow] += d[:, di, dj]
    return dx


def _check_input(net: Network, x: np.ndarray) -> None:
    if x.ndim < 2 or x.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"network input: expected batch of shape (N, {', '.join(map(str, net.input_shape))}), "
            f"got {x.shape}")


def forward(net: Network, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run a batch through the network, keeping what backward needs.

    Args:
        net: the network.
        batch: array of shape (N, *net.input_shape).

    Returns:
        (logits, cache) where logits has shape (N, num_classes) and cache
        holds each layer's input, as needed by loss_and_backward.

    The batch is converted to float64 and its shape checked on every call;
    evaluate checks a whole dataset once and runs the unchecked kernel
    `_forward` without a cache instead.
    """
    x = np.asarray(batch, dtype=np.float64)
    _check_input(net, x)
    cache: list[np.ndarray] = []
    return _forward(net, x, cache), cache


def _forward(net: Network, x: np.ndarray, cache: list | None = None) -> np.ndarray:
    # forward's kernel, for a float64 batch already checked against
    # net.input_shape; appends each layer's input to `cache` if given one.
    # Every 4-D activation is held batch-innermost, as (C, H, W, N): an image
    # batch is transposed once on entry, and flatten turns it back into the
    # (N, C*H*W) rows that dense layers take, in the same C order.
    if x.ndim == 4:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    for i, spec in enumerate(net.specs):
        if cache is not None:
            cache.append(x)
        if spec.kind == "dense":
            w, b = net.weights[i], net.biases[i]
            if x.shape[1] != w.shape[1]:
                raise ValueError(f"layer {i} (dense): input width {x.shape[1]} "
                                 f"does not match fan_in {w.shape[1]}")
            x = x @ w.T
            if b is not None:
                x += b
        elif spec.kind == "conv2d":
            w, b = net.weights[i], net.biases[i]
            out_c, in_c, k, _ = w.shape
            if x.shape[0] != in_c:
                raise ValueError(f"layer {i} (conv2d): input channels {x.shape[0]} "
                                 f"do not match in_channels {in_c}")
            _, h, ww, n = x.shape
            y = w.reshape(out_c, -1) @ _im2col(x, k)
            if b is not None:
                y = y + b[:, None]  # not in place: see README "Parameter layout"
            x = y.reshape(out_c, h - k + 1, ww - k + 1, n)
        elif spec.kind == "relu":
            x = np.maximum(x, 0.0)
        elif spec.kind == "flatten":
            x = (np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T) if x.ndim == 4
                 else x.reshape(x.shape[0], -1))
        else:
            raise ValueError(f"layer {i}: unknown layer kind {spec.kind!r}")
    return x


def _batch_loss(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> float:
    # Mean of minus the stable log-softmax of each row at its label, bit for
    # bit; `rows` is arange(N). The max, exact in any order, runs over a
    # class-major copy; the class sum stays row-wise, as a column sum rounds
    # differently.
    m = np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)
    z = logits - m[:, None]
    picked = z[rows, labels] - np.log(np.add.reduce(np.exp(z), axis=1))
    return float(-np.add.reduce(picked) / logits.shape[0])


def _check_labels(labels: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels: expected shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    # float64 rows of 0.0 with 1.0 at each label: the targets loss_and_backward takes
    return np.eye(num_classes).take(labels, axis=0)


def loss_and_backward(net: Network, cache: list[np.ndarray], logits: np.ndarray,
                      targets: np.ndarray, grads: Gradients) -> Gradients:
    """Batch-averaged softmax cross-entropy gradients of every parameter,
    written into `grads`, which is returned.

    `cache` and `logits` must come from a forward() call on the same
    network and batch; `targets` is the batch's one-hot label block, float64
    of the logits' shape, and is not checked. Every gradient view is
    written, so a reused buffer holds nothing of an earlier batch. No loss
    value is formed, despite the name; `evaluate` reports losses.
    """
    # The logits' gradient is formed in a new array, in the order a full
    # log-softmax, its exp and a subtraction of 1.0 at each label take. The
    # reductions are ufunc calls, not the array methods that wrap them in
    # Python.
    n = logits.shape[0]
    dx = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    dx -= np.log(np.add.reduce(np.exp(dx), axis=1, keepdims=True))
    np.exp(dx, out=dx)
    dx -= targets
    dx /= n
    # layer 0's input is the batch itself, so no gradient is formed for it
    for i in range(len(net.specs) - 1, -1, -1):
        kind, x = net.specs[i].kind, cache[i]
        if kind == "dense":
            np.matmul(dx.T, x, out=grads.weights[i])
            if grads.biases[i] is not None:
                np.add.reduce(dx, axis=0, out=grads.biases[i])
            if i:
                dx = dx @ net.weights[i]
        elif kind == "conv2d":
            w = net.weights[i]
            out_c, _, k, _ = w.shape
            dy = dx.reshape(out_c, -1)
            np.matmul(dy, _im2col(x, k).T, out=grads.weights[i].reshape(out_c, -1))
            if grads.biases[i] is not None:
                np.add.reduce(dy, axis=1, out=grads.biases[i])
            if i:
                dx = _col2im(w.reshape(out_c, -1).T @ dy, x.shape, k)
        elif kind == "relu" and i:
            dx = dx * (x > 0.0)
        elif kind == "flatten" and i:
            dx = dx.T.reshape(x.shape) if x.ndim == 4 else dx.reshape(x.shape)
    return grads


def sgd_momentum_step(net: Network, grads: Gradients, state: OptimizerState,
                      lr: float) -> Network:
    """One classical-momentum update of the whole parameter buffer, in place.

    buffer <- momentum * buffer + (grad + l2_scale * weight)
    weight <- weight - lr * buffer

    Biases follow the same rule without the L2 term.
    """
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if grads.flat.shape != net.flat.shape or state.flat.shape != net.flat.shape:
        raise ValueError("gradients and momentum buffers must match the network's layout")
    g, nw, buf = grads.flat, net.weight_size, state.flat
    buf *= state.momentum
    if state.l2_scale:
        # (l2_scale * weight) + grad, the same bits as grad + l2_scale * weight
        l2 = np.multiply(net.flat[:nw], state.l2_scale, out=state.work)
        l2 += g[:nw]
        buf[:nw] += l2
        buf[nw:] += g[nw:]
    else:
        buf += g
    net.flat -= lr * buf
    return net


def evaluate(net: Network, dataset, batch_size: int = 256) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy over a whole dataset.

    Batches are visited in fixed order, so the result is deterministic, and
    each equals what forward and a full log-softmax give for that batch. The
    images and labels are checked once per call, not per batch, and the
    forward passes keep no cache, so each layer's input is freed once its
    output exists.
    """
    images = np.asarray(dataset.images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("evaluate: dataset is empty")
    labels = _check_labels(dataset.labels, n, net.num_classes)
    _check_input(net, images)
    rows = np.arange(min(batch_size, n))
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        yb = labels[start:start + batch_size]
        logits = _forward(net, np.asarray(images[start:start + batch_size], dtype=np.float64))
        loss_sum += _batch_loss(logits, yb, rows[:yb.shape[0]]) * yb.shape[0]
        correct += int((logits.argmax(axis=1) == yb).sum())
    return loss_sum / n, correct / n
