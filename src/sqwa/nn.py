"""Minimal feed-forward substrate: dense / conv2d / relu / flatten layers with
explicit forward, backward, and SGD-with-momentum updates.

Networks are plain data (numpy float64 arrays) plus pure functions, so they
can be copied, diffed, and serialized without ceremony. Update helpers mutate
arrays in place and return the mutated object for chaining. Nothing here
spawns threads; networks and datasets are safe to share read-only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict, field

import numpy as np

from .scoring import _label_layout, _score_pass

__all__ = [
    "LayerSpec",
    "Network",
    "OptimizerState",
    "dense",
    "conv2d",
    "relu",
    "flatten",
    "output_shapes",
    "init_weights",
    "forward",
    "loss_and_backward",
    "sgd_momentum_step",
    "evaluate",
]


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one layer. Only `dense` and `conv2d` carry parameters.
    Each size the kind takes must be an integer >= 1 (numpy integers too,
    not bools), and `has_bias` a bool; a size the kind does not take must
    be None, and a parameter-free layer cannot drop a bias."""

    kind: str
    fan_in: int | None = None
    fan_out: int | None = None
    in_channels: int | None = None
    out_channels: int | None = None
    kernel_size: int | None = None
    has_bias: bool = True

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _SIZES):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in _SIZES[self.kind]:
            if not _is_size(value := getattr(self, name)):
                raise ValueError(f"{self.kind} {name} must be an integer >= 1, got {value!r}")
        for name in _SIZES["dense"] + _SIZES["conv2d"]:
            if name not in _SIZES[self.kind] and (value := getattr(self, name)) is not None:
                raise ValueError(f"{self.kind} does not take {name}, got {value!r}")
        if not isinstance(self.has_bias, bool):
            raise ValueError(f"has_bias must be true or false, got {self.has_bias!r}")
        if not (self.has_bias or self.has_params):
            raise ValueError(f"{self.kind} does not take has_bias, got False")

    @property
    def has_params(self) -> bool:
        return self.kind in ("dense", "conv2d")

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if not self.has_params:
            d.pop("has_bias", None)
        return d


_SIZES = {"dense": ("fan_in", "fan_out"), "conv2d": ("in_channels", "out_channels", "kernel_size"),
          "relu": (), "flatten": ()}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_size(value) -> bool:
    return _is_int(value) and value >= 1


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
    if not (isinstance(input_shape, (list, tuple)) and all(map(_is_size, input_shape))):
        raise ValueError(f"input_shape must be a list of integers >= 1, got {input_shape!r}")
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
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
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


@dataclass(eq=False)
class Network:
    """A layer stack plus its parameters, built from the specs alone.

    Construction refuses specs that do not compose over `input_shape`, sets
    `num_classes`, and allocates every parameter, zero, in one float64
    buffer `flat`: weights in layer order, then biases from `weight_size` on.
    `layout` holds each tensor's (start, stop, shape) in it. `weights[i]` /
    `biases[i]` view it, None for parameter-free layers. Dense weights are
    (fan_out, fan_in); conv weights are (out_c, in_c, k, k).
    """

    input_shape: tuple[int, ...]
    specs: list[LayerSpec]

    def __post_init__(self):
        self.num_classes = int(output_shapes(self.specs, self.input_shape)[-1][0])
        self.input_shape, self.specs = tuple(int(s) for s in self.input_shape), list(self.specs)
        weights = [tuple(map(int, (s.fan_out, s.fan_in) if s.kind == "dense" else
                             (s.out_channels, s.in_channels, s.kernel_size, s.kernel_size)))
                   if s.has_params else None for s in self.specs]
        shapes = weights + [w[:1] if w and s.has_bias else None for w, s in zip(weights, self.specs)]
        sizes = [0 if t is None else math.prod(t) for t in shapes]
        self.layout = [None if t is None else (end - size, end, t)
                       for t, size, end in zip(shapes, sizes, itertools.accumulate(sizes))]
        self.flat = np.zeros(sum(sizes))
        views = [None if sp is None else self.flat[sp[0]:sp[1]].reshape(sp[2]) for sp in self.layout]
        n = len(self.specs)
        self.weights, self.biases = ParamViews(views[:n]), ParamViews(views[n:])
        self.weight_size = sum(sizes[:n])

    def copy(self) -> "Network":
        out = Network(self.input_shape, self.specs)
        out.flat[:] = self.flat
        return out

    def __reduce__(self):
        # Pickle the buffer's values as state: the views are rebuilt from the
        # specs, so they view the unpickled buffer, not separate arrays.
        return Network, (self.input_shape, self.specs), self.flat

    def __setstate__(self, flat):
        self.flat[:] = flat

    def param_layers(self) -> list[int]:
        """Indices of layers that carry a weight tensor."""
        return [i for i, w in enumerate(self.weights) if w is not None]


@dataclass
class OptimizerState:
    """Classical momentum and gradient buffers plus the scalar hyperparameters.

    `l2_scale` is applied to weight tensors only; biases are updated with
    plain momentum. `buffers` holds them as a Network of the trained
    network's layout, so `buffers.weights[i]` is layer i's weight buffer;
    `grads` is another such Network, which every step overwrites whole;
    `work` is the update's scratch, one value per parameter; `scratch`
    keeps `forward`'s plan for the loop's steps.
    """

    momentum: float
    l2_scale: float
    buffers: Network
    grads: Network
    work: np.ndarray
    scratch: dict = field(default_factory=dict)

    @staticmethod
    def for_network(net: Network, momentum: float, l2_scale: float = 0.0) -> "OptimizerState":
        _check_optimizer(momentum, l2_scale)
        return OptimizerState(momentum, l2_scale, Network(net.input_shape, net.specs),
                              Network(net.input_shape, net.specs), np.empty(net.flat.size))


def _check_optimizer(momentum: float, l2_scale: float) -> None:
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if l2_scale < 0.0:
        raise ValueError(f"l2_scale must be >= 0, got {l2_scale}")
    if not math.isfinite(l2_scale):
        raise ValueError(f"l2_scale must be finite, got {l2_scale}")


def init_weights(specs: list[LayerSpec], input_shape: tuple[int, ...], seed: int) -> Network:
    """Build a Network with uniform [-sqrt(6/fan_in), +sqrt(6/fan_in)] weights.

    Conv layers use fan_in = in_channels * kernel_size^2. Biases start at
    zero. The same seed reproduces the same network bit for bit.
    """
    net = Network(input_shape, specs)
    rng = np.random.default_rng(seed)
    for i in net.param_layers():
        w = net.weights[i]
        bound = np.sqrt(6.0 / (w.size // w.shape[0]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _im2col(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    # (..., C, H, W, N) -> (..., C*k*k, oh*ow*N): rows ordered (channel, di,
    # dj) to match weight.reshape(out_c, -1), columns ordered (i, j, n), so a
    # conv layer is one matmul per leading index; with the batch innermost
    # each slice copy moves runs of ow*N contiguous values; into `out`,
    # contiguous memory of the result's size, if given
    *lead, c, h, w, n = x.shape
    oh, ow = h - k + 1, w - k + 1
    shape = (*lead, c, k, k, oh, ow, n)
    cols = np.empty(shape, dtype=x.dtype) if out is None else out.reshape(shape)
    for di in range(k):
        for dj in range(k):
            cols[..., di, dj, :, :, :] = x[..., di:di + oh, dj:dj + ow, :]
    return cols.reshape(*lead, c * k * k, oh * ow * n)


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
    if x.ndim < 2 or x.shape[1:] != net.input_shape:
        raise ValueError(
            f"network input: expected batch of shape (N, {', '.join(map(str, net.input_shape))}), "
            f"got {x.shape}")


def forward(net: Network, batch: np.ndarray,
            scratch: dict | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run a batch of shape (N, *net.input_shape) through the network,
    keeping what backward needs, and return (logits, cache): logits of shape
    (N, num_classes) and each layer's input, as loss_and_backward takes it
    (a relu that runs in place leaves its output, which gives the same
    mask). The logits and later flat inputs are transposed views of the
    kernel's batch-innermost arrays, so a numpy sum over their rows may add
    in another order than over a row-major copy. The batch is converted to
    float64, its shape checked on every call, and it is not modified.

    This is the one-network case of the forward kernel that evaluate runs
    on stacks. `scratch`, a dict kept from call to call such as
    `OptimizerState.scratch`, keeps the kernel's plan per network and batch
    width, so the next call with it overwrites the results; None keeps none.
    """
    x = np.asarray(batch, dtype=np.float64)
    _check_input(net, x)
    scratch = {} if scratch is None else scratch
    kept = scratch.get("forward")
    if kept is None or kept[0] is not net or kept[1] != len(x):
        plan = _plan(net.specs, *_stack_views(net, net.flat), len(x), scratch)
        kept = scratch["forward"] = net, len(x), plan
    cache: list[np.ndarray] = []
    logits = _forward_stack(kept[2], x, cache)
    if x.ndim == 2:   # the batch itself, row-major, as backward multiplies by it
        cache[0] = x
    return logits.T, cache


def _stack_views(net: Network, stack: np.ndarray) -> tuple[list, list]:
    # Each layer's weights and biases as views of parameter vectors in net's
    # layout: of an (S, P) stack's rows as (S, *shape) arrays, of one (P,)
    # vector with no stack axis. None where a layer has no such tensor; a
    # bias gains a last axis of 1, to broadcast over a batch's columns.
    lead, layers = stack.shape[:-1], len(net.specs)
    views = [None if sp is None else stack[..., sp[0]:sp[1]].reshape(*lead, *sp[2])
             for sp in net.layout]
    return views[:layers], [None if b is None else b[..., None] for b in views[layers:]]


def _buffer(scratch: dict, key, shape: tuple, dtype=np.float64) -> np.ndarray:
    # A contiguous array of `shape` over the memory `scratch` keeps for
    # `key`, made on first use and replaced by a larger one when too small.
    # A plan's dense outputs and the evaluation's temporaries are written
    # into these with out= instead of allocating per batch; a shorter batch
    # or a smaller stack reuses the front of the memory. The view is kept
    # too, under (key, shape).
    view = scratch.get((key, shape))
    if view is None:
        size = math.prod(shape)
        memory = scratch.get(key)
        if memory is None or memory.size < size:
            memory = scratch[key] = np.empty(size, dtype)
        view = scratch[key, shape] = memory[:size].reshape(shape)
    return view


def _plan(specs: list[LayerSpec], weights: list, biases: list, n: int, scratch: dict,
          out: np.ndarray | None = None) -> list[tuple]:
    # What _forward_stack runs on batches of n samples under the weights and
    # biases _stack_views gives (a dense bias may be repeated over the
    # batch's columns), one tuple per layer led by its kind: a dense layer's
    # product, weights, bias and output buffer, from `scratch` (or `out` for
    # a last one, C-contiguous at S = 1); a conv layer's weights as one
    # matrix per member, bias and kernel size; a flatten's output shape. At
    # S = 1 (views with no stack axis) no array has one, and a dense product
    # is a 2-D np.dot, which reaches BLAS with less set-up than np.matmul
    # and gives the same bits (README "Parameter layout"). A plan is good
    # while the arrays it views are, its buffers until the next plan built
    # on the same `scratch` for another width or stack.
    plan, lead, last = [], (), len(specs) - 1
    for i, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        if spec.kind == "dense":
            lead = w.shape[:-2]
            y = _buffer(scratch, i, (*lead, spec.fan_out, n)) if out is None or i < last else out
            plan.append(("dense", np.matmul if lead else np.dot, w, b, y))
        elif spec.kind == "conv2d":
            lead = w.shape[:-4]
            plan.append(("conv2d", w.reshape(*lead, spec.out_channels, -1), b, spec.kernel_size))
        else:
            plan.append((spec.kind, (*lead, -1, n)))
    return plan


# float64 values (2 MiB, about one core's L2) of the im2col columns a conv
# layer builds at once, stack axis included: whole output rows, at least
# one (README "Parameter layout")
_COLUMN_VALUES = 2 ** 18


def _forward_stack(plan: list[tuple], x: np.ndarray, cache: list | None = None) -> np.ndarray:
    # The one forward body: the logits, (S, classes, N) or at S = 1
    # (classes, N), of one checked float64 batch under each of S parameter
    # sets, as `plan` (_plan) holds them. The layers compose, as
    # construction checked, so no layer checks its input. Every activation
    # is held batch-innermost, (features, N) or (C, H, W, N): the batch is
    # copied into it on entry, flatten is a free reshape, and the stack axis
    # leads from the first parameter layer on, which broadcasts the input to
    # S. A dense layer writes the plan's buffer. A conv layer builds its
    # columns in blocks of output rows (_COLUMN_VALUES), each product
    # writing its own columns of the output, which is made per batch. Relu
    # works in place, on arrays made here. `cache` gets each layer's input,
    # a 2-D one as its (N, features) view, good until the next call on the
    # same plan; a relu leaves its output there, whose `x > 0.0` mask is the
    # input's, NaN included.
    x = (x.T if x.ndim == 2 else x.transpose(1, 2, 3, 0)).copy()
    for layer in plan:
        if cache is not None:
            cache.append(x.T if x.ndim == 2 else x)
        kind = layer[0]
        if kind == "dense":
            _, product, w, b, y = layer
            x = product(w, x, out=y)
            if b is not None:
                x += b
        elif kind == "conv2d":
            _, w, b, k = layer
            h, ww, n = x.shape[-3:]
            oh, ow = h - k + 1, ww - k + 1
            per_row = x.size // (h * ww) * k * k * ow   # column values per output row
            rows = min(oh, max(1, _COLUMN_VALUES // per_row))
            cols, y = np.empty(rows * per_row), np.empty((*w.shape[:-1], oh * ow * n))
            for top in range(0, oh, rows):
                m = min(rows, oh - top)
                np.matmul(w, _im2col(x[..., top:top + m + k - 1, :, :], k, cols[:m * per_row]),
                          out=y[..., top * ow * n:(top + m) * ow * n])
            del cols  # freed before y + b allocates
            if b is not None:
                y = y + b  # not in place: see README "Parameter layout"
            x = y.reshape(*y.shape[:-1], oh, ow, n)
        elif kind == "relu":
            x = np.maximum(x, 0.0, out=x)
        else:
            x = x.reshape(layer[1])
    return x


def _check_labels(labels: np.ndarray, n: int, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels: expected shape ({n},), got {labels.shape}")
    if labels.dtype.kind == "f":
        bad = labels[~np.isfinite(labels) | (np.floor(labels) != labels)]
        if bad.size:
            raise ValueError(f"labels must be finite whole numbers, got {bad[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64, copy=False)


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    # float64 rows of 0.0 with 1.0 at each label: the targets loss_and_backward takes
    return np.eye(num_classes).take(labels, axis=0)


def loss_and_backward(net: Network, cache: list[np.ndarray], logits: np.ndarray,
                      targets: np.ndarray, grads: Network) -> Network:
    """Batch-averaged softmax cross-entropy gradients of every parameter,
    written into the parameters of `grads`, a network of `net`'s layout
    (`Network(net.input_shape, net.specs)` builds one), which is returned.

    `cache` and `logits` must come from the last forward() call on the
    same network, batch and scratch; `targets` is the batch's one-hot label
    block, float64 of the logits' shape, and is not checked. Every gradient
    view is written, so a reused buffer holds nothing of an earlier batch.
    No loss value is formed, despite the name; `evaluate` reports losses.
    """
    # The logits' gradient is formed in a new row-major array, in the order
    # a full log-softmax, its exp and a subtraction of 1.0 at each label
    # take, from their transpose, forward's row-major (classes, N) array.
    # Reductions are ufunc calls, not the array methods that wrap them in
    # Python, and dense products 2-D np.dot calls, as in forward at S = 1.
    # Products, sums and masks take row-major (N, ...) operands.
    n, z = logits.shape[0], logits.T
    dx = np.subtract(z, np.maximum.reduce(z, axis=0), out=np.empty(logits.shape).T).T
    dx -= np.log(np.add.reduce(np.exp(dx), axis=1, keepdims=True))
    np.exp(dx, out=dx)
    dx -= targets
    dx /= n
    # layer 0's input is the batch itself, so no gradient is formed for it;
    # a relu's cached output is the next layer's input, whose row-major
    # copy, `above`, the relu reuses
    above = None
    for i in range(len(net.specs) - 1, -1, -1):
        kind, x = net.specs[i].kind, cache[i]
        if kind == "dense":
            x = np.ascontiguousarray(x)
            np.dot(dx.T, x, out=grads.weights[i])
            if grads.biases[i] is not None:
                np.add.reduce(dx, axis=0, out=grads.biases[i])
            if i:
                dx = np.dot(dx, net.weights[i])
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
            x = np.ascontiguousarray(x) if above is None else above
            dx = dx * (x > 0.0)
        elif kind == "flatten" and i:
            dx = dx.T.reshape(x.shape) if x.ndim == 4 else dx.reshape(x.shape)
        above = x if kind in ("dense", "relu") else None
    return grads


def sgd_momentum_step(net: Network, grads: Network, state: OptimizerState,
                      lr: float) -> Network:
    """One classical-momentum update of the whole parameter buffer, in place.

    buffer <- momentum * buffer + (grad + l2_scale * weight)
    weight <- weight - lr * buffer

    Biases follow the same rule without the L2 term. A rate that is NaN,
    infinite or negative raises ValueError before anything is written.
    """
    if not 0.0 <= lr < math.inf:   # NaN fails both
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    if grads.flat.shape != net.flat.shape or state.buffers.flat.shape != net.flat.shape:
        raise ValueError("gradients and momentum buffers must match the network's layout")
    g, nw, buf = grads.flat, net.weight_size, state.buffers.flat
    buf *= state.momentum
    if state.l2_scale:
        # (l2_scale * weight) + grad, the same bits as grad + l2_scale * weight
        l2 = np.multiply(net.flat[:nw], state.l2_scale, out=state.work[:nw])
        l2 += g[:nw]
        buf[:nw] += l2
        buf[nw:] += g[nw:]
    else:
        buf += g
    net.flat -= np.multiply(buf, lr, out=state.work)   # lr * buf, written into kept memory
    return net


# the batch an evaluation scores at unless given another; loss surfaces always do
_EVAL_BATCH_SIZE = 256


def evaluate(net: Network, dataset, batch_size: int = _EVAL_BATCH_SIZE) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy over a whole dataset.

    Batches are visited in fixed order, so the result is deterministic, and
    each equals what forward and a full log-softmax give for that batch.
    This is the one-network case of the stacked evaluation kernel that loss
    surfaces use to score several parameter vectors per pass: the images
    and labels are checked once per call, not per batch, no cache is kept,
    and a CNN evaluation holds one block of conv columns and little else.
    """
    loss, accuracy = _evaluate_stack(net, net.flat[None], dataset, batch_size)
    return float(loss[0]), float(accuracy[0])


def _evaluate_stack(net: Network, stack: np.ndarray, dataset, batch_size: int = _EVAL_BATCH_SIZE,
                    scratch: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    # Loss and accuracy over a whole dataset of each row of `stack`, an
    # (S, P) float64 array of parameter vectors in net's layout, as two (S,)
    # arrays: row s holds, bit for bit, what evaluate gives for a network
    # whose buffer holds stack[s]. The temporaries live in `scratch`, reused
    # by every batch and by every call given the same dict. What batches
    # share is built once per call: the parameter views (with no stack axis
    # at S = 1, as forward runs), each dense bias repeated over a batch's
    # columns (a contiguous add, class-major like the logits' block), the
    # labels as _score_pass takes them (_label_layout), and the kernel's
    # plan, again for a shorter last batch. A last dense layer writes each
    # batch's logits straight into a class-major block (other networks'
    # logits are copied there), which _score_pass turns into the batch's
    # log-likelihood sums and hits. The loss sums come after.
    images = np.asarray(dataset.images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("evaluate: dataset is empty")
    _check_batch_size(batch_size)
    classes = net.num_classes
    labels = _check_labels(dataset.labels, n, classes)
    _check_input(net, images)
    scratch = {} if scratch is None else scratch
    s, rows = stack.shape[0], min(batch_size, n)
    lead = (s,) if s > 1 else ()
    weights, biases = _stack_views(net, stack.reshape(*lead, -1))
    for i, spec in enumerate(net.specs):  # each dense bias repeated over a full batch's columns
        if spec.kind == "dense" and biases[i] is not None:   # class-major, as the logits' block
            repeated = _buffer(scratch, ("bias", i), (spec.fan_out, s, rows)).transpose(1, 0, 2)
            repeated = repeated.reshape(*lead, spec.fan_out, rows)
            repeated[...] = biases[i]
            biases[i] = repeated
    at_labels, ranks = _label_layout(labels, batch_size, classes, s)
    starts = range(0, n, batch_size)
    summed = _buffer(scratch, "summed", (s, len(starts) + 1))  # column 0 starts the running sum
    summed[:, 0] = 0.0
    hits = _buffer(scratch, "hits", (s, n), bool)
    plan = None
    for k, start in enumerate(starts):
        nb = min(batch_size, n - start)
        if plan is None or nb < rows:  # a shorter last batch: the front columns of each repeat
            by_class = _buffer(scratch, "by_class", (classes, s, nb))
            block = by_class.transpose(1, 0, 2).reshape(*lead, classes, nb)
            plan = _plan(net.specs, weights,
                         [b[..., :nb] if spec.kind == "dense" and b is not None else b
                          for spec, b in zip(net.specs, biases)], nb, scratch, out=block)
        logits = _forward_stack(plan, np.asarray(images[start:start + nb], dtype=np.float64))
        if logits is not block:
            np.copyto(block, logits)
        part = slice(start, start + nb)
        _score_pass(by_class, at_labels[part], ranks[part], hits[:, part], scratch,
                    out=summed[:, k + 1])
    # each batch's mean loss times its size, summed in batch order: the bits of a running sum
    sizes = np.minimum(n - np.array(starts), batch_size)
    summed[:, 1:] = -summed[:, 1:] / sizes * sizes
    loss = np.add.accumulate(summed, axis=1, out=summed)[:, -1] / n
    return loss, np.add.reduce(hits, axis=-1) / n
