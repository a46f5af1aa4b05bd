"""Symmetric uniform weight quantization.

For bit width b >= 2 a tensor is mapped onto the M = 2^b - 1 level grid

    Q(w) = sign(w) * step * min(floor(|w| / step + 0.5), (M - 1) / 2)

so levels are step * {-(M-1)/2, ..., -1, 0, 1, ..., (M-1)/2}, ties round
away from zero, and out-of-range values clip to the outermost level. The
binary case b = 1 keeps two levels {-step, +step} with sign(0) mapped to
+step, since the M = 2^1 - 1 grid would collapse to zero.

Step sizes are chosen per tensor by minimizing mean squared quantization
error with a golden-section search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Network, _is_size

__all__ = [
    "QuantizerConfig",
    "QuantizedModel",
    "levels_count",
    "quantize_tensor",
    "select_step_size",
    "quantize_network",
    "direct_quantize_model",
]

# Golden-section settings for select_step_size. The tolerance is relative
# to max|w|.
_SEARCH_ITERS = 60
_SEARCH_TOL = 1e-6


def levels_count(bits: int) -> int:
    """Number of representable levels: 2^b - 1 for b >= 2, and 2 for b = 1."""
    if not _is_size(bits):
        raise ValueError(f"bit width must be an integer >= 1, got {bits!r}")
    return 2 if bits == 1 else 2 ** bits - 1


@dataclass(frozen=True)
class QuantizerConfig:
    """Bit width plus step size for one tensor."""

    bits: int
    step: float

    def __post_init__(self):
        levels_count(self.bits)
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError(f"step must be a positive finite real, got {self.step!r}")


def _quantize(w: np.ndarray, step, bits: int, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    # The quantizer formula, for a scalar step or one step per element and
    # a bit width its callers have checked, written into `out` with `work`
    # as scratch (float64 arrays of w's shape), or into new arrays if not
    # given.
    out = np.empty(np.shape(w)) if out is None else out
    if bits == 1:
        out[...] = np.where(w >= 0.0, step, -step)
        return out
    mag = np.abs(w, out=np.empty_like(out) if work is None else work)
    mag /= step
    mag += 0.5
    np.floor(mag, out=mag)
    np.minimum(mag, 2 ** (bits - 1) - 1, out=mag)   # the top level, (levels - 1) / 2
    np.sign(w, out=out)
    out *= step
    out *= mag
    return out


def quantize_tensor(w: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    return _quantize(np.asarray(w, dtype=np.float64), cfg.step, cfg.bits)


def _weight_steps(net: Network, bits: int, steps) -> np.ndarray:
    # The step of each element of net.flat[:net.weight_size]: one step per
    # weighted layer, in layer order. QuantizerConfig checks bits and steps.
    idx = net.param_layers()
    if len(steps) != len(idx):
        raise ValueError(f"{len(steps)} step sizes disagree with {len(idx)} weighted layers")
    return np.repeat([QuantizerConfig(bits, step).step for step in steps],
                     [net.weights[i].size for i in idx])


def _mse(w: np.ndarray, bits: int, step: float) -> float:
    return float(np.mean((_quantize(w, step, bits) - w) ** 2))


def select_step_size(w: np.ndarray, bits: int) -> float:
    """Step size minimizing mean squared quantization error for one tensor.

    Golden-section search over step in (0, 2 * max|w| / (M - 1)] (for b = 1
    the divisor is taken as 1), 60 iterations or until the bracket shrinks
    below 1e-6 * max|w|. Endpoint candidates are kept, so inputs that fit
    the grid exactly come back with zero error.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    m = levels_count(bits)
    if not np.isfinite(w).all():
        raise ValueError("cannot select a step size for a tensor holding NaN or infinite values")
    w_max = float(np.max(np.abs(w))) if w.size else 0.0
    if w_max == 0.0:
        raise ValueError("cannot select a step size for an all-zero tensor")
    # QuantizerConfig rejects an upper end that overflows to inf
    hi = QuantizerConfig(bits, 2.0 * w_max / max(m - 1, 1)).step
    lo = 1e-9 * hi
    tol = _SEARCH_TOL * w_max

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _mse(w, bits, c), _mse(w, bits, d)
    best_step, best_err = (c, fc) if fc <= fd else (d, fd)
    for _ in range(_SEARCH_ITERS):
        if b - a < tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _mse(w, bits, c)
            cand, ferr = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _mse(w, bits, d)
            cand, ferr = d, fd
        if ferr < best_err:
            best_step, best_err = cand, ferr
    f_hi = _mse(w, bits, hi)
    if f_hi <= best_err:
        best_step, best_err = hi, f_hi
    return float(best_step)


def quantize_network(net: Network, bits: int, steps: list[float]) -> Network:
    """Copy of `net` with each weight tensor quantized under its own step.

    Biases stay full precision; `steps` is aligned with net.param_layers().
    """
    out = net.copy()
    nw = out.weight_size
    out.flat[:nw] = _quantize(out.flat[:nw], _weight_steps(out, bits, steps), bits)
    return out


@dataclass
class QuantizedModel:
    """A network whose weight tensors sit on the quantizer grid.

    `steps` holds one step size per parameterized layer, in layer order,
    checked with `bits` at construction. Biases are full precision.
    """

    net: Network
    bits: int
    steps: list[float]

    def __post_init__(self):
        _weight_steps(self.net, self.bits, self.steps)


def direct_quantize_model(net: Network, bits: int) -> QuantizedModel:
    """Quantize every weight tensor with its own MSE-minimizing step size,
    which the returned model records in `steps`."""
    steps = [select_step_size(net.weights[i], bits) for i in net.param_layers()]
    return QuantizedModel(quantize_network(net, bits, steps), bits, steps)
