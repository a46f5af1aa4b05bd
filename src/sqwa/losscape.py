"""Loss surfaces over the plane spanned by three weight vectors.

Three flattened parameter vectors w1, w2, w3 define a plane through
Gram-Schmidt: u = w2 - w1, v = (w3 - w1) - <w3 - w1, u> / <u, u> * u,
normalized to an orthonormal basis (u_hat, v_hat). A grid point (x, y)
maps to the parameter vector w1 + x * u_hat + y * v_hat.

In quantized mode the plane is built from full-precision shadow vectors
and every grid point is pushed through the frozen per-layer quantizer
before evaluation, which makes the surface piecewise constant: it only
changes where a weight crosses a grid midpoint.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import Network, evaluate
from .quantizer import _quantize, _weight_steps

__all__ = [
    "LossPlane",
    "SurfaceGrid",
    "params_to_vector",
    "vector_to_network",
    "build_plane",
    "grid_point",
    "quantized_grid_point",
    "evaluate_surface",
    "export_grid",
    "load_grid",
]

# Relative threshold below which the residual of the third vector counts
# as degenerate.
_DEGENERATE_RTOL = 1e-10

# Fewest point-samples (grid points times dataset samples) a row block must
# hold before the surface starts worker processes: on a 2-core machine a
# spawned worker takes about 0.25 s to start, the time a block of about
# 500,000 point-samples takes to evaluate. The 41x41 grid over 5,000
# samples still splits in two.
_MIN_BLOCK_SAMPLES = 1_000_000


def params_to_vector(net: Network) -> np.ndarray:
    """Copy of the parameter buffer: all weights in layer order, then all biases."""
    return net.flat.copy()


def vector_to_network(template: Network, vec: np.ndarray) -> Network:
    """Inverse of params_to_vector, using `template` for shapes."""
    if vec.shape != template.flat.shape:
        raise ValueError(f"vector has {vec.size} values, template needs {template.flat.size}")
    out = template.copy()
    out.flat[:] = vec
    return out


@dataclass
class LossPlane:
    """Orthonormal 2-D slice of parameter space anchored at w1.

    anchors[i] is the (x, y) of w_{i+1}; anchors[0] is always (0, 0).
    """

    origin: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray
    anchors: np.ndarray  # shape (3, 2)


def build_plane(w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> LossPlane:
    """Orthonormal basis of the plane through three weight vectors.

    Rejects coincident w1/w2 and collinear triples, which leave no plane
    to span.
    """
    w1, w2, w3 = (np.asarray(w, dtype=np.float64).ravel() for w in (w1, w2, w3))
    if not (w1.shape == w2.shape == w3.shape):
        raise ValueError("weight vectors must have identical lengths")
    du = w2 - w1
    nu = float(np.linalg.norm(du))
    if nu == 0.0:
        raise ValueError("degenerate plane: w1 and w2 coincide")
    dv = w3 - w1
    v = dv - (dv @ du) / (du @ du) * du
    nv = float(np.linalg.norm(v))
    if nv <= _DEGENERATE_RTOL * max(nu, float(np.linalg.norm(dv))):
        raise ValueError("degenerate plane: w1, w2, w3 are collinear")
    u_hat = du / nu
    v_hat = v / nv
    anchors = np.array([
        [0.0, 0.0],
        [nu, 0.0],
        [float(dv @ u_hat), float(dv @ v_hat)],
    ])
    return LossPlane(w1.copy(), u_hat, v_hat, anchors)


def grid_point(plane: LossPlane, x: float, y: float) -> np.ndarray:
    """Parameter vector at plane coordinates (x, y)."""
    return plane.origin + x * plane.u_hat + y * plane.v_hat


def quantized_grid_point(plane: LossPlane, x: float, y: float, template: Network,
                         bits: int, steps: list[float]) -> np.ndarray:
    """grid_point pushed through the per-layer quantizer.

    The weight region (laid out as in `template`) is quantized under each
    layer's step; the biases pass through untouched.
    """
    if plane.origin.shape != template.flat.shape:
        raise ValueError(f"vector has {plane.origin.size} values, "
                         f"template needs {template.flat.size}")
    nw, vec = template.weight_size, grid_point(plane, x, y)
    vec[:nw] = _quantize(vec[:nw], _weight_steps(template, bits, steps), bits)
    return vec


@dataclass
class SurfaceGrid:
    """Loss / accuracy over a rectangular grid of plane coordinates."""

    xs: np.ndarray
    ys: np.ndarray
    loss: np.ndarray       # shape (len(xs), len(ys))
    accuracy: np.ndarray
    mode: str              # 'full_precision' | 'quantized'
    bits: int | None
    steps: list[float] | None
    anchors: np.ndarray
    dataset_id: str
    split: str


def _axis_with_anchors(lo: float, hi: float, count: int, anchor_values) -> np.ndarray:
    # Straight linspace, with the nearest points replaced by the anchor
    # coordinates so anchors land exactly on the lattice.
    axis = np.linspace(lo, hi, count)
    taken: dict[int, float] = {}
    for a in sorted({float(v) for v in anchor_values}):
        if not (lo <= a <= hi):
            continue
        order = np.argsort(np.abs(axis - a))
        for idx in order:
            if idx not in taken:
                taken[int(idx)] = a
                break
        else:
            raise ValueError(f"resolution {count} too small to include all anchors")
    for idx, a in taken.items():
        axis[idx] = a
    return axis


def _usable_cores() -> int:
    # Cores this process may run on; 1 inside a daemonic process, which
    # cannot start workers of its own. multiprocessing is imported here, not
    # at module level, so that processes that map no surface never load it.
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _surface_rows(xs: np.ndarray, ys: np.ndarray, plane: LossPlane, template: Network,
                  dataset, mode: str, bits: int | None, steps: list[float] | None,
                  batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    # Loss and accuracy at every (x, y) of one block of rows
    net = vector_to_network(template, plane.origin)  # the one working copy
    loss = np.empty((len(xs), len(ys)))
    acc = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if mode == "quantized":
                net.flat[:] = quantized_grid_point(plane, x, y, template, bits, steps)
            else:
                net.flat[:] = grid_point(plane, x, y)
            loss[i, j], acc[i, j] = evaluate(net, dataset, batch_size)
    return loss, acc


def _surface_rows_in_workers(blocks: list[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    # _surface_rows of the first block in this process, of the others in a
    # pool of spawned workers, in block order
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(len(blocks) - 1,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            pending = [pool.submit(_surface_rows, *block) for block in blocks[1:]]
            return [_surface_rows(*blocks[0]), *(f.result() for f in pending)]
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(
            f"a loss-surface worker process died ({exc}) The usual cause: spawned "
            "workers re-run the main script, so a script that calls evaluate_surface "
            "must keep its top-level code under `if __name__ == \"__main__\":`") from exc


def evaluate_surface(plane: LossPlane, template: Network, dataset, *,
                     resolution: int = 25, x_range: tuple[float, float] | None = None,
                     y_range: tuple[float, float] | None = None, margin: float = 0.2,
                     mode: str = "full_precision", bits: int | None = None,
                     steps: list[float] | None = None, dataset_id: str = "",
                     split: str = "train", batch_size: int = 256) -> SurfaceGrid:
    """Evaluate loss and accuracy over a grid of plane coordinates.

    Default ranges cover all three anchors with a relative `margin` on each
    side, and the grid axes are nudged so the anchor coordinates appear among
    the evaluated points. Grid points are independent, so the x rows are
    split into contiguous blocks, one per usable core: this process
    evaluates the first block and worker processes the others. A grid too
    small to repay starting a worker (see _MIN_BLOCK_SAMPLES) is evaluated
    in this process alone. Each point is computed the same way in any
    block, so the output is deterministic and identical for every core
    count.

    Args:
        resolution: points per axis (>= 2), or an (rx, ry) pair.
        mode: 'full_precision' evaluates grid points as-is; 'quantized'
            pushes each point through quantized_grid_point first (requires
            bits and per-layer steps, e.g. a capture's frozen values).
    """
    if mode not in ("full_precision", "quantized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "quantized" and (bits is None or steps is None):
        raise ValueError("quantized mode needs bits and per-layer steps")
    rx, ry = resolution if isinstance(resolution, tuple) else (resolution, resolution)
    if rx < 2 or ry < 2:
        raise ValueError("resolution must be >= 2 per axis")
    if margin < 0.0:
        raise ValueError("margin must be >= 0")

    ax, ay = plane.anchors[:, 0], plane.anchors[:, 1]
    if x_range is None:
        span = max(ax.max() - ax.min(), 1e-12)
        x_range = (ax.min() - margin * span, ax.max() + margin * span)
    if y_range is None:
        span = max(ay.max() - ay.min(), 1e-12)
        y_range = (ay.min() - margin * span, ay.max() + margin * span)
    xs = _axis_with_anchors(x_range[0], x_range[1], rx, ax)
    ys = _axis_with_anchors(y_range[0], y_range[1], ry, ay)

    # Contiguous row blocks, the first for this process and one for each
    # worker, with no more blocks than hold _MIN_BLOCK_SAMPLES each. Workers
    # are spawned, not forked, because forking a process that runs threads
    # is unsafe; they get their inputs as pickled arguments. An executor,
    # unlike multiprocessing.Pool, raises when a worker dies instead of
    # waiting for its result forever.
    samples = rx * ry * len(dataset.labels)
    cores = max(1, min(_usable_cores(), rx, samples // _MIN_BLOCK_SAMPLES))
    blocks = [(block, ys, plane, template, dataset, mode, bits, steps, batch_size)
              for block in np.array_split(xs, cores)]
    if cores == 1:
        parts = [_surface_rows(*blocks[0])]
    else:
        parts = _surface_rows_in_workers(blocks)
    loss = np.concatenate([p[0] for p in parts])
    acc = np.concatenate([p[1] for p in parts])
    return SurfaceGrid(xs, ys, loss, acc, mode, bits,
                       None if steps is None else list(steps),
                       plane.anchors.copy(), dataset_id, split)


def export_grid(grid: SurfaceGrid, path) -> tuple[Path, Path]:
    """Write the grid as CSV rows (x, y, loss, accuracy) in row-major order
    plus a JSON metadata sidecar. Floats go out in full precision, so a
    load_grid round trip reproduces every record exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "loss", "accuracy"])
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                writer.writerow([repr(float(x)), repr(float(y)),
                                 repr(float(grid.loss[i, j])),
                                 repr(float(grid.accuracy[i, j]))])
    meta = {
        "schema_version": 1,
        "mode": grid.mode,
        "bits": grid.bits,
        "steps": grid.steps,
        "anchors": [[float(v) for v in row] for row in grid.anchors],
        "dataset_id": grid.dataset_id,
        "split": grid.split,
        "xs": [float(v) for v in grid.xs],
        "ys": [float(v) for v in grid.ys],
    }
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return path, meta_path


def load_grid(path) -> SurfaceGrid:
    """Read back an export_grid CSV plus sidecar."""
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())
    if meta.get("schema_version") != 1:
        raise ValueError(f"unsupported surface schema version {meta.get('schema_version')}")
    xs = np.array(meta["xs"])
    ys = np.array(meta["ys"])
    loss = np.empty((xs.size, ys.size))
    acc = np.empty((xs.size, ys.size))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "y", "loss", "accuracy"]:
            raise ValueError(f"unexpected surface CSV header {header}")
        rows = list(reader)
    if len(rows) != xs.size * ys.size:
        raise ValueError(f"expected {xs.size * ys.size} rows, found {len(rows)}")
    for k, row in enumerate(rows):
        i, j = divmod(k, ys.size)
        if float(row[0]) != xs[i] or float(row[1]) != ys[j]:
            raise ValueError(f"row {k}: coordinates do not match the recorded axes")
        loss[i, j] = float(row[2])
        acc[i, j] = float(row[3])
    return SurfaceGrid(xs, ys, loss, acc, meta["mode"], meta["bits"], meta["steps"],
                       np.array(meta["anchors"]), meta["dataset_id"], meta["split"])
