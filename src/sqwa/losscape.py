"""Loss surfaces over the plane spanned by three weight vectors.

Three flattened parameter vectors w1, w2, w3 define a plane through
Gram-Schmidt: u = w2 - w1, v = (w3 - w1) - <w3 - w1, u> / <u, u> * u,
normalized to an orthonormal basis (u_hat, v_hat). A grid point (x, y)
maps to the parameter vector w1 + x * u_hat + y * v_hat.

In quantized mode the plane is built from full-precision shadow vectors
and every grid point's weights are pushed through the frozen per-layer
quantizer before evaluation, so the weights change only where one crosses
a grid midpoint. The biases are interpolated along the plane and never
quantized, so the loss still varies between those crossings: the surface
is not piecewise constant.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .nn import _EVAL_BATCH_SIZE, Network, _evaluate_stack, _is_int, output_shapes
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
# spawned worker takes about 0.25 s to start (a forked one far less), the
# time a block of about 900,000 point-samples takes to evaluate at 8 points
# per pass. The 41x41 grid over 5,000 samples still splits in two.
_MIN_BLOCK_SAMPLES = 1_000_000

# float64 values (1 MiB) that the grid points scored in one pass of the
# stacked evaluation may hold between them: each point's parameter vector
# plus one batch of every layer's output, views included. The default MLP
# at batch 256 scores 8 points per pass, a CNN whose activations exceed it 1.
_PASS_VALUES = 2 ** 17


def params_to_vector(net: Network) -> np.ndarray:
    """Copy of the parameter buffer: all weights in layer order, then all biases."""
    return net.flat.copy()


def vector_to_network(template: Network, vec: np.ndarray) -> Network:
    """Inverse of params_to_vector, using `template` for shapes."""
    if vec.shape != template.flat.shape:
        raise ValueError(f"vector has {vec.size} values, template needs {template.flat.size}")
    out = Network(template.input_shape, template.specs)
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

    Rejects vectors holding NaN or infinity, coincident w1/w2 and collinear
    triples, which leave no plane to span.
    """
    w1, w2, w3 = (np.asarray(w, dtype=np.float64).ravel() for w in (w1, w2, w3))
    if not (w1.shape == w2.shape == w3.shape):
        raise ValueError("weight vectors must have identical lengths")
    if not all(np.isfinite(w).all() for w in (w1, w2, w3)):
        raise ValueError("weight vectors must be finite")
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


def _axis_with_anchors(anchor_values: np.ndarray, margin: float, count: int) -> np.ndarray:
    # `count` points over the anchor coordinates' range, widened by a
    # relative `margin` on each side: a straight linspace, with the nearest
    # points replaced by the anchor coordinates so anchors land exactly on
    # the lattice.
    span = max(anchor_values.max() - anchor_values.min(), 1e-12)
    axis = np.linspace(anchor_values.min() - margin * span,
                       anchor_values.max() + margin * span, count)
    taken: dict[int, float] = {}
    for a in sorted({float(v) for v in anchor_values}):
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


def _runs_one_thread() -> bool:
    # True when this process runs exactly one OS thread, counted where Linux
    # lists them; False where the count cannot be read. A BLAS library's own
    # threads count too, which threading.active_count() would miss.
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _points_per_pass(template: Network, samples: int) -> int:
    # Grid points one call of the stacked kernel scores: as many as fit in
    # _PASS_VALUES, at least 1
    rows = min(_EVAL_BATCH_SIZE, samples)
    shapes = output_shapes(template.specs, template.input_shape)
    per_point = template.flat.size + rows * sum(math.prod(shape) for shape in shapes)
    return max(1, _PASS_VALUES // max(per_point, 1))


def _surface_rows(xs: np.ndarray, ys: np.ndarray, plane: LossPlane, template: Network,
                  dataset, mode: str, bits: int | None,
                  steps: list[float] | None) -> tuple[np.ndarray, np.ndarray]:
    # Loss and accuracy at every (x, y) of one block of rows, in row-major
    # order, _points_per_pass points per kernel call. A pass's points are
    # built in one broadcast, (origin + x * u_hat) + y * v_hat as in
    # grid_point, and in quantized mode their weight columns are quantized
    # in place in one call, as quantized_grid_point does one point. The
    # step vector and the kernel's temporaries are made once per block.
    px, py = np.repeat(xs, len(ys))[:, None], np.tile(ys, len(xs))[:, None]
    per_pass = _points_per_pass(template, len(dataset.labels))
    nw = template.weight_size
    step_of = _weight_steps(template, bits, steps) if mode == "quantized" else None
    scratch: dict = {}
    loss, acc = np.empty(len(px)), np.empty(len(px))
    for start in range(0, len(px), per_pass):
        done = slice(start, start + per_pass)
        points = px[done] * plane.u_hat
        points += plane.origin
        points += py[done] * plane.v_hat
        if step_of is not None:
            _quantize(points[:, :nw], step_of, bits, out=points[:, :nw])
        loss[done], acc[done] = _evaluate_stack(template, points, dataset, _EVAL_BATCH_SIZE,
                                                scratch)
    return loss.reshape(len(xs), len(ys)), acc.reshape(len(xs), len(ys))


def _surface_rows_in_workers(blocks: list[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    # _surface_rows of the first block in this process, of the others in a
    # pool of workers, in block order. A process that runs one thread forks
    # its workers: no other thread can hold a lock across the fork, and the
    # executor forks every worker on the first submit, before it starts its
    # own manager thread. Any other process spawns them, which is slower to
    # start (a fresh interpreter imports numpy and sqwa) but safe.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    method = "fork" if _runs_one_thread() else "spawn"
    try:
        with ProcessPoolExecutor(len(blocks) - 1,
                                 mp_context=multiprocessing.get_context(method)) as pool:
            pending = [pool.submit(_surface_rows, *block) for block in blocks[1:]]
            return [_surface_rows(*blocks[0]), *(f.result() for f in pending)]
    except BrokenProcessPool as exc:
        hint = ("" if method == "fork" else " The usual cause: spawned workers re-run "
                "the main script, so a script that calls evaluate_surface must keep its "
                "top-level code under `if __name__ == \"__main__\":`")
        raise BrokenProcessPool(f"a loss-surface worker process died ({exc}){hint}") from exc
    finally:
        # Linux lists the shut-down pool's joined threads for a few ms more;
        # wait, at most about 0.1 s, until the probe reads one thread again,
        # so that a next surface in this process forks its workers too
        deadline = time.monotonic() + 0.1
        while method == "fork" and not _runs_one_thread() and time.monotonic() < deadline:
            time.sleep(0.001)


def evaluate_surface(plane: LossPlane, template: Network, dataset, *,
                     resolution: int = 25, margin: float = 0.2,
                     mode: str = "full_precision", bits: int | None = None,
                     steps: list[float] | None = None, dataset_id: str = "",
                     split: str = "train") -> SurfaceGrid:
    """Evaluate loss and accuracy over a square grid of plane coordinates.

    The ranges cover all three anchors with a relative `margin` on each
    side, and the grid axes are nudged so the anchor coordinates appear among
    the evaluated points. Grid points are independent, so the x rows are
    split into contiguous blocks, one per usable core: this process
    evaluates the first block and worker processes the others. A grid too
    small to repay starting a worker (see _MIN_BLOCK_SAMPLES) is evaluated
    in this process alone. A block scores several points per pass of the
    stacked evaluation kernel, as many as _PASS_VALUES allows, and each
    point's loss and accuracy are bit for bit what `evaluate` gives for its
    network. Each point is computed the same way in any block, so the
    output is deterministic and identical for every core count.

    Args:
        resolution: points per axis (>= 2).
        margin: finite and >= 0.
        mode: 'full_precision' evaluates grid points as-is and takes no
            bits or steps; 'quantized' first quantizes each point's weights
            as quantized_grid_point does (requires bits and per-layer steps,
            e.g. a capture's frozen values).
    """
    if mode not in ("full_precision", "quantized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "quantized" and (bits is None or steps is None):
        raise ValueError("quantized mode needs bits and per-layer steps")
    if mode == "full_precision" and (bits is not None or steps is not None):
        raise ValueError("full_precision mode quantizes nothing: give no bits or steps")
    if not (_is_int(resolution) and resolution >= 2):
        raise ValueError(f"resolution must be an integer >= 2 per axis, got {resolution!r}")
    if not 0.0 <= margin < math.inf:   # NaN fails both
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    if plane.origin.shape != template.flat.shape:
        raise ValueError(f"vector has {plane.origin.size} values, "
                         f"template needs {template.flat.size}")

    xs, ys = (_axis_with_anchors(a, margin, resolution) for a in plane.anchors.T)

    # Contiguous row blocks, the first for this process and one for each
    # worker, with no more blocks than hold _MIN_BLOCK_SAMPLES each. Workers
    # get their inputs as pickled arguments, however they were started. An
    # executor, unlike multiprocessing.Pool, raises when a worker dies
    # instead of waiting for its result forever.
    samples = resolution ** 2 * len(dataset.labels)
    cores = max(1, min(_usable_cores(), resolution, samples // _MIN_BLOCK_SAMPLES))
    blocks = [(block, ys, plane, template, dataset, mode, bits, steps)
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
    load_grid round trip reproduces every record exactly. Both files are
    written before either is renamed into place; only a crash between the
    two renames can leave the new CSV beside the old sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # rows end in "\r\n" as the csv module's writer ends them; a float's
    # repr never needs quoting
    lines = ["x,y,loss,accuracy\r\n"] + [
        f"{float(x)!r},{float(y)!r},{float(grid.loss[i, j])!r},{float(grid.accuracy[i, j])!r}\r\n"
        for i, x in enumerate(grid.xs) for j, y in enumerate(grid.ys)]
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
    write_atomic({path: "".join(lines), meta_path: json.dumps(meta, indent=2, sort_keys=True)})
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
