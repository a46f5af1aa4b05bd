"""The benchmark's workloads: inputs made from the workload seed, the timed
body, and the checks on each run's outputs.

Only public names of `sqwa` are used, always looked up on their module at
call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import sqwa
from sqwa import pipeline

SURFACE_RESOLUTION = 41
CNN_SAMPLES_PER_CLASS = 60          # 600 train and 600 test images
CNN_SPREAD = 0.25
CNN_SIDE = 16


def no_span(name):
    return contextlib.nullcontext()


# --- inputs -----------------------------------------------------------------

def mlp_config(out_dir: Path, seed: int):
    """The default recipe: 8->24->10 MLP, 2 bits, batch 32, 128 epochs."""
    return sqwa.default_config(str(out_dir), seed)


def _blob_basis() -> np.ndarray:
    # One Gaussian bump per blob dimension, placed on a ring, so each of the
    # eight axis directions (and its negative) draws a distinct picture.
    yy, xx = np.mgrid[0:CNN_SIDE, 0:CNN_SIDE]
    basis = []
    for k in range(8):
        angle = 2.0 * math.pi * k / 8
        cy = 7.5 + 4.5 * math.sin(angle)
        cx = 7.5 + 4.5 * math.cos(angle)
        basis.append(np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 2.0 ** 2)))
    return np.stack(basis)


def write_cnn_fixtures(fixture_dir: Path, seed: int) -> dict:
    """Render 8-dim Gaussian blobs to 1x16x16 byte images and write them as
    IDX pairs: 600 train images from `seed`, 600 test images from
    `seed + 104729` (the offset `resolve()` uses for blob test sets)."""
    fixture_dir.mkdir(parents=True, exist_ok=True)
    basis = _blob_basis()
    paths = {}
    for split, split_seed in (("train", seed), ("test", seed + 104729)):
        blobs = sqwa.synthetic_blobs(10, CNN_SAMPLES_PER_CLASS, 8, CNN_SPREAD, split_seed)
        pictures = np.tensordot(blobs.images, basis, axes=1)
        pixels = np.clip(np.rint(128.0 + 80.0 * pictures), 0, 255).astype(np.uint8)
        images, labels = fixture_dir / f"{split}-images.idx", fixture_dir / f"{split}-labels.idx"
        sqwa.write_idx(images, pixels)
        sqwa.write_idx(labels, blobs.labels.astype(np.uint8))
        paths[f"{split}_images"], paths[f"{split}_labels"] = str(images), str(labels)
    return paths


def cnn_config(out_dir: Path, seed: int, fixtures: dict):
    """A 4-bit recipe on a small CNN over the IDX fixtures: conv 5x5 1->4,
    relu, conv 5x5 4->8, relu, flatten, dense 512->10."""
    return sqwa.RunConfig.from_dict({
        "seed": seed,
        "output_dir": str(out_dir),
        "bits": 4,
        "average_last_n": 3,
        "dataset": {"kind": "idx", "layout": "chw", **fixtures},
        "network": {
            "input_shape": [1, CNN_SIDE, CNN_SIDE],
            "layers": [
                {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel_size": 5},
                {"kind": "relu"},
                {"kind": "conv2d", "in_channels": 4, "out_channels": 8, "kernel_size": 5},
                {"kind": "relu"},
                {"kind": "flatten"},
                {"kind": "dense", "fan_in": 512, "fan_out": 10},
            ],
        },
        "pretrain": {"epochs": 8, "initial_lr": 0.01, "milestones": [4, 6]},
        "cyclical": {"epochs": 12, "period": 3},
        "finetune": {"epochs": 1},
    }).resolve()


# --- bodies -----------------------------------------------------------------

def run_recipe(cfg, span=no_span) -> dict:
    """All six stages, one public `run_stages` call per stage so that each
    stage gets its own span. Returns the artifact paths."""
    result = None
    for stage in pipeline.STAGES:
        with span(f"pipeline.{stage}"):
            result = pipeline.run_stages(cfg, stage)
    return result["paths"]


class Surface:
    """A quantized loss surface through the last three captures of a
    finished recipe run, evaluated on the train split."""

    def __init__(self, cfg, paths: dict):
        bank = sqwa.load(paths["capture_bank"])
        self.entries = bank.entries[-3:]
        self.bits, self.steps = bank.bits, list(bank.steps)
        self.plane = sqwa.build_plane(*[sqwa.params_to_vector(e.shadow) for e in self.entries])
        self.template = self.entries[0].shadow
        self.train, _ = pipeline.build_datasets(cfg)
        self.dataset_id = f"blobs-train-seed{cfg.dataset.train_seed}"

    def run(self, csv_path: Path):
        grid = sqwa.evaluate_surface(self.plane, self.template, self.train,
                                     resolution=SURFACE_RESOLUTION, mode="quantized",
                                     bits=self.bits, steps=self.steps,
                                     dataset_id=self.dataset_id, split="train")
        sqwa.export_grid(grid, csv_path)
        return grid


# --- checks -----------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _grid_failures(name: str, net, steps, denominator: int, bits: int) -> list[str]:
    # Every weight must be an integer multiple of step / denominator and
    # stay within the level budget of `denominator` averaged b-bit models.
    half = denominator * (sqwa.levels_count(bits) - 1) // 2
    out = []
    for j, i in enumerate(net.param_layers()):
        unit = steps[j] / denominator
        levels = np.rint(net.weights[i] / unit)
        if not np.array_equal(levels * unit, net.weights[i]):
            out.append(f"{name} layer {i}: weights off the step/{denominator} grid")
        elif np.abs(levels).max(initial=0) > half:
            out.append(f"{name} layer {i}: levels exceed +-{half}")
    return out


def check_recipe(cfg, paths: dict) -> tuple[list[str], dict]:
    """Checks of one recipe run. Returns (failures, facts), where facts hold
    the final test accuracy and the metrics.csv digest."""
    failures = []
    with open(paths["metrics"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = [r["label"] for r in rows]
    expected = ["capture"] * cfg.average_last_n + ["average", "direct", "finetune"]
    if labels != expected:
        failures.append(f"metrics.csv rows {labels}, expected {expected}")
    for r in rows:
        for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
            value = float(r[key])
            if not math.isfinite(value):
                failures.append(f"metrics.csv {r['label']} {key} is {value}")
            elif key.endswith("accuracy") and not 0.0 <= value <= 1.0:
                failures.append(f"metrics.csv {r['label']} {key} {value} outside [0, 1]")
    final_rows = [r for r in rows if r["label"] == "finetune"]
    accuracy = float(final_rows[-1]["test_accuracy"]) if final_rows else float("nan")

    final = sqwa.load(paths["final_quantized"])
    if final.bits != cfg.bits:
        failures.append(f"final_quantized has {final.bits} bits, expected {cfg.bits}")
    failures += _grid_failures("final_quantized", final.net, final.steps, 1, final.bits)
    avg = sqwa.load(paths["averaged"])
    if avg.count != cfg.average_last_n:
        failures.append(f"averaged over {avg.count} models, expected {cfg.average_last_n}")
    failures += _grid_failures("averaged", avg.net, avg.base_steps, avg.count, cfg.bits)
    return failures, {"final_test_accuracy": accuracy, "digest": _digest(paths["metrics"])}


def check_surface(surface: Surface, grid, csv_path: Path) -> tuple[list[str], dict]:
    """Checks of one surface run: finite values, every capture's reloaded
    shadow quantizing to its stored model, every anchor's loss equal to
    `evaluate()` of that capture's quantized model (as acceptance
    criterion 5), and an exact `load_grid` round trip."""
    failures = []
    shape = (SURFACE_RESOLUTION, SURFACE_RESOLUTION)
    if grid.loss.shape != shape or grid.accuracy.shape != shape:
        failures.append(f"surface shape {grid.loss.shape}, expected {shape}")
    if not (np.isfinite(grid.loss).all() and np.isfinite(grid.accuracy).all()):
        failures.append("surface holds non-finite values")
    for k, (anchor, entry) in enumerate(zip(surface.plane.anchors, surface.entries)):
        # The surface quantizes the reloaded shadow, so an anchor can only
        # match its capture if that shadow still quantizes to the stored
        # model; name it when it does not, since the anchor check alone
        # does not say why.
        for j, i in enumerate(entry.shadow.param_layers()):
            requantized = sqwa.quantize_tensor(entry.shadow.weights[i],
                                               sqwa.QuantizerConfig(surface.bits, surface.steps[j]))
            flipped = int(np.count_nonzero(requantized != entry.model.net.weights[i]))
            if flipped:
                failures.append(f"capture {k} layer {i}: reloaded shadow quantizes to "
                                f"{flipped} weight(s) other than the stored model")
        ix = np.nonzero(grid.xs == anchor[0])[0]
        iy = np.nonzero(grid.ys == anchor[1])[0]
        if not (ix.size and iy.size):
            failures.append(f"anchor {k} is not on the grid")
            continue
        loss, acc = sqwa.evaluate(entry.model.net, surface.train)
        if abs(grid.loss[ix[0], iy[0]] - loss) > 1e-10 or grid.accuracy[ix[0], iy[0]] != acc:
            failures.append(f"anchor {k}: surface ({grid.loss[ix[0], iy[0]]!r}, "
                            f"{grid.accuracy[ix[0], iy[0]]!r}) vs evaluate ({loss!r}, {acc!r})")
    back = sqwa.load_grid(csv_path)
    same = (np.array_equal(back.xs, grid.xs) and np.array_equal(back.ys, grid.ys)
            and np.array_equal(back.loss, grid.loss)
            and np.array_equal(back.accuracy, grid.accuracy)
            and back.mode == grid.mode and back.bits == grid.bits
            and back.steps == grid.steps and back.split == grid.split)
    if not same:
        failures.append("surface CSV does not round-trip through load_grid")
    return failures, {"digest": _digest(csv_path)}
