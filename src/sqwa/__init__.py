"""Quantized-weight training lab.

Pipeline: train a full-precision model, quantize it onto a symmetric
uniform grid with per-layer MSE-minimizing step sizes, retrain the
quantized weights through full-precision shadows under a cyclical learning
rate, capture one model per cycle, average the captures on the exact grid
(gaining effective precision), re-quantize and fine-tune. A loss-surface
module maps full-precision and quantized loss landscapes over the plane
through three weight vectors.
"""

from .averaging import average_models, requantize_averaged
from .checkpoint import load, save
from .data import synthetic_blobs, write_idx
from .losscape import build_plane, evaluate_surface, export_grid, load_grid, params_to_vector
from .nn import evaluate
from .pipeline import RunConfig, default_config, run_sqwa
from .qat import ShadowModel, retrain
from .quantizer import QuantizerConfig, direct_quantize_model, levels_count, quantize_tensor

__all__ = [
    "QuantizerConfig",
    "RunConfig",
    "ShadowModel",
    "average_models",
    "build_plane",
    "default_config",
    "direct_quantize_model",
    "evaluate",
    "evaluate_surface",
    "export_grid",
    "levels_count",
    "load",
    "load_grid",
    "params_to_vector",
    "quantize_tensor",
    "requantize_averaged",
    "retrain",
    "run_sqwa",
    "save",
    "synthetic_blobs",
    "write_idx",
]

__version__ = "0.1.0"
