"""End-to-end run orchestration: pretrain, quantize, retrain with cyclical
rates, average, re-quantize + fine-tune, report.

Each stage is a plain function from its input artifacts to its output
artifacts. One runner, `run_stages`, loads the inputs from checkpoint
directories under the run's output directory, calls the stage and saves
what it returns. That makes runs resumable: rerunning with the same config
skips stages whose outputs already exist and yields byte-identical
results, because fresh and resumed runs consume the same persisted bytes.
Each stage scores what a reload of its models gives, once, and records
the scores in their manifests; the report reads them and scores nothing.
A frozen copy of the resolved config is written at the start of the run
and must match on resume. A checkpoint counts as written only once its
manifest is in place, so a failed stage runs again on the next run.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .averaging import AveragedModel, CaptureBank, average_models, requantize_averaged
from .data import Dataset, _check_batch_size, _check_blobs, load_idx, synthetic_blobs
from .nn import LayerSpec, Network, _check_optimizer, evaluate, forward, init_weights
from .qat import ShadowModel, _check_finetune, finetune, fit, retrain
from .quantizer import QuantizedModel, direct_quantize_model
from .schedule import CyclicalSchedule, StepDecaySchedule, derive_cycle_bounds, lr_at

__all__ = [
    "PipelineError",
    "DatasetConfig",
    "PretrainConfig",
    "CyclicalConfig",
    "FinetuneConfig",
    "RunConfig",
    "default_config",
    "build_datasets",
    "as_network",
    "run_stages",
    "run_sqwa",
    "STAGES",
    "CONFIG_SCHEMA_VERSION",
]

log = logging.getLogger("sqwa")

CONFIG_SCHEMA_VERSION = 1

class PipelineError(RuntimeError):
    pass


def _from_dict(cls, d: dict, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected a mapping, got {type(d).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    return cls(**d)


@dataclass
class DatasetConfig:
    kind: str = "blobs"
    # blobs
    num_classes: int = 10
    samples_per_class: int = 500
    test_samples_per_class: int = 500
    dims: int = 8
    spread: float = 0.45
    train_seed: int | None = None  # filled from the run seed at resolve time
    test_seed: int | None = None
    # idx file pairs
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    layout: str = "flat"
    normalize: bool = True


@dataclass
class PretrainConfig:
    epochs: int = 40
    initial_lr: float = 0.1
    decay_factor: float = 0.1
    milestones: list[int] = field(default_factory=lambda: [20, 30])
    momentum: float = 0.9
    l2_scale: float = 5e-4
    batch_size: int = 32


@dataclass
class CyclicalConfig:
    period: int = 6
    mid_steps: int = 1
    epochs: int = 84
    max_lr: float | None = None  # default: max pretraining rate / 10
    min_lr: float | None = None  # default: min pretraining rate / 10


@dataclass
class FinetuneConfig:
    epochs: int = 4
    decay: float = 0.1
    initial_lr: float | None = None  # default: 0.1 * cyclical max_lr


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    bits: int = 2
    average_last_n: int = 7
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    network: dict | None = None  # {"input_shape": [...], "layers": [...]}
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    cyclical: CyclicalConfig = field(default_factory=CyclicalConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = dict(d)
        version = d.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version!r}")
        for key, cls in (("dataset", DatasetConfig), ("pretrain", PretrainConfig),
                         ("cyclical", CyclicalConfig), ("finetune", FinetuneConfig)):
            if key in d:
                d[key] = _from_dict(cls, d[key], key)
        return _from_dict(RunConfig, d, "config")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema_version"] = CONFIG_SCHEMA_VERSION
        return d

    def resolve(self) -> "RunConfig":
        """Fill every derived default and validate. Returns a new config in
        which nothing is left implicit."""
        cfg = RunConfig.from_dict(self.to_dict())  # a deep copy
        if cfg.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (isinstance(cfg.bits, int) and 1 <= cfg.bits <= 8):
            raise ValueError(f"bits must be an integer in 1..8, got {cfg.bits!r}")
        if cfg.dataset.kind == "blobs":
            d = cfg.dataset
            if d.train_seed is None:
                d.train_seed = cfg.seed
            if d.test_seed is None:
                d.test_seed = cfg.seed + 104729
            for samples in (d.samples_per_class, d.test_samples_per_class):
                _check_blobs(d.num_classes, samples, d.dims, d.spread)
        elif cfg.dataset.kind != "idx":
            raise ValueError(f"unknown dataset kind {cfg.dataset.kind!r}")
        if cfg.network is None:
            if cfg.dataset.kind != "blobs":
                raise ValueError("a network spec is required for idx datasets")
            cfg.network = {
                "input_shape": [cfg.dataset.dims],
                "layers": [
                    {"kind": "dense", "fan_in": cfg.dataset.dims, "fan_out": 24},
                    {"kind": "relu"},
                    {"kind": "dense", "fan_in": 24, "fan_out": cfg.dataset.num_classes},
                ],
            }
        _check_batch_size(cfg.pretrain.batch_size)
        _check_optimizer(cfg.pretrain.momentum, cfg.pretrain.l2_scale)
        pre_sched = _pretrain_schedule(cfg)
        if cfg.cyclical.max_lr is None or cfg.cyclical.min_lr is None:
            hi, lo = derive_cycle_bounds(pre_sched.lr_values())
            if cfg.cyclical.max_lr is None:
                cfg.cyclical.max_lr = hi
            if cfg.cyclical.min_lr is None:
                cfg.cyclical.min_lr = lo
        _cyclical_schedule(cfg)  # validate
        if cfg.finetune.initial_lr is None:
            cfg.finetune.initial_lr = 0.1 * cfg.cyclical.max_lr
        _check_finetune(cfg.finetune.initial_lr, cfg.finetune.epochs, cfg.finetune.decay)
        captures = cfg.cyclical.epochs // cfg.cyclical.period
        if not (1 <= cfg.average_last_n <= captures):
            raise ValueError(f"average_last_n {cfg.average_last_n} exceeds the "
                             f"{captures} captures the cyclical stage will produce")
        return cfg


def default_config(output_dir: str, seed: int = 0) -> RunConfig:
    """The desk-scale default recipe, fully resolved."""
    return RunConfig(seed=seed, output_dir=str(output_dir)).resolve()


def _pretrain_schedule(cfg: RunConfig) -> StepDecaySchedule:
    p = cfg.pretrain
    return StepDecaySchedule(p.initial_lr, p.decay_factor, tuple(p.milestones), p.epochs)


def _cyclical_schedule(cfg: RunConfig) -> CyclicalSchedule:
    c = cfg.cyclical
    return CyclicalSchedule(c.max_lr, c.min_lr, c.period, c.mid_steps, c.epochs)


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    d = cfg.dataset
    if d.kind == "blobs":
        train = synthetic_blobs(d.num_classes, d.samples_per_class, d.dims, d.spread,
                                d.train_seed)
        test = synthetic_blobs(d.num_classes, d.test_samples_per_class, d.dims, d.spread,
                               d.test_seed)
        return train, test
    train = load_idx(d.train_images, d.train_labels, normalize=d.normalize, layout=d.layout)
    test = load_idx(d.test_images, d.test_labels, normalize=d.normalize, layout=d.layout)
    return train, test


def dataset_id(cfg: RunConfig, split: str) -> str:
    return json.dumps({"dataset": dataclasses.asdict(cfg.dataset), "split": split},
                      sort_keys=True)


def as_network(obj) -> Network:
    """The evaluable network behind any checkpointable model object."""
    if isinstance(obj, Network):
        return obj
    if isinstance(obj, (QuantizedModel, AveragedModel)):
        return obj.net
    if isinstance(obj, ShadowModel):
        return obj.applied
    raise TypeError(f"no evaluable network in {type(obj).__name__}")


# --- stages ---------------------------------------------------------------

# Each stage is a function (cfg, train, test, *inputs) of its loaded input
# artifacts. It returns {artifact: (object, provenance)}, except the report,
# which returns its rows and the text of the report files. A model output
# records in provenance["metrics"] its scores on the splits the report shows;
# `final` records none, its applied network is `final_quantized`.

def _score(obj, **splits: Dataset) -> dict:
    """{split}_loss and {split}_accuracy of what a reload of `obj` gives."""
    net = as_network(ckpt.round_trip(obj))
    return {f"{split}_{name}": value for split, data in splits.items()
            for name, value in zip(("loss", "accuracy"), evaluate(net, data))}


def _stage_pretrain(cfg: RunConfig, train: Dataset, test: Dataset) -> dict:
    specs = [LayerSpec.from_dict(d) for d in cfg.network["layers"]]
    sched = _pretrain_schedule(cfg)
    p = cfg.pretrain
    net = init_weights(specs, tuple(cfg.network["input_shape"]), cfg.seed)
    fit(net, train, [lr_at(sched, epoch) for epoch in range(p.epochs)], cfg.seed,
        batch_size=p.batch_size, momentum=p.momentum, l2_scale=p.l2_scale)
    _check_responsive(net, train)
    scores = _score(net, test=test)
    log.info("pretrain: %d epochs, test loss %.4f, test accuracy %.4f",
             p.epochs, scores["test_loss"], scores["test_accuracy"])
    return {"pretrained": (net, {"seed": cfg.seed, "epochs": p.epochs, "metrics": scores})}


def _check_responsive(net: Network, train: Dataset) -> None:
    # A pretrained model whose logits do not change with its input predicts
    # one class whatever it is shown, and no later stage can revive it; its
    # weights can be tiny but nonzero, which fit's dead-layer guard misses.
    # Identical probe samples say nothing about that, so they pass.
    x = train.images[:256]
    if (x == x[:1]).all():
        return
    logits = forward(net, x)[0]
    if (np.ptp(logits, axis=0) <= 1e-9 * np.abs(logits).max()).all():
        raise ValueError(f"the pretrained model gives the same logits for all {len(x)} "
                         "probe samples; training left it dead")


def _stage_quantize(cfg: RunConfig, train: Dataset, test: Dataset, net: Network) -> dict:
    qm, steps = direct_quantize_model(net, cfg.bits)
    scores = _score(qm, test=test)
    log.info("quantize: %d-bit direct, steps %s, test accuracy %.4f",
             cfg.bits, [f"{s:.4g}" for s in steps], scores["test_accuracy"])
    return {"direct_quantized": (qm, {"metrics": scores})}


def _stage_retrain(cfg: RunConfig, train: Dataset, test: Dataset, net: Network,
                   qm: QuantizedModel) -> dict:
    model = ShadowModel.from_network(net, cfg.bits, qm.steps)

    def _score_capture(entry, lr):
        entry.metrics.update(_score(entry.model, train=train, test=test))
        log.info("retrain-cyclical: epoch %d, lr %.2g, test accuracy %.4f",
                 entry.epoch, lr, entry.metrics["test_accuracy"])

    _, bank = retrain(model, train, _cyclical_schedule(cfg), cfg.cyclical.epochs, cfg.seed + 1,
                      batch_size=cfg.pretrain.batch_size, momentum=cfg.pretrain.momentum,
                      on_capture=_score_capture)
    log.info("retrain-cyclical: %d captures banked", len(bank))
    return {"capture_bank": (bank, {})}


def _stage_average(cfg: RunConfig, train: Dataset, test: Dataset, bank: CaptureBank) -> dict:
    avg = average_models(bank, cfg.average_last_n)
    scores = _score(avg, train=train, test=test)
    log.info("average: %d models, effective %d-bit, test accuracy %.4f",
             avg.count, avg.effective_bits, scores["test_accuracy"])
    return {"averaged": (avg, {"metrics": scores})}


def _stage_finetune(cfg: RunConfig, train: Dataset, test: Dataset,
                    avg: AveragedModel) -> dict:
    qm, steps = requantize_averaged(avg, cfg.bits)
    model = ShadowModel.from_network(avg.net, cfg.bits, steps)
    f = cfg.finetune
    model = finetune(model, train, f.initial_lr, f.epochs, f.decay, cfg.seed + 2,
                     batch_size=cfg.pretrain.batch_size, momentum=cfg.pretrain.momentum)
    final_quantized = model.as_quantized()
    scores = _score(final_quantized, train=train, test=test)
    log.info("finetune: %d epochs from lr %.2g, test accuracy %.4f",
             f.epochs, f.initial_lr, scores["test_accuracy"])
    return {"requantized": (qm, {"metrics": _score(qm, train=train, test=test)}),
            "final": (model, {}), "final_quantized": (final_quantized, {"metrics": scores})}


def _recorded_scores(cfg: RunConfig, artifact: str) -> dict:
    scores = (ckpt.load_manifest(_paths(cfg)[artifact])["provenance"] or {}).get("metrics")
    if scores is None:
        raise PipelineError(f"{artifact} records no scores: it was written by an earlier "
                            "build of sqwa; run the recipe in a fresh output directory")
    return scores


def _stage_report(cfg: RunConfig, train: Dataset, test: Dataset, bank: CaptureBank,
                  avg: AveragedModel, requant: QuantizedModel, final: QuantizedModel,
                  pre: Network, direct0: QuantizedModel) -> tuple[list[dict], dict]:
    # The inputs are loaded, so a corrupt payload fails here too, but only
    # their recorded scores and bit widths are read.
    rows = [{"label": "capture", "epoch": e.epoch, "bits": bank.bits, **e.metrics}
            for e in bank.entries[-cfg.average_last_n:]]
    for label, artifact, bits in (("average", "averaged", avg.effective_bits),
                                  ("direct", "requantized", requant.bits),
                                  ("finetune", "final_quantized", final.bits)):
        rows.append({"label": label, "epoch": None, "bits": bits,
                     **_recorded_scores(cfg, artifact)})

    header = ["label", "epoch", "bits", "train_loss", "train_accuracy",
              "test_loss", "test_accuracy"]
    # str of a float is its repr, the shortest text that reads back exactly
    lines = [",".join(header)] + [",".join("" if r[k] is None else str(r[k]) for k in header)
                                  for r in rows]

    fp_acc = _recorded_scores(cfg, "pretrained")["test_accuracy"]
    d_acc = _recorded_scores(cfg, "direct_quantized")["test_accuracy"]
    summary = [
        f"full-precision test accuracy:            {fp_acc:.4f}",
        f"direct {cfg.bits}-bit quantization (pretrained): {d_acc:.4f}",
        "",
        f"{'row':<10}{'epoch':>6}{'bits':>5}{'train acc':>11}{'test acc':>10}",
    ]
    for r in rows:
        epoch = "" if r["epoch"] is None else r["epoch"]
        summary.append(f"{r['label']:<10}{epoch:>6}{r['bits']:>5}"
                       f"{r['train_accuracy']:>11.4f}{r['test_accuracy']:>10.4f}")
    for line in summary:
        log.info("report: %s", line)
    return rows, {"metrics": "\n".join(lines) + "\n", "summary": "\n".join(summary) + "\n"}


# stage -> (function, input artifacts, output artifacts), in run order. A
# stage whose outputs all have a manifest.json is skipped; the report has
# none and always runs.
_STAGE_TABLE = {
    "pretrain": (_stage_pretrain, (), ("pretrained",)),
    "quantize": (_stage_quantize, ("pretrained",), ("direct_quantized",)),
    "retrain-cyclical": (_stage_retrain, ("pretrained", "direct_quantized"),
                         ("capture_bank",)),
    "average": (_stage_average, ("capture_bank",), ("averaged",)),
    "finetune": (_stage_finetune, ("averaged",),
                 ("requantized", "final", "final_quantized")),
    "report": (_stage_report, ("capture_bank", "averaged", "requantized",
                               "final_quantized", "pretrained", "direct_quantized"), ()),
}

STAGES = list(_STAGE_TABLE)


def _paths(cfg: RunConfig) -> dict[str, Path]:
    # one checkpoint directory per stage output, named after the artifact
    out = Path(cfg.output_dir)
    paths = {a: out / a for _, _, outputs in _STAGE_TABLE.values() for a in outputs}
    return {"config": out / "config.json", **paths,
            "metrics": out / "metrics.csv", "summary": out / "summary.txt"}


def _freeze_config(cfg: RunConfig, paths: dict) -> None:
    resolved, path = json.loads(json.dumps(cfg.to_dict())), paths["config"]
    if not path.is_file():
        ckpt.write_json(path, resolved)
    elif json.loads(path.read_text()) != resolved:
        raise ValueError(f"{path} was written by a run with a different config; "
                         "refusing to mix artifacts")


def run_stages(cfg: RunConfig, last_stage: str) -> dict:
    """Run every stage up to and including `last_stage`, skipping stages
    whose outputs all exist. Returns paths and, when the report stage runs,
    its rows."""
    if last_stage not in STAGES:
        raise ValueError(f"unknown stage {last_stage!r}")
    cfg = cfg.resolve()
    paths = _paths(cfg)
    # before config.json is frozen, so a dataset that cannot be built (a
    # missing IDX file, say) leaves nothing that refuses the corrected rerun
    try:
        train, test = build_datasets(cfg)
    except (ValueError, OSError) as exc:
        raise PipelineError(f"datasets: {exc}") from exc
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    _freeze_config(cfg, paths)
    result = {"paths": paths, "config": cfg}
    for name in STAGES[:STAGES.index(last_stage) + 1]:
        fn, inputs, outputs = _STAGE_TABLE[name]
        if outputs and all((paths[a] / "manifest.json").is_file() for a in outputs):
            log.info("%s: artifacts exist, skipping", name)
            continue
        try:
            out = fn(cfg, train, test, *[ckpt.load(paths[a]) for a in inputs])
            if name == "report":
                result["report"], files = out
                for artifact, text in files.items():
                    paths[artifact].write_text(text)
            else:
                for artifact, (obj, provenance) in out.items():
                    ckpt.save(obj, paths[artifact], provenance={"stage": name, **provenance})
        except Exception as exc:
            raise PipelineError(f"stage '{name}': {exc}") from exc
    return result


def run_sqwa(cfg: RunConfig) -> dict:
    """The full pipeline: pretrain through report."""
    return run_stages(cfg, "report")
