"""Command-line entry point.

Pipeline subcommands (pretrain, quantize, retrain-cyclical, average,
finetune, sqwa) run the stage chain up to the named stage; `sqwa` runs
everything including the metrics report. `losscape` maps a loss surface
over the plane through three checkpoints, and `eval` scores one checkpoint
on a dataset split. Every run writes a frozen copy of its resolved config
into the output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .losscape import build_plane, evaluate_surface, export_grid, params_to_vector
from .nn import evaluate
from .pipeline import (PipelineError, RunConfig, as_network, build_datasets,
                       dataset_id, run_stages)
from .qat import ShadowModel

log = logging.getLogger("sqwa")


def _apply_overrides(d: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = d
        *parents, leaf = dotted.split(".")
        for p in parents:
            target = target.setdefault(p, {})
            if not isinstance(target, dict):
                raise ValueError(f"override {item!r}: {p} holds {target!r}, not a mapping")
        target[leaf] = value
    return d


def _load_config(args) -> RunConfig:
    if args.config:
        d = json.loads(Path(args.config).read_text())
        if not isinstance(d, dict):
            raise ValueError(f"{args.config}: expected a JSON object, got {type(d).__name__}")
    else:
        if not args.output_dir:
            raise ValueError("need --config or --output-dir")
        # unresolved, so that derived fields follow the overrides below
        d = RunConfig(seed=args.seed or 0, output_dir=args.output_dir).to_dict()
    if args.output_dir:
        d["output_dir"] = args.output_dir
    if args.seed is not None:
        d["seed"] = args.seed
    _apply_overrides(d, args.set or [])
    return RunConfig.from_dict(d)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config (defaults to the desk-scale recipe)")
    p.add_argument("--output-dir", help="run directory for artifacts")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config entry, e.g. --set cyclical.epochs=36")


def _cmd_stage(args) -> int:
    cfg = _load_config(args)
    # each stage command is named after its last stage, except `sqwa`
    run_stages(cfg, "report" if args.command == "sqwa" else args.command)
    return 0


def _config_and_split(args):
    cfg = _load_config(args).resolve()
    return cfg, build_datasets(cfg)[("train", "test").index(args.split)]


def _cmd_eval(args) -> int:
    _, ds = _config_and_split(args)
    loss, acc = evaluate(as_network(ckpt.load(args.checkpoint), args.checkpoint), ds)
    print(f"checkpoint={args.checkpoint} split={args.split} "
          f"loss={loss!r} accuracy={acc!r}")
    return 0


def _cmd_losscape(args) -> int:
    cfg, ds = _config_and_split(args)
    models = [ckpt.load(p) for p in args.models]
    nets = [m.shadow if isinstance(m, ShadowModel) else as_network(m, p)
            for m, p in zip(models, args.models)]
    bits = steps = None
    if args.mode == "quantized":
        if not all(isinstance(m, ShadowModel) for m in models):
            raise ValueError("quantized mode needs three shadow checkpoints")
        if any(m.bits != models[0].bits or list(m.steps) != list(models[0].steps)
               for m in models):
            raise ValueError("the three models do not share one quantizer configuration")
        bits, steps = models[0].bits, list(models[0].steps)
    plane = build_plane(*(params_to_vector(n) for n in nets))
    grid = evaluate_surface(plane, nets[0], ds, resolution=args.resolution,
                            margin=args.margin, mode=args.mode, bits=bits, steps=steps,
                            dataset_id=dataset_id(cfg, args.split), split=args.split)
    csv_path, meta_path = export_grid(grid, args.out)
    log.info("losscape: wrote %s and %s", csv_path, meta_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqwa",
        description="Quantized-weight training lab: cyclical-rate capture, "
                    "exact-grid averaging, re-quantization with fine-tuning, "
                    "and loss-surface maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("pretrain", "train the full-precision baseline"),
        ("quantize", "directly quantize the pretrained model"),
        ("retrain-cyclical", "retrain quantized weights on a cyclical schedule, "
                             "capturing one model per cycle"),
        ("average", "average the captured models on the exact step-size grid"),
        ("finetune", "re-quantize the average and fine-tune it"),
        ("sqwa", "run the whole pipeline and write the metrics report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=_cmd_stage)

    p = sub.add_parser("eval", help="loss and accuracy of one checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("losscape", help="loss surface over the plane through "
                                        "three checkpoints")
    _add_common(p)
    p.add_argument("--models", nargs=3, required=True, metavar="CKPT",
                   help="three checkpoint directories spanning the plane")
    p.add_argument("--mode", choices=["full_precision", "quantized"],
                   default="full_precision")
    p.add_argument("--resolution", type=int, default=25)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--split", choices=["train", "test"], default="train")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_losscape)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    try:
        return args.fn(args)
    except (PipelineError, ValueError, OSError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
