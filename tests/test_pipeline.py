import hashlib
import json
import logging
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sqwa
import sqwa.nn
from sqwa import checkpoint as ckpt
from sqwa import pipeline
from sqwa.averaging import CaptureBank, CaptureEntry, average_models, effective_bits
from sqwa.cli import main
from sqwa.data import Dataset
from sqwa.nn import Network, dense
from sqwa.qat import ShadowModel
from sqwa.pipeline import (
    PipelineError,
    RunConfig,
    default_config,
    run_sqwa,
    run_stages,
)
from sqwa.quantizer import QuantizedModel


def _small_dict(output_dir, seed=7):
    """A seconds-scale run: 2 captures, 2-model average, 2 fine-tune epochs."""
    return {
        "seed": seed,
        "output_dir": str(output_dir),
        "bits": 2,
        "average_last_n": 2,
        "dataset": {"num_classes": 3, "samples_per_class": 20,
                    "test_samples_per_class": 20, "dims": 4, "spread": 0.45},
        "pretrain": {"epochs": 6, "milestones": [2, 4], "batch_size": 16},
        "cyclical": {"epochs": 8, "period": 4},
        "finetune": {"epochs": 2},
    }


def _small_cfg(output_dir, seed=7):
    return RunConfig.from_dict(_small_dict(output_dir, seed))


def test_resolve_fills_derived_fields(tmp_path):
    cfg = _small_cfg(tmp_path).resolve()
    assert cfg.dataset.train_seed == 7
    assert cfg.dataset.test_seed == 7 + 104729
    assert cfg.network is not None
    assert cfg.cyclical.max_lr == pytest.approx(0.01)
    assert cfg.cyclical.min_lr == pytest.approx(0.0001)
    assert cfg.finetune.initial_lr == pytest.approx(0.001)


def test_resolve_keeps_explicit_values(tmp_path):
    d = _small_dict(tmp_path)
    d["cyclical"]["max_lr"] = 0.5
    d["cyclical"]["min_lr"] = 0.005
    d["finetune"]["initial_lr"] = 0.002
    cfg = RunConfig.from_dict(d).resolve()
    assert cfg.cyclical.max_lr == 0.5
    assert cfg.finetune.initial_lr == 0.002


def test_config_round_trips_through_dict(tmp_path):
    cfg = _small_cfg(tmp_path).resolve()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_from_dict_rejects_unknown_keys(tmp_path):
    d = _small_dict(tmp_path)
    d["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_dict(d)
    d = _small_dict(tmp_path)
    d["pretrain"]["lr"] = 0.1
    with pytest.raises(ValueError, match="pretrain"):
        RunConfig.from_dict(d)


def test_from_dict_names_missing_keys(tmp_path):
    d = _small_dict(tmp_path)
    del d["seed"]
    with pytest.raises(ValueError, match=r"^config: .*missing 1 required .*'seed'$"):
        RunConfig.from_dict(d)


def test_from_dict_rejects_wrong_schema_version(tmp_path):
    d = _small_dict(tmp_path)
    d["schema_version"] = 42
    with pytest.raises(ValueError, match="schema version"):
        RunConfig.from_dict(d)


def test_resolve_validates_average_window(tmp_path):
    d = _small_dict(tmp_path)
    d["average_last_n"] = 3  # only 2 captures will exist
    with pytest.raises(ValueError, match="captures"):
        RunConfig.from_dict(d).resolve()


@pytest.mark.parametrize("change, message", [
    ({"average_last_n": 0}, "average_last_n must be >= 1, got 0"),
    ({"average_last_n": -3}, "average_last_n must be >= 1, got -3"),
    ({"cyclical": {"epochs": 3, "period": 4}},
     "cyclical.epochs 3 is shorter than cyclical.period 4, so the cyclical stage makes no "
     "capture to average"),
])
def test_resolve_names_the_field_an_average_window_cannot_meet(tmp_path, change, message):
    # each once read "average_last_n N exceeds the M captures ...", which
    # blamed the window for a count below 1 or for a stage with no capture
    d = _small_dict(tmp_path / "run")
    d.update(change)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig.from_dict(d).resolve()


@pytest.mark.parametrize("overrides, message", [
    (["average_last_n=0"], "average_last_n must be >= 1, got 0"),
    (["cyclical.epochs=5", "cyclical.period=6"],
     "cyclical.epochs 5 is shorter than cyclical.period 6, so the cyclical stage makes no "
     "capture to average"),
])
def test_the_cli_names_the_field_an_average_window_cannot_meet(tmp_path, capsys, overrides,
                                                              message):
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["pretrain", *_default_cli_args(out, *overrides)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_default_config_is_resolved(tmp_path):
    cfg = default_config(tmp_path, seed=3)
    assert cfg.cyclical.max_lr is not None
    assert cfg.finetune.initial_lr is not None
    assert cfg.average_last_n == 7
    assert cfg.bits == 2


def test_full_run_writes_all_artifacts(tmp_path):
    result = run_sqwa(_small_cfg(tmp_path))
    paths = result["paths"]
    for key in ("pretrained", "direct_quantized", "capture_bank",
                "averaged", "requantized", "final_quantized"):
        assert (paths[key] / "manifest.json").is_file(), key
    assert not (tmp_path / "retrained_shadow").exists()
    assert paths["config"].is_file()
    assert paths["metrics"].is_file()
    assert paths["summary"].is_file()
    lines = paths["metrics"].read_text().strip().splitlines()
    # header + 2 captures + average + direct + finetune
    assert len(lines) == 1 + 2 + 3
    assert lines[0] == ("label,epoch,bits,train_loss,train_accuracy,"
                        "test_loss,test_accuracy")
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["capture", "capture", "average", "direct", "finetune"]


def test_report_rows_expose_metrics(tmp_path):
    result = run_sqwa(_small_cfg(tmp_path))
    rows = result["report"]
    assert len(rows) == 5
    for row in rows:
        assert 0.0 <= row["test_accuracy"] <= 1.0
        assert row["train_loss"] > 0.0
    avg_row = next(r for r in rows if r["label"] == "average")
    assert avg_row["bits"] == 3  # 2 ternary captures average to 5 levels


def test_rerun_skips_and_preserves_bytes(tmp_path):
    result = run_sqwa(_small_cfg(tmp_path))
    payload = result["paths"]["final_quantized"] / "payload.bin"
    first = payload.read_bytes()
    mtime = payload.stat().st_mtime_ns
    run_sqwa(_small_cfg(tmp_path))
    assert payload.read_bytes() == first
    assert payload.stat().st_mtime_ns == mtime


def test_resumed_run_matches_fresh_run(tmp_path):
    fresh_dir = tmp_path / "fresh"
    resumed_dir = tmp_path / "resumed"
    run_sqwa(_small_cfg(fresh_dir))
    run_stages(_small_cfg(resumed_dir), "quantize")
    run_sqwa(_small_cfg(resumed_dir))
    fresh = sorted(p.relative_to(fresh_dir) for p in fresh_dir.rglob("payload.bin"))
    resumed = sorted(p.relative_to(resumed_dir) for p in resumed_dir.rglob("payload.bin"))
    assert fresh == resumed and len(fresh) == 7
    for rel in fresh:
        assert (fresh_dir / rel).read_bytes() == (resumed_dir / rel).read_bytes(), rel
    assert (fresh_dir / "metrics.csv").read_text() == \
           (resumed_dir / "metrics.csv").read_text()


def test_config_mismatch_refuses_to_mix(tmp_path):
    run_stages(_small_cfg(tmp_path), "pretrain")
    other = _small_dict(tmp_path)
    other["dataset"]["spread"] = 0.3
    with pytest.raises(ValueError, match="refusing to mix"):
        run_stages(RunConfig.from_dict(other), "pretrain")


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_stages(_small_cfg(tmp_path), "polish")


def test_corrupt_artifact_surfaces_as_stage_error(tmp_path):
    run_stages(_small_cfg(tmp_path), "pretrain")
    payload = tmp_path / "pretrained" / "payload.bin"
    raw = bytearray(payload.read_bytes())
    raw[3] ^= 0xFF
    payload.write_bytes(bytes(raw))
    with pytest.raises(PipelineError, match="stage 'quantize'"):
        run_sqwa(_small_cfg(tmp_path))


def _cli_args(output_dir, *extra):
    d = _small_dict(output_dir)
    cfg_path = Path(output_dir) / "run.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(d))
    return ["--config", str(cfg_path), *extra]


def test_cli_full_pipeline(tmp_path):
    out = tmp_path / "run"
    assert main(["sqwa", *_cli_args(out)]) == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.txt").is_file()


def test_cli_stage_then_eval(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pretrain", *_cli_args(out)]) == 0
    assert main(["eval", *_cli_args(out), "--checkpoint",
                 str(out / "pretrained"), "--split", "test"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "accuracy=" in line
    acc = float(line.rsplit("accuracy=", 1)[1])
    assert 0.0 <= acc <= 1.0


def test_cli_set_overrides_reach_frozen_config(tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain", *_cli_args(out), "--set",
                 "pretrain.initial_lr=0.05"]) == 0
    frozen = json.loads((out / "config.json").read_text())
    assert frozen["pretrain"]["initial_lr"] == 0.05


def test_cli_losscape_quantized(tmp_path):
    out = tmp_path / "run"
    args = _cli_args(out, "--set", "cyclical.epochs=12")
    assert main(["sqwa", *args]) == 0
    surface = out / "surface.csv"
    code = main(["losscape", *args,
                 "--models", str(out / "capture_bank" / "entry_000"),
                 str(out / "capture_bank" / "entry_001"),
                 str(out / "capture_bank" / "entry_002"),
                 "--mode", "quantized", "--resolution", "5",
                 "--out", str(surface)])
    assert code == 0
    assert surface.is_file()
    assert surface.with_suffix(".csv.meta.json").is_file()


def test_cli_losscape_rejects_mixed_grids(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sqwa", *_cli_args(out)]) == 0
    # a shadow on the fresh steps the average was re-quantized with, which
    # are not the captures' steps
    averaged, requantized = sqwa.load(out / "averaged"), sqwa.load(out / "requantized")
    assert list(requantized.steps) != list(sqwa.load(out / "capture_bank").steps)
    sqwa.save(ShadowModel.from_network(averaged.net, requantized.bits, requantized.steps),
              tmp_path / "shadow")
    capsys.readouterr()
    code = main(["losscape", *_cli_args(out),
                 "--models", str(out / "capture_bank" / "entry_000"),
                 str(out / "capture_bank" / "entry_001"),
                 str(tmp_path / "shadow"),
                 "--mode", "quantized", "--resolution", "3",
                 "--out", str(out / "s.csv")])
    assert code == 1
    assert "do not share one quantizer configuration" in capsys.readouterr().err
    assert not (out / "s.csv").exists()


def test_cli_losscape_rejects_a_margin_that_is_not_finite(tmp_path, capsys):
    out = tmp_path / "run"
    args = _cli_args(out)
    cfg = _small_cfg(out).resolve()
    specs, shape = pipeline._layer_specs(cfg.network), tuple(cfg.network["input_shape"])
    models = [str(sqwa.save(sqwa.nn.init_weights(specs, shape, seed), tmp_path / f"net{seed}"))
              for seed in (1, 2, 3)]
    capsys.readouterr()
    code = main(["losscape", *args, "--models", *models, "--margin", "nan",
                 "--resolution", "3", "--out", str(out / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: margin must be finite and >= 0, got nan\n"
    assert not (out / "s.csv").exists()


def test_cli_bad_override_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pretrain", *_cli_args(out), "--set", "pretrain.nope=1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "7", "null", '"sqwa"'])
def test_a_config_file_that_is_not_a_json_object_is_an_error_line(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg_path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: expected a JSON object")
    assert not out.exists()


def test_cli_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["eval", *_cli_args(out), "--checkpoint", str(out / "nothing")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_a_capture_bank_given_as_a_model_is_an_error_line(tmp_path, capsys):
    model = ShadowModel.from_network(sqwa.nn.init_weights([dense(8, 10)], (8,), seed=7), 2)
    bank = CaptureBank(model.bits, list(model.steps))
    bank.add(CaptureEntry(1, model.as_quantized(), model.shadow.copy(), {}))
    bank_dir = str(sqwa.save(bank, tmp_path / "capture_bank"))
    entry = str(tmp_path / "capture_bank" / "entry_000")
    out = tmp_path / "run"
    for argv in (["eval", *_cli_args(out), "--checkpoint", bank_dir],
                 ["losscape", *_cli_args(out), "--models", bank_dir, entry, entry,
                  "--resolution", "3", "--out", str(out / "s.csv")],
                 ["losscape", *_cli_args(out), "--models", bank_dir, entry, entry,
                  "--mode", "quantized", "--resolution", "3", "--out", str(out / "s.csv")]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bank_dir} is a capture bank, not one model: give one of its "
            f"entries, {bank_dir}/entry_NNN\n")
    assert not (out / "s.csv").exists()


def _count_calls(monkeypatch, module, name):
    """Count the calls of `module.name` through every `sqwa` module that
    binds it, the package re-exports included."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "sqwa" or mod_name.startswith("sqwa.")) \
                and mod.__dict__.get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# sha256 of the default recipe's outputs at seed 101. Any change that moves
# one of them changes the recipe's arithmetic and must say so.
DEFAULT_SEED_101 = {
    "metrics.csv": "7d6e3cbcf98d3bca57edf155522656719e50d78fdd5cd81cad130d98c21a6ade",
    "summary.txt": "e8db580f3c0fe0139c0e216a4ca5922a841b3075ed2aeccdad833c966479f954",
    "pretrained/payload.bin": "12c2fcd901cd6df864669eb24b3c533170bfd51e25c11326ebc990b093535204",
    "direct_quantized/payload.bin":
        "d94c8f5f48926d232e9d0c00890a014b7704b7a49c5815de0f161779d8308b12",
    "averaged/payload.bin": "9193182ac5cf182bdc19541bc3434fd0e4128b31cbbbc1e68f262a6b1818c12f",
    "requantized/payload.bin": "1bc25acc05ae283ca7989cd70d25cf5f19238ecffedb3954a0ae3600e2215f05",
    "final_quantized/payload.bin":
        "5dee236d2c106d91376b0f7b8e49c2c270796291a3bb3b19b0c7e9ec83b0e623",
    **{f"capture_bank/entry_{k:03d}/payload.bin": digest for k, digest in enumerate([
        "28f64fc379df7eebf7aedc36b6ac946db4956409d9c2ad6aaf87009cf13aa632",
        "48b357c9e02f967668f00b1aa00d486da8a52763de89ca979e34fdb9cbc790b8",
        "3ddadf2772c4af0e7264cbb2f72f7b0adc671b81d5c15e9e28c6792fe03d5951",
        "f8db2882b2fcdd00bf1b0d77dd022fbbfd462ef72c5bd9af02992fa6adf21474",
        "da24a1ba3761ed17e59db221789361ef1673dc7baa2e294f1d77df60849c1b54",
        "e30f6a4620ee7b53fd936c7f1827e3f6bcc59ea7c29cf7154253b64d2727b722",
        "a7e2e7f6018ddad3e97a8046687e59882b96259da0da6673a6ba30bb1ab35c7e",
        "15cf413988fc666c1ebe62dc12a6463f2ba40d772d95ce000977001d07abd2ca",
        "6ee2be57d42b8a3a7578405f568267620e333b95ead44799f37824ec541a532b",
        "bea07736241562f233d7705474f7ab7764e6526d779de95b292d509e9953b788",
        "a61bcc9331eaf202347943fa79c8ad6f95cd0cb29b181e1762c0af63680f36f7",
        "3d6241c01b313740a02b6a0cfa15c334e01e23daa4b16634ae358b9f8d91eee5",
        "7b7e749c4ba03ab5b331e328870c410de7dd7b72a9c97c6ede77304cc3645529",
        "8e08ca1b26b82fb1a6cb8c64beea7fed5bdab71563f2f519e13a3988f167db93",
    ])},
}


@pytest.fixture(scope="module")
def default_run_101(tmp_path_factory):
    """The full default recipe at seed 101, with its SGD steps counted."""
    out = tmp_path_factory.mktemp("default101")
    with pytest.MonkeyPatch.context() as mp:
        steps = _count_calls(mp, sqwa.nn, "sgd_momentum_step")
        run_sqwa(default_config(out, seed=101))
    return out, len(steps)


def test_default_recipe_outputs_are_pinned(default_run_101):
    # The digests hold for OpenBLAS's Haswell and SkylakeX kernels. Under
    # its kernels without FMA (OPENBLAS_CORETYPE=Prescott or Sandybridge)
    # two evaluation losses in metrics.csv move by one ulp, and the float64
    # shadow weights of every capture differ in their last bits; summary.txt
    # and the other payloads still match. The 14 capture payloads also depend
    # on numpy's SIMD dispatch: float64 np.exp takes another loop under
    # AVX-512, and with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
    # X86_V4" (X86_V3 too) all 14 differ while every other file matches.
    out, _ = default_run_101
    written = {str(p.relative_to(out)) for p in out.rglob("payload.bin")} | \
        {"metrics.csv", "summary.txt"}
    assert written == set(DEFAULT_SEED_101)
    for rel, digest in DEFAULT_SEED_101.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel


def test_default_recipe_makes_20096_sgd_steps(default_run_101):
    # 157 batches in each of 40 pretrain, 84 cyclical and 4 fine-tune epochs
    assert default_run_101[1] == 157 * (40 + 84 + 4) == 20096


def test_retrain_evaluates_each_split_once_per_capture(tmp_path, monkeypatch, caplog):
    run_stages(_small_cfg(tmp_path), "quantize")
    evaluations = _count_calls(monkeypatch, sqwa.nn, "evaluate")
    with caplog.at_level(logging.INFO, logger="sqwa"):
        run_stages(_small_cfg(tmp_path), "retrain-cyclical")
    bank = sqwa.load(tmp_path / "capture_bank")
    assert len(evaluations) == 2 * len(bank) == 4
    messages = [r.getMessage() for r in caplog.records]
    assert f"retrain-cyclical: 2 captures banked at lr {0.0001:.2g}" in messages
    logged = [m for m in messages if "test accuracy" in m]
    assert logged == [f"retrain-cyclical: capture_bank epoch {e.epoch} "
                      f"test accuracy {e.metrics['test_accuracy']:.4f}" for e in bank.entries]


# --- one score per (model, split) -------------------------------------------------

# the splits each scored artifact records
SCORED = {"pretrained": ("test",), "direct_quantized": ("test",),
          "averaged": ("train", "test"), "requantized": ("train", "test"),
          "final_quantized": ("train", "test")}


@pytest.mark.parametrize("bits", [2, 4])
def test_every_recorded_score_is_evaluate_of_the_reloaded_artifact(tmp_path, bits):
    d = _small_dict(tmp_path)
    d["bits"] = bits
    cfg = RunConfig.from_dict(d)
    run_sqwa(cfg)
    data = dict(zip(("train", "test"), pipeline.build_datasets(cfg.resolve())))

    def scores(net, splits):
        out = {}
        for split in splits:
            out[f"{split}_loss"], out[f"{split}_accuracy"] = sqwa.evaluate(net, data[split])
        return out

    bank = sqwa.load(tmp_path / "capture_bank")
    assert len(bank) == 2
    for entry in bank.entries:
        assert entry.metrics == scores(entry.model.net, ("train", "test")), entry.epoch
    for artifact, splits in SCORED.items():
        recorded = ckpt.load_manifest(tmp_path / artifact)["provenance"]["metrics"]
        net = pipeline.as_network(sqwa.load(tmp_path / artifact))
        assert recorded == scores(net, splits), artifact
    assert _manifests(tmp_path) == {*SCORED, "capture_bank"}


def test_a_run_scores_each_model_and_split_once_and_the_report_none(tmp_path, monkeypatch):
    evaluations = _count_calls(monkeypatch, sqwa.nn, "evaluate")
    run_sqwa(_small_cfg(tmp_path))
    captures = len(sqwa.load(tmp_path / "capture_bank"))
    assert len(evaluations) == 2 * captures + 8 == 12
    evaluations.clear()
    run_stages(_small_cfg(tmp_path), "report")
    assert evaluations == []


def test_report_on_artifacts_without_recorded_scores_asks_for_a_fresh_directory(tmp_path):
    # Artifacts written before scores were recorded carry none in their
    # manifests; the report names the artifact instead of guessing.
    run_stages(_small_cfg(tmp_path), "finetune")
    for artifact in SCORED:
        path = tmp_path / artifact / "manifest.json"
        kept = path.read_text()
        manifest = json.loads(kept)
        del manifest["provenance"]["metrics"]
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(PipelineError, match=rf"^stage 'report': {artifact} records no "
                                                r"scores.*fresh output directory"):
            run_stages(_small_cfg(tmp_path), "report")
        path.write_text(kept)
    run_stages(_small_cfg(tmp_path), "report")


def test_run_directory_with_retrained_shadow_resumes_unchanged(tmp_path):
    # Earlier builds also wrote `retrained_shadow` (the last capture's shadow
    # model); such a directory must resume as if it were not there.
    fresh_dir, old_dir = tmp_path / "fresh", tmp_path / "old"
    run_sqwa(_small_cfg(fresh_dir))
    run_stages(_small_cfg(old_dir), "retrain-cyclical")
    last = sqwa.load(old_dir / "capture_bank").entries[-1]
    shadow = sqwa.ShadowModel(last.shadow, last.model.net, last.model.bits, last.model.steps)
    sqwa.save(shadow, old_dir / "retrained_shadow", provenance={"stage": "retrain-cyclical"})
    kept = (old_dir / "retrained_shadow" / "payload.bin").read_bytes()
    run_sqwa(_small_cfg(old_dir))
    assert (old_dir / "retrained_shadow" / "payload.bin").read_bytes() == kept
    for p in fresh_dir.rglob("payload.bin"):
        assert (old_dir / p.relative_to(fresh_dir)).read_bytes() == p.read_bytes()
    assert (old_dir / "metrics.csv").read_text() == (fresh_dir / "metrics.csv").read_text()


# --- CLI defaults ------------------------------------------------------------

def _default_cli_args(output_dir, *overrides):
    # the default recipe with no --config, on a small dataset
    args = ["--output-dir", str(output_dir), "--set", "dataset.samples_per_class=10",
            "--set", "dataset.test_samples_per_class=10"]
    for item in overrides:
        args += ["--set", item]
    return args


def test_cli_set_without_config_rederives_dependent_rates(tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, "pretrain.initial_lr=0.05")]) == 0
    frozen = json.loads((out / "config.json").read_text())
    # pretraining rates 0.05, 0.005, 0.0005: the cycle runs at a tenth of them
    assert frozen["cyclical"]["max_lr"] == pytest.approx(0.005)
    assert frozen["cyclical"]["min_lr"] == pytest.approx(0.00005)
    assert frozen["finetune"]["initial_lr"] == pytest.approx(0.0005)


def test_cli_set_dims_without_config_reshapes_default_network(tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, "dataset.dims=5")]) == 0
    frozen = json.loads((out / "config.json").read_text())
    assert frozen["network"]["input_shape"] == [5]
    assert sqwa.load(out / "pretrained").weights[0].shape == (24, 5)


# --- every bit width, whatever the averaged level sums need ---------------

@pytest.mark.parametrize("section, key, value, message", [
    ("finetune", "decay", 2, "need initial_lr > 0 and decay in (0, 1]"),
    ("finetune", "epochs", -1, "epochs must be >= 0"),
    ("finetune", "initial_lr", -0.1, "need initial_lr > 0 and decay in (0, 1]"),
    ("pretrain", "batch_size", 0, "batch_size must be >= 1"),
    ("pretrain", "momentum", 1.5, "momentum must be in [0, 1), got 1.5"),
    ("pretrain", "l2_scale", -1, "l2_scale must be >= 0, got -1"),
])
def test_a_training_setting_no_stage_accepts_is_rejected_at_resolve(tmp_path, section, key,
                                                                    value, message):
    # Each of these once failed only in the stage that used it, after the
    # stages before it had run and checkpointed.
    d = _small_dict(tmp_path / "run")
    d[section][key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig.from_dict(d).resolve()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sqwa(RunConfig.from_dict(d))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bits", [0, 9, -1])
def test_resolve_rejects_bits_outside_1_to_8(tmp_path, bits):
    d = _small_dict(tmp_path)
    d["bits"] = bits
    with pytest.raises(ValueError, match=rf"^bits must be an integer in 1\.\.8, got {bits}$"):
        RunConfig.from_dict(d).resolve()


# top level of each bit width: 1 for b = 1, else (2^b - 2) / 2; averaging n
# models sums levels up to n times it
TOP_LEVEL = {1: 1, 2: 1, 3: 3, 4: 7, 5: 15, 6: 31, 7: 63, 8: 127}


@pytest.mark.parametrize("bits", sorted(TOP_LEVEL))
def test_resolve_bounds_summed_levels_by_8_bit_storage(tmp_path, bits):
    # The smallest average whose level sums overflow 8 bits, n = 127 // top
    # level + 1 models, was once rejected at resolve time. It now resolves,
    # and the average of n captures at the top level round-trips through
    # 16-bit level storage.
    d = _small_dict(tmp_path)
    n = 127 // TOP_LEVEL[bits] + 1  # 128, 128, 43, 19, 9, 5, 3, 2
    d["bits"] = bits
    d["cyclical"]["epochs"] = 4 * n  # n captures
    d["average_last_n"] = n
    assert RunConfig.from_dict(d).resolve().average_last_n == n
    step = 0.3
    bank = CaptureBank(bits, [step])
    for k in range(n):
        net = Network((2,), [dense(2, 2)])
        net.weights[0] = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (TOP_LEVEL[bits] * step)
        bank.add(CaptureEntry(k, QuantizedModel(net, bits, [step]), net.copy(), {}))
    avg = average_models(bank, n)
    ckpt.save(avg, tmp_path / "avg")
    tensors = ckpt.load_manifest(tmp_path / "avg")["tensors"]
    assert [t["encoding"] for t in tensors] == ["i16", "f32"]
    back = ckpt.load(tmp_path / "avg")
    assert np.array_equal(back.net.weights[0], avg.net.weights[0])
    assert np.rint(np.abs(back.net.weights[0]).max() / (step / n)) == n * TOP_LEVEL[bits]


@pytest.mark.parametrize("bits", range(1, 9))
def test_every_accepted_bit_width_runs_end_to_end(tmp_path, bits):
    d = _small_dict(tmp_path)
    d.update(bits=bits, average_last_n=2)
    rows = run_sqwa(RunConfig.from_dict(d))["report"]
    avg = sqwa.load(tmp_path / "averaged")
    assert avg.count == d["average_last_n"]
    assert [r["bits"] for r in rows if r["label"] != "average"] == [bits] * (avg.count + 2)
    assert next(r for r in rows if r["label"] == "average")["bits"] == \
        effective_bits(avg.count, bits)


# --- the stage runner ----------------------------------------------------------

def _manifests(out: Path) -> set[str]:
    return {p.parent.name for p in out.glob("*/manifest.json")}


def test_each_stage_saves_exactly_its_declared_outputs(tmp_path):
    declared = []
    for name in pipeline.STAGES:
        before = _manifests(tmp_path)
        run_stages(_small_cfg(tmp_path), name)
        outputs = pipeline._STAGE_TABLE[name][2]
        assert _manifests(tmp_path) - before == set(outputs), name
        declared += outputs
    assert len(declared) == len(set(declared)) == 6


def test_the_stage_table_declares_the_splits_each_output_records():
    declared = {artifact: splits for _, _, outputs in pipeline._STAGE_TABLE.values()
                for artifact, splits in outputs.items()}
    assert declared == {**SCORED, "capture_bank": ("train", "test")}
    assert pipeline._STAGE_TABLE["report"][2] == {}


def _readme_stage_table():
    # (stage, inputs, outputs, scored splits) of each row of the README's
    # stage table, read from the text
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| stage | inputs | outputs | scored splits |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        stage, inputs, outputs, splits = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((stage, re.findall(r"`([^`]+)`", inputs), re.findall(r"`([^`]+)`", outputs),
                     () if splits == "none" else tuple(s.strip() for s in splits.split(","))))
    return rows


def test_the_readme_stage_table_matches_the_stage_table():
    rows = _readme_stage_table()
    assert [row[0] for row in rows] == pipeline.STAGES
    for stage, inputs, outputs, splits in rows:
        _, table_inputs, table_outputs = pipeline._STAGE_TABLE[stage]
        assert inputs == list(table_inputs), stage
        # the report saves no checkpoint; the README names the files it writes
        assert outputs == (list(table_outputs) or ["metrics.csv", "summary.txt"]), stage
        assert {splits} == (set(table_outputs.values()) or {()}), stage


@pytest.mark.parametrize("removed", ["requantized", "final_quantized"])
def test_missing_finetune_output_reruns_only_finetune(tmp_path, caplog, removed):
    run_stages(_small_cfg(tmp_path), "finetune")
    outputs = ("requantized", "final_quantized")
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}
    shutil.rmtree(tmp_path / removed)
    with caplog.at_level(logging.INFO, logger="sqwa"):
        run_stages(_small_cfg(tmp_path), "finetune")
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 7
    for stage, message in zip(pipeline.STAGES[:4], messages):
        assert message.startswith(f"{stage}: ") and message.endswith("skipping")
    assert messages[4].startswith("finetune: ") and "epochs" in messages[4]
    for artifact, message in zip(outputs, messages[5:]):
        assert message.startswith(f"finetune: {artifact} test accuracy ")
    for p, (data, mtime) in before.items():
        assert p.read_bytes() == data, p
        if p.relative_to(tmp_path).parts[0] not in outputs:
            assert p.stat().st_mtime_ns == mtime, p


@pytest.mark.parametrize("artifact, loader, last_written", [
    ("direct_quantized", "retrain-cyclical", "quantize"),
    ("capture_bank/entry_000", "average", "retrain-cyclical"),
    ("averaged", "finetune", "average"),
    ("final_quantized", "report", "finetune"),
])
def test_corrupt_input_is_an_error_of_the_stage_that_loads_it(tmp_path, artifact, loader,
                                                             last_written):
    run_stages(_small_cfg(tmp_path), last_written)
    payload = tmp_path / artifact / "payload.bin"
    raw = bytearray(payload.read_bytes())
    raw[3] ^= 0xFF
    payload.write_bytes(bytes(raw))
    with pytest.raises(PipelineError, match=f"stage '{loader}': .*checksum mismatch"):
        run_sqwa(_small_cfg(tmp_path))


@pytest.mark.parametrize("stage, marker", [
    ("pretrain", '"kind": "network"'),
    ("retrain-cyclical", '"kind": "capture-bank"'),
])
def test_manifest_torn_mid_write_makes_the_stage_run_again(tmp_path, monkeypatch, stage,
                                                          marker):
    # A crash while a manifest is written must not leave a directory that a
    # later run takes for a finished stage.
    fresh_dir, torn_dir = tmp_path / "fresh", tmp_path / "torn"
    run_sqwa(_small_cfg(fresh_dir))
    if stage != "pretrain":
        run_stages(_small_cfg(torn_dir), pipeline.STAGES[pipeline.STAGES.index(stage) - 1])
    write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        if marker in data:
            write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_text", torn)
        with pytest.raises(PipelineError, match=f"stage '{stage}': no space left"):
            run_stages(_small_cfg(torn_dir), stage)
    run_sqwa(_small_cfg(torn_dir))
    assert not list(torn_dir.rglob("manifest.json.tmp"))
    for p in fresh_dir.rglob("*"):
        if p.is_file() and p.name != "config.json":
            assert (torn_dir / p.relative_to(fresh_dir)).read_bytes() == p.read_bytes(), p


def test_config_torn_mid_write_does_not_block_later_runs(tmp_path, monkeypatch):
    # A crash while config.json is written must leave no torn file that
    # every later run of the directory fails to parse.
    write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        if self.name.startswith("config.json"):
            write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="no space left"):
            run_stages(_small_cfg(tmp_path), "pretrain")
    run_stages(_small_cfg(tmp_path), "pretrain")
    frozen = json.loads((tmp_path / "config.json").read_text())
    assert frozen == json.loads(json.dumps(_small_cfg(tmp_path).resolve().to_dict()))
    assert not list(tmp_path.glob("config.json.tmp"))


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("target", [
    "final_quantized/payload.bin",              # a checkpoint payload and
    "final_quantized/manifest.json.tmp",        # manifest, the stage's last
    "capture_bank/entry_001/payload.bin",       # a capture-bank entry's payload
    "capture_bank/entry_001/manifest.json.tmp",  # and its manifest
    "config.json.tmp",
    "metrics.csv.tmp",
    "summary.txt.tmp",
])
def test_a_failed_write_of_each_kind_reruns_to_the_files_of_an_uninterrupted_run(
        tmp_path, monkeypatch, target):
    # The write of `target` stops halfway with an OSError, once; rerunning
    # the recipe must leave exactly the files a run without the fault left.
    run_dir = tmp_path / "run"
    run_sqwa(_small_cfg(run_dir))
    expected = _files(run_dir)
    shutil.rmtree(run_dir)
    fired = []

    def failing(write):
        def write_once(self, data, *args, **kwargs):
            if not fired and self == run_dir / target:
                fired.append(self)
                write(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("no space left on device")
            return write(self, data, *args, **kwargs)
        return write_once

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_bytes", failing(Path.write_bytes))
        mp.setattr(Path, "write_text", failing(Path.write_text))
        with pytest.raises((PipelineError, OSError), match="no space left on device"):
            run_sqwa(_small_cfg(run_dir))
    assert fired == [run_dir / target]
    run_sqwa(_small_cfg(run_dir))
    assert _files(run_dir) == expected


def test_a_payload_torn_in_a_rewrite_is_not_vouched_for_by_its_old_manifest(tmp_path,
                                                                           monkeypatch):
    # With requantized gone, the finetune stage rewrites both of its outputs;
    # a write of final_quantized's payload that stops halfway must not leave
    # its old manifest in place, which would make the next run skip the
    # stage and keep the torn payload.
    run_dir = tmp_path / "run"
    run_sqwa(_small_cfg(run_dir))
    expected = _files(run_dir)
    (run_dir / "requantized" / "manifest.json").unlink()
    write_bytes = Path.write_bytes

    def torn(self, data):
        if self == run_dir / "final_quantized" / "payload.bin":
            write_bytes(self, data[:len(data) // 2])
            raise OSError("no space left on device")
        return write_bytes(self, data)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_bytes", torn)
        with pytest.raises(PipelineError, match="stage 'finetune': no space left"):
            run_sqwa(_small_cfg(run_dir))
    run_sqwa(_small_cfg(run_dir))
    assert _files(run_dir) == expected


@pytest.mark.parametrize("name", ["metrics.csv", "summary.txt"])
def test_a_report_rewrite_torn_halfway_keeps_the_previous_file(tmp_path, monkeypatch, name):
    run_sqwa(_small_cfg(tmp_path))
    before = (tmp_path / name).read_bytes()
    write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        if self.name.startswith(name):
            write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_text", torn)
        with pytest.raises(PipelineError, match="stage 'report': no space left"):
            run_sqwa(_small_cfg(tmp_path))
    assert (tmp_path / name).read_bytes() == before


# --- a dead or diverged model stops its stage ------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("initial_lr, fault", [
    # the weights decay below float32 while the first-layer biases blow up,
    # so the checkpoint would hold an all-zero layer with no quantizer step
    (50, r"epoch 14: layer 0 \(dense\) weights are all zero at float32 precision"),
    (1e6, r"epoch 0: layer 0 \(dense\) holds non-finite parameters"),
])
def test_a_dead_or_diverged_pretrain_fails_its_stage_and_saves_nothing(tmp_path, initial_lr,
                                                                       fault):
    # the default recipe at seed 5, as `sqwa sqwa --set pretrain.initial_lr=...` builds it
    d = RunConfig(seed=5, output_dir=str(tmp_path)).to_dict()
    d["pretrain"]["initial_lr"] = initial_lr
    with pytest.raises(PipelineError, match=rf"^stage 'pretrain': {fault}"):
        run_sqwa(RunConfig.from_dict(d))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pretrained_model_with_input_blind_logits_fails_its_stage(tmp_path):
    # The same failure stopped after 10 epochs: the weights shrink to about
    # 1.6e-20, nonzero at float32, while the first-layer biases reach about
    # 2.6e6, so every sample gets the same logits and every later row would
    # report chance accuracy.
    d = RunConfig(seed=5, output_dir=str(tmp_path)).to_dict()
    d["pretrain"].update(initial_lr=50, epochs=10, milestones=[5, 8])
    with pytest.raises(PipelineError, match=r"^stage 'pretrain': the pretrained model "
                                            r"gives the same logits for all 256 probe samples"):
        run_sqwa(RunConfig.from_dict(d))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_input_blind_check_skips_identical_probe_samples():
    # weights zero and biases not: the logits are the biases for any input
    specs = [sqwa.nn.dense(4, 3)]
    net = Network((4,), specs)
    net.biases[0] = [0.5, -1.0, 2.0]
    same = Dataset(np.ones((300, 4)), np.zeros(300, dtype=np.int64), 3)
    pipeline._check_responsive(net, same)
    varied = Dataset(np.arange(1200.0).reshape(300, 4), np.zeros(300, dtype=np.int64), 3)
    with pytest.raises(ValueError, match="same logits for all 256 probe samples"):
        pipeline._check_responsive(net, varied)
    net.weights[0] = np.eye(3, 4)
    pipeline._check_responsive(net, varied)


# --- a diverged model is never checkpointed ----------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pretrained_model_beyond_float32_range_fails_its_stage_and_saves_nothing(tmp_path):
    # Its float64 weights stay finite, so fit's guard passes, but they lie
    # beyond float32 range and would reload as inf; the quantize stage would
    # then fail on a checkpoint the pretrain stage should never have written.
    d = RunConfig(seed=259, output_dir=str(tmp_path)).to_dict()
    d.update(bits=3, average_last_n=1)
    d["dataset"].update(num_classes=3, samples_per_class=2, test_samples_per_class=1, dims=5,
                        spread=1e-9)
    d["pretrain"].update(epochs=6, initial_lr=2.0, milestones=[1], batch_size=1,
                         decay_factor=0.999999, l2_scale=10)
    d["cyclical"].update(period=5, mid_steps=2, epochs=11)
    with pytest.raises(PipelineError, match=r"^stage 'pretrain': layer0\.weight: holds values "
                                            r"that are not finite as f32"):
        run_sqwa(RunConfig.from_dict(d))
    assert not list(tmp_path.rglob("manifest.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# --- every generated config is rejected, runs, or fails one stage cleanly ------------

def _reloaded_arrays(obj):
    # the parameter buffers of a reloaded artifact; a bank's entries are
    # checkpoints of their own
    if isinstance(obj, CaptureBank):
        return []
    if isinstance(obj, ShadowModel):
        return [obj.shadow.flat, obj.applied.flat]
    return [pipeline.as_network(obj).flat]


@pytest.fixture(scope="module")
def chw_idx_dataset(tmp_path_factory):
    """An IDX dataset config of 12 train and 12 test 6x6 images of 3
    classes, loaded as (N, 1, 6, 6); the files are written once."""
    from sqwa.data import write_idx
    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(13)
    files = {}
    for split in ("train", "test"):
        files[f"{split}_images"] = str(root / f"{split}-images.idx")
        files[f"{split}_labels"] = str(root / f"{split}-labels.idx")
        write_idx(files[f"{split}_images"], rng.integers(0, 256, size=(12, 6, 6)))
        write_idx(files[f"{split}_labels"], np.arange(12) % 3)
    return {"kind": "idx", "layout": "chw", **files}


def _drawn_network(arch, depth, widths, kernels, biases, dims, classes):
    # "dense": `depth` dense layers from `dims` inputs through widths to
    # `classes` logits, relu between; "conv": up to two conv2d + relu layers
    # over the IDX images, then flatten and a dense layer to their 3
    # classes. biases[i] is whether weighted layer i has a bias.
    if arch == "dense":
        sizes = [dims, *widths[:depth - 1], classes]
        layers = []
        for i in range(depth):
            if i:
                layers.append({"kind": "relu"})
            layers.append(_dense(sizes[i], sizes[i + 1], has_bias=biases[i]))
        return {"input_shape": [dims], "layers": layers}
    channels, side, layers = 1, 6, []
    for i, (out_c, k) in enumerate(zip(widths[:min(depth, 2)], kernels)):
        layers += [{"kind": "conv2d", "in_channels": channels, "out_channels": out_c,
                    "kernel_size": k, "has_bias": biases[i]}, {"kind": "relu"}]
        channels, side = out_c, side - k + 1
    return {"input_shape": [1, 6, 6],
            "layers": [*layers, {"kind": "flatten"},
                       _dense(channels * side * side, 3, has_bias=biases[-1])]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(arch=st.sampled_from(["default", "dense", "conv"]), depth=st.integers(1, 3),
       widths=st.lists(st.integers(1, 6), min_size=2, max_size=2),
       kernels=st.lists(st.integers(1, 3), min_size=2, max_size=2),
       biases=st.lists(st.booleans(), min_size=3, max_size=3),
       bits=st.integers(1, 9), average_last_n=st.integers(1, 3), period=st.integers(3, 5),
       mid_steps=st.integers(1, 2), captures=st.integers(1, 3), extra_epochs=st.integers(0, 2),
       pre_epochs=st.integers(1, 6), ft_epochs=st.integers(0, 2),
       initial_lr=st.sampled_from([1e-3, 0.1, 2.0, 50.0, 1e6]),
       milestones=st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
       decay=st.sampled_from([0.1, 0.999999]), l2_scale=st.sampled_from([0.0, 5e-4, 10.0]),
       batch_size=st.integers(1, 12), classes=st.integers(2, 4), samples=st.integers(1, 6),
       dims=st.integers(1, 4), spread=st.sampled_from([1e-9, 0.3, 3.0]),
       seed=st.integers(0, 999))
def test_a_generated_config_is_rejected_or_runs_or_fails_a_stage_cleanly(
        chw_idx_dataset, arch, depth, widths, kernels, biases, bits, average_last_n, period,
        mid_steps, captures, extra_epochs, pre_epochs, ft_epochs, initial_lr, milestones, decay,
        l2_scale, batch_size, classes, samples, dims, spread, seed):
    # resolve() rejects an average of more models than the captures, a
    # period too short for its ladder, bits 9 and too few dims for the
    # classes. The network is the default, a drawn dense stack on the blobs,
    # or a drawn conv stack on the IDX images.
    cyc_epochs = captures * period + extra_epochs
    with tempfile.TemporaryDirectory() as out:
        d = {"seed": seed, "output_dir": out, "bits": bits, "average_last_n": average_last_n,
             "dataset": {"num_classes": classes, "samples_per_class": samples,
                         "test_samples_per_class": samples, "dims": dims, "spread": spread},
             "pretrain": {"epochs": pre_epochs, "initial_lr": initial_lr,
                          "milestones": sorted(milestones), "decay_factor": decay,
                          "l2_scale": l2_scale, "batch_size": batch_size},
             "cyclical": {"epochs": cyc_epochs, "period": period, "mid_steps": mid_steps},
             "finetune": {"epochs": ft_epochs}}
        if arch == "conv":
            d["dataset"] = chw_idx_dataset
        if arch != "default":
            d["network"] = _drawn_network(arch, depth, widths, kernels, biases, dims, classes)
        try:
            cfg = RunConfig.from_dict(d).resolve()
        except ValueError:
            return
        try:
            result = run_sqwa(cfg)
        except PipelineError as exc:
            assert re.match(r"(stage '(pretrain|quantize|retrain-cyclical|average|finetune|"
                            r"report)'|datasets): ", str(exc)), str(exc)
        else:
            assert result["report"] and (Path(out) / "summary.txt").is_file()
        for manifest in Path(out).rglob("manifest.json"):
            for flat in _reloaded_arrays(ckpt.load(manifest.parent)):
                assert np.isfinite(flat).all(), manifest.parent.name


# --- a dataset that cannot be built leaves the directory usable ----------------------

@pytest.mark.parametrize("key, value, message", [
    ("dims", 1, "3 classes need dims >= 2"),
    ("spread", 0, "need num_classes >= 2, samples_per_class >= 1, dims >= 1, spread > 0"),
    ("samples_per_class", 0, "need num_classes >= 2"),
    ("test_samples_per_class", 0, "need num_classes >= 2"),
])
def test_blob_settings_the_generator_refuses_are_rejected_at_resolve(tmp_path, key, value,
                                                                     message):
    d = _small_dict(tmp_path)
    d["dataset"][key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict(d).resolve()


@pytest.mark.parametrize("key", ["train_seed", "test_seed"])
def test_a_negative_dataset_seed_is_rejected_at_resolve_by_name(tmp_path, capsys, key):
    d = _small_dict(tmp_path / "run")
    d["dataset"][key] = -3
    with pytest.raises(ValueError, match=rf"^dataset\.{key} must be non-negative$"):
        RunConfig.from_dict(d).resolve()
    assert main(["pretrain", *_default_cli_args(tmp_path / "run", f"dataset.{key}=-3")]) == 1
    assert capsys.readouterr().err == f"error: dataset.{key} must be non-negative\n"
    assert not (tmp_path / "run").exists()


def test_a_bad_dataset_setting_leaves_no_config_behind(tmp_path, capsys):
    # Once `--set dataset.dims=2` (10 classes) failed after config.json was
    # frozen, and the corrected rerun was refused for a different config.
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, "dataset.dims=2")]) == 1
    assert "error: 10 classes need dims >= 5" in capsys.readouterr().err
    assert not out.exists()
    assert main(["pretrain", *_default_cli_args(out)]) == 0
    assert (out / "pretrained" / "manifest.json").is_file()


def _dense(fan_in, fan_out, **extra):
    return {"kind": "dense", "fan_in": fan_in, "fan_out": fan_out, **extra}


def _idx_dict(tmp_path):
    """A small run in tmp_path / "run" on IDX files of 30 4x4 images of 3
    classes per split, with a dense 16 -> 3 network."""
    from sqwa.data import write_idx
    rng = np.random.default_rng(12)
    files = {}
    for split in ("train", "test"):
        files[f"{split}_images"] = tmp_path / f"{split}-images.idx"
        files[f"{split}_labels"] = tmp_path / f"{split}-labels.idx"
        write_idx(files[f"{split}_images"], rng.integers(0, 256, size=(30, 4, 4)))
        write_idx(files[f"{split}_labels"], np.arange(30) % 3)
    d = _small_dict(tmp_path / "run")
    d["dataset"] = {"kind": "idx", **{k: str(v) for k, v in files.items()}}
    d["network"] = {"input_shape": [16], "layers": [_dense(16, 3)]}
    return d


@pytest.mark.parametrize("value", [None, ""])
@pytest.mark.parametrize("key", ["train_images", "train_labels", "test_images", "test_labels"])
def test_an_idx_dataset_without_a_path_is_rejected_at_resolve_by_name(tmp_path, key, value):
    d = _idx_dict(tmp_path)
    d["dataset"][key] = value
    with pytest.raises(ValueError, match=rf"^dataset\.{key}: an idx dataset needs a path$"):
        RunConfig.from_dict(d).resolve()


def test_an_idx_dataset_with_no_paths_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    network = json.dumps({"input_shape": [16], "layers": [_dense(16, 3)]})
    assert main(["pretrain", "--output-dir", str(out), "--set", "dataset.kind=idx",
                 "--set", f"network={network}"]) == 1
    assert capsys.readouterr().err == \
        "error: dataset.train_images: an idx dataset needs a path\n"
    assert not out.exists()


@pytest.mark.parametrize("normalize", [True, False])
def test_both_idx_splits_are_scaled_by_the_train_split_statistics(tmp_path, normalize):
    # test pixels from another range than the train pixels, so that the two
    # splits' own statistics differ
    from sqwa.data import read_idx, write_idx
    d = _idx_dict(tmp_path)
    d["dataset"]["normalize"] = normalize
    write_idx(d["dataset"]["test_images"],
              np.random.default_rng(13).integers(200, 256, size=(30, 4, 4)))
    train, test = pipeline.build_datasets(RunConfig.from_dict(d).resolve())
    raw = {split: read_idx(d["dataset"][f"{split}_images"]).astype(np.float64).reshape(30, 16)
           for split in ("train", "test")}
    mean, std = (raw["train"].mean(), raw["train"].std()) if normalize else (0.0, 1.0)
    np.testing.assert_array_equal(train.images, (raw["train"] - mean) / std)
    np.testing.assert_array_equal(test.images, (raw["test"] - mean) / std)


def test_an_idx_dataset_of_an_unknown_layout_is_rejected_at_resolve_by_name(tmp_path):
    d = _idx_dict(tmp_path)
    d["dataset"]["layout"] = "hwc"
    with pytest.raises(ValueError,
                       match=r"^dataset\.layout: expected 'flat' or 'chw', got 'hwc'$"):
        RunConfig.from_dict(d).resolve()


def test_a_missing_idx_file_is_a_pipeline_error_that_leaves_no_config_behind(tmp_path):
    d = _idx_dict(tmp_path)
    missing = dict(d, dataset=dict(d["dataset"], test_labels=str(tmp_path / "nothing.idx")))
    with pytest.raises(PipelineError, match=r"^datasets: .*nothing\.idx"):
        run_stages(RunConfig.from_dict(missing), "pretrain")
    assert not (tmp_path / "run").exists()
    run_stages(RunConfig.from_dict(d), "pretrain")
    assert (tmp_path / "run" / "pretrained" / "manifest.json").is_file()


# (dims, network, message) of blob configs that cannot run; the data have
# 10 classes. A network is refused before config.json is written, naming
# the layer at fault, so the corrected config then runs in the same place.
_NETWORK_PROBES = {
    "fan_in": (8, {"input_shape": [8], "layers": [_dense(7, 24), {"kind": "relu"},
                                                  _dense(24, 10)]},
               r"^layer 0 \(dense\): fan_in 7 does not match input width 8$"),
    "input width": (8, {"input_shape": [7], "layers": [_dense(7, 24), {"kind": "relu"},
                                                       _dense(24, 10)]},
                    r"^layer 0 \(dense\): takes input_shape \[7\], but the train samples "
                    r"have shape \[8\]$"),
    "class count": (8, {"input_shape": [8], "layers": [_dense(8, 24), {"kind": "relu"},
                                                       _dense(24, 5)]},
                    r"^layer 2 \(dense\): gives 5 logits for the 10 classes of the train "
                    r"split$"),
    "unknown key": (8, {"input_shape": [8], "layers": [_dense(8, 10, bias=False)]},
                    r"^network layer 0: unknown keys \['bias'\]$"),
    "missing kind": (8, {"input_shape": [8], "layers": [{"fan_in": 8, "fan_out": 10}]},
                     r"^network layer 0: .*missing 1 required .*'kind'$"),
    "no weights": (10, {"input_shape": [10], "layers": [{"kind": "relu"}]},
                   r"^network: none of its layers \(relu\) carries weights"),
}


@pytest.mark.parametrize("probe", list(_NETWORK_PROBES))
def test_a_network_that_cannot_run_is_refused_before_config_json(tmp_path, probe):
    dims, network, message = _NETWORK_PROBES[probe]
    d = _small_dict(tmp_path / "run")
    d["dataset"].update(num_classes=10, dims=dims)
    with pytest.raises(ValueError, match=message):
        run_stages(RunConfig.from_dict(dict(d, network=network)), "pretrain")
    assert not (tmp_path / "run").exists()
    run_sqwa(RunConfig.from_dict(d))
    assert (tmp_path / "run" / "summary.txt").is_file()


# (network, message) of network fields of the wrong type or missing, each
# once a traceback, a stage error after config.json, or a bias trained anyway
_NETWORK_TYPE_PROBES = {
    "input_shape int": ({"input_shape": 8, "layers": [_dense(8, 10)]},
                        "input_shape must be a list of integers >= 1, got 8"),
    "fan_out str": ({"input_shape": [8], "layers": [_dense(8, "10")]},
                    "network layer 0: dense fan_out must be an integer >= 1, got '10'"),
    "fan_in float": ({"input_shape": [8], "layers": [_dense(8.0, 10)]},
                     "network layer 0: dense fan_in must be an integer >= 1, got 8.0"),
    "has_bias str": ({"input_shape": [8], "layers": [_dense(8, 10, has_bias="no")]},
                     "network layer 0: has_bias must be true or false, got 'no'"),
    "fan_out missing": ({"input_shape": [8], "layers": [{"kind": "dense", "fan_in": 8}]},
                        "network layer 0: dense fan_out must be an integer >= 1, got None"),
    # fields the layer's kind does not take, once frozen into config.json
    "dense kernel_size": ({"input_shape": [8], "layers": [_dense(8, 10, kernel_size="x")]},
                          "network layer 0: dense does not take kernel_size, got 'x'"),
    "relu fan_out": ({"input_shape": [8], "layers": [{"kind": "relu", "fan_out": 3},
                                                     _dense(8, 10)]},
                     "network layer 0: relu does not take fan_out, got 3"),
    "flatten has_bias": ({"input_shape": [8], "layers": [_dense(8, 10),
                                                         {"kind": "flatten", "has_bias": False}]},
                         "network layer 1: flatten does not take has_bias, got False"),
}


@pytest.mark.parametrize("probe", list(_NETWORK_TYPE_PROBES))
def test_a_network_field_of_the_wrong_type_is_an_error_line_before_config_json(
        tmp_path, capsys, probe):
    network, message = _NETWORK_TYPE_PROBES[probe]
    out = tmp_path / "run"
    args = _default_cli_args(out, "dataset.samples_per_class=5",
                             "dataset.test_samples_per_class=5", f"network={json.dumps(network)}")
    assert main(["pretrain", *args]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_numpy_integer_sizes_resolve_to_a_json_config(tmp_path):
    d = _small_dict(tmp_path / "run")
    d["network"] = {"input_shape": [np.int64(4)],
                    "layers": [_dense(np.int64(4), np.int32(3), has_bias=False)]}
    cfg = RunConfig.from_dict(d).resolve()
    assert json.loads(json.dumps(cfg.network)) == {
        "input_shape": [4], "layers": [_dense(4, 3, has_bias=False)]}


# (override, message) of config fields outside the network of the wrong
# type, each once run as given, a traceback, or a config.json frozen by a
# stage that could not use it
_FIELD_TYPE_PROBES = {
    "bits bool": ("bits=true", "config.bits: expected an integer, got True"),
    "average_last_n bool": ("average_last_n=true",
                            "config.average_last_n: expected an integer, got True"),
    "average_last_n str": ('average_last_n="2"',
                           "config.average_last_n: expected an integer, got '2'"),
    "seed float": ("seed=1.5", "config.seed: expected an integer, got 1.5"),
    "epochs str": ('pretrain.epochs="4"', "pretrain.epochs: expected an integer, got '4'"),
    "momentum str": ('pretrain.momentum="x"', "pretrain.momentum: expected a finite number, got 'x'"),
    "batch_size float": ("pretrain.batch_size=8.5",
                         "pretrain.batch_size: expected an integer, got 8.5"),
    "milestones int": ("pretrain.milestones=5",
                       "pretrain.milestones: expected a list of integers, got 5"),
    "period float": ("cyclical.period=4.5", "cyclical.period: expected an integer, got 4.5"),
    "max_lr str": ('cyclical.max_lr="x"', "cyclical.max_lr: expected a finite number, got 'x'"),
    "finetune epochs float": ("finetune.epochs=1.5",
                              "finetune.epochs: expected an integer, got 1.5"),
    "dims str": ('dataset.dims="8"', "dataset.dims: expected an integer, got '8'"),
    "spread str": ('dataset.spread="x"', "dataset.spread: expected a finite number, got 'x'"),
    "normalize str": ('dataset.normalize="no"',
                      "dataset.normalize: expected true or false, got 'no'"),
    # non-finite numbers, once frozen into config.json (or misreported) and
    # then fatal in a stage
    "l2_scale inf": ("pretrain.l2_scale=Infinity",
                     "pretrain.l2_scale: expected a finite number, got inf"),
    "l2_scale nan": ("pretrain.l2_scale=NaN", "pretrain.l2_scale: expected a finite number, got nan"),
    "l2_scale too large": (f"pretrain.l2_scale={10 ** 400}",
                           f"pretrain.l2_scale: expected a finite number, got {10 ** 400}"),
    "initial_lr inf": ("pretrain.initial_lr=Infinity",
                       "pretrain.initial_lr: expected a finite number, got inf"),
    "finetune initial_lr inf": ("finetune.initial_lr=Infinity",
                                "finetune.initial_lr: expected a finite number, got inf"),
    "finetune initial_lr nan": ("finetune.initial_lr=NaN",
                                "finetune.initial_lr: expected a finite number, got nan"),
    "max_lr inf": ("cyclical.max_lr=Infinity", "cyclical.max_lr: expected a finite number, got inf"),
    "spread inf": ("dataset.spread=Infinity", "dataset.spread: expected a finite number, got inf"),
    "spread nan": ("dataset.spread=NaN", "dataset.spread: expected a finite number, got nan"),
}


@pytest.mark.parametrize("probe", list(_FIELD_TYPE_PROBES))
def test_a_config_field_of_the_wrong_type_is_an_error_line_before_config_json(
        tmp_path, capsys, probe):
    override, message = _FIELD_TYPE_PROBES[probe]
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, override)]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_ints_for_numbers_and_numpy_scalars_resolve_to_a_json_config(tmp_path):
    d = _small_dict(tmp_path / "run")
    d.update(seed=np.int64(7), bits=np.int32(2))
    d["dataset"]["spread"] = 1
    d["pretrain"].update(initial_lr=np.float32(0.25), milestones=[np.int64(2), 4])
    frozen = json.loads(json.dumps(RunConfig.from_dict(d).resolve().to_dict()))
    assert (frozen["seed"], frozen["bits"], frozen["dataset"]["spread"]) == (7, 2, 1)
    assert (frozen["pretrain"]["initial_lr"], frozen["pretrain"]["milestones"]) == (0.25, [2, 4])


@pytest.mark.parametrize("overrides, message", [
    (["bits.x=1"], "override 'bits.x=1': bits holds 2, not a mapping"),
    (["dataset=null", "dataset.dims=5"],
     "override 'dataset.dims=5': dataset holds None, not a mapping"),
])
def test_an_override_through_a_value_that_is_not_a_mapping_is_an_error_line(
        tmp_path, capsys, overrides, message):
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, *overrides)]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_an_idx_network_that_does_not_fit_is_refused_before_config_json(tmp_path):
    d = _idx_dict(tmp_path)
    for network, message in (
            ({"input_shape": [9], "layers": [_dense(9, 3)]},
             r"^layer 0 \(dense\): takes input_shape \[9\], but the train samples have "
             r"shape \[16\]$"),
            ({"input_shape": [16], "layers": [_dense(16, 2)]},
             r"^layer 0 \(dense\): gives 2 logits for the 3 classes of the train split$")):
        with pytest.raises(ValueError, match=message):
            run_stages(RunConfig.from_dict(dict(d, network=network)), "pretrain")
        assert not (tmp_path / "run").exists()
    run_stages(RunConfig.from_dict(d), "pretrain")
    assert (tmp_path / "run" / "pretrained" / "manifest.json").is_file()
