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
                "averaged", "requantized", "final", "final_quantized"):
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
    payload = result["paths"]["final"] / "payload.bin"
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
    assert fresh == resumed and len(fresh) >= 8
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


def test_cli_losscape_rejects_mixed_grids(tmp_path):
    out = tmp_path / "run"
    assert main(["sqwa", *_cli_args(out)]) == 0
    # `final` was re-quantized with fresh steps, so its grid differs
    code = main(["losscape", *_cli_args(out),
                 "--models", str(out / "capture_bank" / "entry_000"),
                 str(out / "capture_bank" / "entry_001"),
                 str(out / "final"),
                 "--mode", "quantized", "--resolution", "3",
                 "--out", str(out / "s.csv")])
    assert code == 1


def test_cli_bad_override_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pretrain", *_cli_args(out), "--set", "pretrain.nope=1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_checkpoint_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["eval", *_cli_args(out), "--checkpoint", str(out / "nothing")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
    "final/payload.bin": "39a949cb299dc619e445e8171bb6d3a4b2d19711d8673995bdd300fae5291792",
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
    # shadow weights of `final` and of every capture differ in their last
    # bits; summary.txt and the other payloads still match.
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
    logged = [r.getMessage() for r in caplog.records if "test accuracy" in r.getMessage()]
    assert logged == [f"retrain-cyclical: epoch {e.epoch}, lr {0.0001:.2g}, "
                      f"test accuracy {e.metrics['test_accuracy']:.4f}" for e in bank.entries]


# --- one score per (model, split) -------------------------------------------------

# the splits each scored artifact records; `final` is scored as `final_quantized`
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
    assert "metrics" not in ckpt.load_manifest(tmp_path / "final")["provenance"]


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
    run_sqwa(_small_cfg(tmp_path))
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
        net = Network((2,), [dense(2, 2)],
                      [np.array([[1.0, -1.0], [-1.0, 1.0]]) * (TOP_LEVEL[bits] * step)],
                      [np.zeros(2)])
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
    assert len(declared) == len(set(declared)) == 7


@pytest.mark.parametrize("removed", ["requantized", "final", "final_quantized"])
def test_missing_finetune_output_reruns_only_finetune(tmp_path, caplog, removed):
    run_stages(_small_cfg(tmp_path), "finetune")
    outputs = ("requantized", "final", "final_quantized")
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}
    shutil.rmtree(tmp_path / removed)
    with caplog.at_level(logging.INFO, logger="sqwa"):
        run_stages(_small_cfg(tmp_path), "finetune")
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 5
    for stage, message in zip(pipeline.STAGES[:4], messages):
        assert message.startswith(f"{stage}: ") and message.endswith("skipping")
    assert messages[4].startswith("finetune: ") and "test accuracy" in messages[4]
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
    net = sqwa.nn.zero_network(specs, (4,))
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(bits=st.integers(1, 9), average_last_n=st.integers(1, 3), period=st.integers(3, 5),
       mid_steps=st.integers(1, 2), captures=st.integers(1, 3), extra_epochs=st.integers(0, 2),
       pre_epochs=st.integers(1, 6), ft_epochs=st.integers(0, 2),
       initial_lr=st.sampled_from([1e-3, 0.1, 2.0, 50.0, 1e6]),
       milestones=st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
       decay=st.sampled_from([0.1, 0.999999]), l2_scale=st.sampled_from([0.0, 5e-4, 10.0]),
       batch_size=st.integers(1, 12), classes=st.integers(2, 4), samples=st.integers(1, 6),
       dims=st.integers(1, 4), spread=st.sampled_from([1e-9, 0.3, 3.0]),
       seed=st.integers(0, 999))
def test_a_generated_config_is_rejected_or_runs_or_fails_a_stage_cleanly(
        bits, average_last_n, period, mid_steps, captures, extra_epochs, pre_epochs, ft_epochs,
        initial_lr, milestones, decay, l2_scale, batch_size, classes, samples, dims, spread,
        seed):
    # resolve() rejects an average of more models than the captures, a
    # period too short for its ladder, bits 9 and too few dims for the classes
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


def test_a_bad_dataset_setting_leaves_no_config_behind(tmp_path, capsys):
    # Once `--set dataset.dims=2` (10 classes) failed after config.json was
    # frozen, and the corrected rerun was refused for a different config.
    out = tmp_path / "run"
    assert main(["pretrain", *_default_cli_args(out, "dataset.dims=2")]) == 1
    assert "error: 10 classes need dims >= 5" in capsys.readouterr().err
    assert not out.exists()
    assert main(["pretrain", *_default_cli_args(out)]) == 0
    assert (out / "pretrained" / "manifest.json").is_file()


def test_a_missing_idx_file_is_a_pipeline_error_that_leaves_no_config_behind(tmp_path):
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
    d["network"] = {"input_shape": [16], "layers": [{"kind": "dense", "fan_in": 16,
                                                     "fan_out": 3}]}
    missing = dict(d, dataset=dict(d["dataset"], test_labels=str(tmp_path / "nothing.idx")))
    with pytest.raises(PipelineError, match=r"^datasets: .*nothing\.idx"):
        run_stages(RunConfig.from_dict(missing), "pretrain")
    assert not (tmp_path / "run").exists()
    run_stages(RunConfig.from_dict(d), "pretrain")
    assert (tmp_path / "run" / "pretrained" / "manifest.json").is_file()
