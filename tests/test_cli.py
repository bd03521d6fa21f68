"""Command-line interface: exit codes, config/flag precedence, pipelines,
and help text."""

import argparse
import csv
import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest

from poolnet.checkpoint import load_checkpoint, save_checkpoint
from poolnet.cli import build_parser, main
from poolnet.config import CONFIG_FIELDS, ModelConfig, RunConfig, TrainConfig
from poolnet.data import load_manifest, load_map, write_manifest
from poolnet.model import SaliencyNet, build_model, model_from_checkpoint, save_model_with_config
from poolnet.train import train_model

DATA_DIR = Path(__file__).parent / "data"

MICRO_MODEL = ["--backbone-widths", "4,6,6,8,8", "--ppm-sizes", "2",
               "--fam-rates", "2,4"]
QUICK_TRAIN = ["--epochs", "1", "--lr-drop-epoch", "0", "--seed", "0"]


@pytest.fixture(scope="module")
def sal_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_sal")
    assert main(["synth", "--kind", "saliency", "--count", "4", "--size", "32",
                 "--output-dir", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, sal_dir):
    path = tmp_path_factory.mktemp("cli_run")
    argv = ["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
            "--output-dir", str(path), *MICRO_MODEL, *QUICK_TRAIN]
    assert main(argv) == 0
    return path


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert main(["synth", "--kind", "edge", "--count", "1",
                     "--size", "32", "--output-dir", str(tmp_path)]) == 0

    def test_missing_required_setting_is_two(self, capsys):
        assert main(["train"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_is_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("leraning_rate = 0.1\n")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "leraning_rate" in err and "run.cfg:1" in err

    def test_unparseable_flag_value_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--size", "400by300", *MICRO_MODEL])
        assert info.value.code == 2
        assert "expected a size like 400x300" in capsys.readouterr().err

    def test_bad_thread_cap_is_two(self, monkeypatch, capsys):
        monkeypatch.setenv("POOLNET_THREADS", "-3")
        assert main(["synth", "--kind", "edge", "--count", "1",
                     "--output-dir", "unused"]) == 2
        assert "POOLNET_THREADS" in capsys.readouterr().err

    def test_missing_manifest_file_is_three(self, tmp_path, capsys):
        argv = ["train", "--saliency-manifest", str(tmp_path / "absent.tsv"),
                "--output-dir", str(tmp_path), *MICRO_MODEL, *QUICK_TRAIN]
        assert main(argv) == 3
        assert "data error" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_three(self, tmp_path, sal_dir, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert main(["infer", "--checkpoint", str(bad),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_checkpoint_name_not_utf8_is_three(self, tmp_path, sal_dir, run_dir, capsys):
        blob = (run_dir / "final.ckpt").read_bytes()
        # the first record's name starts after the magic and its u32 length
        bad = tmp_path / "name.ckpt"
        bad.write_bytes(blob[:9] + b"\xff\xfe" + blob[11:])
        assert main(["infer", "--checkpoint", str(bad),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_checkpoint_dims_overflow_is_three(self, tmp_path, sal_dir, capsys):
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(b"PNLB1" + struct.pack("<I", 1) + b"w"
                        + struct.pack("<5I", 4, 65536, 65536, 65536, 65536))
        assert main(["infer", "--checkpoint", str(bad),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_checkpoint_rank_overflow_is_three(self, tmp_path, sal_dir, capsys):
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(b"PNLB1" + struct.pack("<I", 1) + b"w"
                        + struct.pack("<71I", 70, 0, *[1] * 69))
        assert main(["infer", "--checkpoint", str(bad),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 3
        assert "rank 70" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 4.5, 1e30, 2**15])
    def test_corrupt_architecture_record_is_three(self, tmp_path, sal_dir, run_dir,
                                                  capsys, bad):
        records = load_checkpoint(run_dir / "final.ckpt")
        records["_state/config/backbone_widths"][1] = bad
        path = tmp_path / "widths.ckpt"
        save_checkpoint(path, records)
        assert main(["infer", "--checkpoint", str(path),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "config/backbone_widths" in err and "Traceback" not in err

    def test_unparseable_numeric_flag_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--lr", "x"])
        assert info.value.code == 2
        assert "argument --lr: expected a number, got 'x'" in capsys.readouterr().err

    def test_fam_rate_the_upsampler_cannot_run_is_two(self, tmp_path, sal_dir, capsys):
        argv = ["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                "--output-dir", str(tmp_path / "out"), *MICRO_MODEL, "--fam-rates", "3",
                *QUICK_TRAIN]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "fam_rates" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--weight-decay", "inf"),
                                             ("--lr-drop-factor", "nan")])
    def test_non_finite_training_float_is_two(self, tmp_path, sal_dir, capsys, flag, value):
        argv = ["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                "--output-dir", str(tmp_path / "out"), *MICRO_MODEL, *QUICK_TRAIN,
                flag, value]
        assert main(argv) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ckpt"))

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_flag_is_two(self, tmp_path, sal_dir, capsys, command):
        out = tmp_path / "out"
        argv = (["synth", "--kind", "saliency", "--count", "1", "--output-dir", str(out)]
                if command == "synth" else
                ["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                 "--output-dir", str(out), *MICRO_MODEL, *QUICK_TRAIN])
        with pytest.raises(SystemExit) as info:
            main(argv + ["--seed", "-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "argument --seed: expected a non-negative integer, got '-1'")
        assert not out.exists()

    def test_negative_seed_in_config_file_is_two(self, tmp_path, sal_dir, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = -1\n")
        out = tmp_path / "out"
        argv = ["train", "--config", str(config), "--output-dir", str(out),
                "--saliency-manifest", str(sal_dir / "manifest.tsv"), *MICRO_MODEL,
                "--epochs", "1", "--lr-drop-epoch", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {config}:1: seed: expected a non-negative integer, got '-1'\n")
        assert not out.exists()

    def test_config_not_utf8_is_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"epochs = 1 # \xe9poques\n")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "run.cfg" in err and "UTF-8" in err

    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    def test_manifest_not_utf8_is_three(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"img\xff.ppm\tgt.pgm\n")
        argv = {
            "train": ["train", "--saliency-manifest", str(manifest),
                      "--output-dir", str(tmp_path / "run")],
            "infer": ["infer", "--checkpoint", str(tmp_path / "unread.ckpt"),
                      "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")],
            "eval": ["eval", "--manifest", str(manifest), "--pred-dir", str(tmp_path)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "manifest.tsv" in err and "UTF-8" in err

    def test_quick_start_below_minimum_size_is_three(self, tmp_path, capsys):
        data = tmp_path / "sal"
        assert main(["synth", "--kind", "saliency", "--count", "2", "--size", "64",
                     "--seed", "0", "--output-dir", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--saliency-manifest", str(data / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "run"), *QUICK_TRAIN]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("data error:") and "80x80 minimum" in err

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_small_later_image_is_three_before_any_output(self, tmp_path, run_dir, capsys,
                                                          command):
        # the micro model needs 32x32; the second image pads to 16x16
        data = tmp_path / "data"
        for i, size in enumerate((32, 16)):
            assert main(["synth", "--kind", "saliency", "--count", "1", "--size", str(size),
                         "--seed", str(i), "--output-dir", str(data / str(i))]) == 0
        write_manifest(data / "manifest.tsv", [(f"{i}/img_0000.ppm", f"{i}/gt_0000.pgm")
                                               for i in range(2)])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--saliency-manifest", str(data / "manifest.tsv"),
                      "--output-dir", str(out), *MICRO_MODEL, *QUICK_TRAIN],
            "infer": ["infer", "--checkpoint", str(run_dir / "final.ckpt"),
                      "--manifest", str(data / "manifest.tsv"), "--output-dir", str(out)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("data error:") and "1/img_0000.ppm" in err and "32x32 minimum" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    @pytest.mark.parametrize("defect", ["truncated", "gt-size", "gt-color"])
    def test_bad_later_entry_is_three_before_any_output(self, tmp_path, run_dir, capsys,
                                                        command, defect):
        data = tmp_path / "data"
        for i in range(2):
            assert main(["synth", "--kind", "saliency", "--count", "1", "--size", "32",
                         "--seed", str(i), "--output-dir", str(data / str(i))]) == 0
        if defect == "truncated":
            bad = data / "1" / "img_0000.ppm"
            bad.write_bytes(bad.read_bytes()[:-1])
            want = "truncated pixel data"
        elif defect == "gt-size":
            bad = data / "1" / "gt_0000.pgm"
            bad.write_bytes(b"P5\n48 32\n255\n" + bytes(48 * 32))
            want = "does not match image size"
        else:
            bad = data / "1" / "gt_0000.pgm"
            bad.write_bytes(b"P6\n32 32\n255\n" + bytes(32 * 32 * 3))
            want = "single-channel"
        write_manifest(data / "manifest.tsv", [(f"{i}/img_0000.ppm", f"{i}/gt_0000.pgm")
                                               for i in range(2)])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--saliency-manifest", str(data / "manifest.tsv"),
                      "--output-dir", str(out), *MICRO_MODEL, *QUICK_TRAIN],
            "infer": ["infer", "--checkpoint", str(run_dir / "final.ckpt"),
                      "--manifest", str(data / "manifest.tsv"), "--output-dir", str(out)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("data error:") and str(bad) in err and want in err
        assert not out.exists()

    @pytest.mark.parametrize("command,stems", [
        ("infer", ("0/img_0000", "1/img_0000")),
        ("eval", ("0/img_0000", "1/img_0000")),
        ("infer-edge", ("0/img_0000", "1/img_0000_edge")),
    ], ids=["infer", "eval", "infer-edge"])
    def test_shared_map_name_is_three_before_any_output(self, tmp_path, run_dir, capsys,
                                                        command, stems):
        # infer names each map <stem>.pgm (and <stem>_edge.pgm), eval reads
        # the same names: two images with one map name are refused
        data = tmp_path / "data"
        entries = []
        for i, stem in enumerate(stems):
            assert main(["synth", "--kind", "saliency", "--count", "1", "--size", "32",
                         "--seed", str(i), "--output-dir", str(data / str(i))]) == 0
            (data / str(i) / "img_0000.ppm").rename(data / f"{stem}.ppm")
            entries.append((f"{stem}.ppm", f"{i}/gt_0000.pgm"))
        write_manifest(data / "manifest.tsv", entries)
        checkpoint = run_dir / "final.ckpt"
        if command == "infer-edge":
            checkpoint = tmp_path / "edge.ckpt"
            config = ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,),
                                 fam_rates=(2, 4), enable_edge=True)
            save_model_with_config(checkpoint, build_model(config, seed=0))
        pred = tmp_path / "pred"
        if command == "eval":
            pred.mkdir()
            (pred / "img_0000.pgm").write_bytes((data / "0" / "gt_0000.pgm").read_bytes())
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "infer": ["infer", "--checkpoint", str(checkpoint),
                      "--manifest", str(data / "manifest.tsv"), "--output-dir", str(out)],
            "eval": ["eval", "--manifest", str(data / "manifest.tsv"),
                     "--pred-dir", str(pred), "--out", str(out)],
        }[command.split("-")[0]]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:")
        assert all(str(data / f"{stem}.ppm") in err for stem in stems)
        assert not out.exists()

    @pytest.mark.parametrize("case", ["checkpoint-absent", "checkpoint-dir", "resume-absent",
                                      "output-dir-file", "eval-out-dir-absent",
                                      "eval-out-is-dir", "eval-out-under-file"])
    def test_unusable_path_is_three(self, tmp_path, sal_dir, run_dir, capsys, case):
        # a missing or unusable path is one data error line, never a traceback
        manifest = str(sal_dir / "manifest.tsv")
        out, pred = tmp_path / "out", tmp_path / "pred"
        bad = tmp_path / "nope.ckpt"
        if case == "checkpoint-dir":
            bad = tmp_path
        elif case == "output-dir-file":
            bad = tmp_path / "a_file"
            bad.write_text("")
        elif case.startswith("eval-out"):
            bad = tmp_path / case
            if case == "eval-out-is-dir":
                bad.mkdir()
            elif case == "eval-out-under-file":
                bad.write_text("")
            pred.mkdir()
            for i in range(4):
                (pred / f"img_{i:04d}.pgm").write_bytes((sal_dir / f"gt_{i:04d}.pgm").read_bytes())
        argv = {
            "checkpoint-absent": ["infer", "--checkpoint", str(bad), "--manifest", manifest,
                                  "--output-dir", str(out)],
            "checkpoint-dir": ["infer", "--checkpoint", str(bad), "--manifest", manifest,
                               "--output-dir", str(out)],
            "resume-absent": ["train", "--saliency-manifest", manifest, "--output-dir", str(out),
                              "--resume", str(bad), *QUICK_TRAIN],
            "output-dir-file": ["infer", "--checkpoint", str(run_dir / "final.ckpt"),
                                "--manifest", manifest, "--output-dir", str(bad)],
            "eval-out-dir-absent": ["eval", "--manifest", manifest, "--pred-dir", str(pred),
                                    "--out", str(bad / "m.csv")],
            "eval-out-is-dir": ["eval", "--manifest", manifest, "--pred-dir", str(pred),
                                "--out", str(bad)],
            "eval-out-under-file": ["eval", "--manifest", manifest, "--pred-dir", str(pred),
                                    "--out", str(bad / "m.csv")],
        }[case]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:") and str(bad) in err
        # the path asked for, never the hidden temporary file written beside it
        assert ".tmp" not in err.replace(str(tmp_path), "")
        if case in ("eval-out-dir-absent", "eval-out-under-file"):
            assert str(bad / "m.csv") in err
        assert not out.exists()

    def test_poisoned_weights_are_four(self, tmp_path, sal_dir, run_dir, capsys, recwarn):
        model, state = model_from_checkpoint(run_dir / "final.ckpt")
        model.head.weight.data[:] = np.inf
        poisoned = tmp_path / "poisoned.ckpt"
        save_model_with_config(poisoned, model, state)
        argv = ["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                "--output-dir", str(tmp_path / "out"), "--resume", str(poisoned),
                "--epochs", "2", "--lr-drop-epoch", "1", "--seed", "0"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        # the typed error alone: no NumPy RuntimeWarning printed before it
        assert err.startswith("numeric error") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_nan_weights_at_inference_are_four(self, tmp_path, sal_dir, run_dir, capsys):
        model, state = model_from_checkpoint(run_dir / "final.ckpt")
        model.head.weight.data[:] = np.nan
        poisoned = tmp_path / "nan.ckpt"
        save_model_with_config(poisoned, model, state)
        assert main(["infer", "--checkpoint", str(poisoned),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 4
        assert "numeric error" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--learning-rate", "0.1"])
        assert info.value.code == 2


class TestSettingsTable:
    def test_one_row_per_setting_and_one_flag_per_row(self):
        fields = {f.name for cls in (ModelConfig, TrainConfig, RunConfig)
                  for f in dataclasses.fields(cls)} - {"model", "train"}
        assert set(CONFIG_FIELDS) == fields
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {action.dest for action in commands.choices["train"]._actions}
        assert {key for key, (section, *_) in CONFIG_FIELDS.items()
                if section in ("model", "train") and key != "seed"} <= flags


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, sal_dir):
        config = tmp_path / "run.cfg"
        config.write_text("backbone_widths = 4,6,6,8,8\n"
                          "ppm_sizes = 2\n"
                          "fam_rates = 2,4\n"
                          "lr = 0.1  # flag should beat this\n"
                          "epochs = 1\n"
                          "lr_drop_epoch = 0\n")
        out = tmp_path / "out"
        argv = ["train", "--config", str(config), "--lr", "0.05",
                "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                "--output-dir", str(out)]
        assert main(argv) == 0
        rows = list(csv.DictReader(open(out / "train_log.csv")))
        # drop epoch 0 divides by 10 from the start: 0.05 -> 0.005 (a winning
        # file value would log 0.01)
        assert {row["lr"] for row in rows} == {"0.005"}

    def test_config_file_settings_reach_the_model(self, tmp_path, sal_dir):
        config = tmp_path / "run.cfg"
        config.write_text("backbone_widths = 4,4,6,6,8\n"
                          "ppm_sizes = 2\n"
                          "fam_rates = 2\n"
                          "enable_edge = true\n"
                          "epochs = 1\n"
                          "lr_drop_epoch = 0\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(config),
                     "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(out)]) == 0
        model, _ = model_from_checkpoint(out / "final.ckpt")
        assert model.config.backbone_widths == (4, 4, 6, 6, 8)
        assert model.config.enable_edge is True


class TestJointEdgeRule:
    # joint_edge needs an edge branch in the model being trained, which a
    # resumed run takes from its checkpoint, not from the model flags
    @pytest.fixture(scope="class")
    def edge_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli_edge")
        assert main(["synth", "--kind", "edge", "--count", "2", "--size", "32",
                     "--output-dir", str(path)]) == 0
        return path

    def test_resumed_edge_run_needs_no_enable_edge_flag(self, tmp_path, sal_dir, edge_dir):
        joint = ["--saliency-manifest", str(sal_dir / "manifest.tsv"),
                 "--edge-manifest", str(edge_dir / "manifest.tsv"), "--joint-edge"]
        first = tmp_path / "first"
        assert main(["train", *joint, "--enable-edge", "--output-dir", str(first),
                     *MICRO_MODEL, *QUICK_TRAIN]) == 0
        assert main(["train", *joint, "--resume", str(first / "final.ckpt"),
                     "--output-dir", str(tmp_path / "resumed"), "--epochs", "2",
                     "--lr-drop-epoch", "1", "--seed", "0"]) == 0
        assert (tmp_path / "resumed" / "final.ckpt").is_file()

    def test_fresh_run_without_edge_branch_is_two(self, tmp_path, sal_dir, edge_dir, capsys):
        out = tmp_path / "out"
        assert main(["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                     "--edge-manifest", str(edge_dir / "manifest.tsv"), "--joint-edge",
                     "--output-dir", str(out), *MICRO_MODEL, *QUICK_TRAIN]) == 2
        assert "requires a model with enable_edge" in capsys.readouterr().err
        assert not out.exists()

    def test_infer_ignores_joint_edge_in_a_config_file(self, tmp_path, sal_dir, run_dir):
        config = tmp_path / "run.cfg"
        config.write_text("joint_edge = true\n")
        assert main(["infer", "--config", str(config), "--checkpoint", str(run_dir / "final.ckpt"),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(tmp_path / "out")]) == 0


# each case rewrites one stored counter of a trained run's final.ckpt
CORRUPT_RECORDS = {
    "epoch-absent": ("progress/epoch", lambda arr: None),
    "epoch-nan": ("progress/epoch", lambda arr: [np.nan]),
    "epoch-empty": ("progress/epoch", lambda arr: []),
    "epoch-negative": ("progress/epoch", lambda arr: [-1.0]),
    "step-nan": ("opt/step", lambda arr: [np.nan]),
    "updates-nan": ("opt/updates", lambda arr: np.full_like(arr, np.nan)),
    "updates-huge": ("opt/updates", lambda arr: np.full_like(arr, 1e30)),
    "updates-count": ("opt/updates", lambda arr: arr[:-1]),
}


class TestResume:
    RESUME = ["--epochs", "2", "--lr-drop-epoch", "1", "--seed", "0"]

    def test_model_built_without_build_model_resumes(self, tmp_path, sal_dir):
        # optimizer records are keyed by module path however the model was built
        config = ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,), fam_rates=(2, 4))
        model = SaliencyNet(config, np.random.default_rng(0))
        manifest = sal_dir / "manifest.tsv"
        train_model(model, TrainConfig(epochs=1, lr_drop_epoch=0, seed=0),
                    load_manifest(manifest, "saliency"), output_dir=tmp_path / "first")
        assert main(["train", "--saliency-manifest", str(manifest),
                     "--resume", str(tmp_path / "first" / "final.ckpt"),
                     "--output-dir", str(tmp_path / "resumed"), *self.RESUME]) == 0
        assert (tmp_path / "resumed" / "final.ckpt").is_file()

    @pytest.mark.parametrize("case", list(CORRUPT_RECORDS))
    def test_corrupt_counter_is_three(self, tmp_path, sal_dir, run_dir, capsys, case):
        key, corrupt = CORRUPT_RECORDS[case]
        records = load_checkpoint(run_dir / "final.ckpt")
        value = corrupt(records["_state/" + key])
        if value is None:
            del records["_state/" + key]
        else:
            records["_state/" + key] = np.asarray(value, dtype=np.float32)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, records)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                     "--resume", str(bad), "--output-dir", str(out), *self.RESUME]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:") and repr(key) in err
        assert not out.exists()

class TestPipeline:
    def test_train_writes_checkpoints_and_log(self, run_dir):
        assert (run_dir / "epoch_001.ckpt").is_file()
        assert (run_dir / "final.ckpt").is_file()
        log = (run_dir / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,loss_type,loss_value,lr"
        assert len(log) == 1 + 4

    def test_infer_writes_one_map_per_entry(self, tmp_path, sal_dir, run_dir):
        out = tmp_path / "pred"
        assert main(["infer", "--checkpoint", str(run_dir / "final.ckpt"),
                     "--manifest", str(sal_dir / "manifest.tsv"),
                     "--output-dir", str(out)]) == 0
        maps = sorted(out.glob("*.pgm"))
        assert len(maps) == 4
        for path in maps:
            values = load_map(path)
            assert values.shape == (32, 32)
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_infer_is_deterministic(self, tmp_path, sal_dir, run_dir):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            main(["infer", "--checkpoint", str(run_dir / "final.ckpt"),
                  "--manifest", str(sal_dir / "manifest.tsv"),
                  "--output-dir", str(out)])
            outputs.append(b"".join(p.read_bytes() for p in sorted(out.glob("*.pgm"))))
        assert outputs[0] == outputs[1]

    def test_eval_scores_predictions(self, tmp_path, sal_dir, run_dir, capsys):
        pred = tmp_path / "pred"
        main(["infer", "--checkpoint", str(run_dir / "final.ckpt"),
              "--manifest", str(sal_dir / "manifest.tsv"), "--output-dir", str(pred)])
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(sal_dir / "manifest.tsv"),
                     "--pred-dir", str(pred), "--out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        lines = [line for line in stdout.splitlines() if line]
        max_f = float(lines[-2].split()[1])
        mae = float(lines[-1].split()[1])
        assert lines[-2].startswith("max_f ") and lines[-1].startswith("mae ")
        assert 0.0 <= max_f <= 1.0 and 0.0 <= mae <= 1.0
        rows = list(csv.reader(open(out_csv)))
        assert rows[0] == ["max_f", "mae", "empty_gt_count"]
        assert float(rows[1][0]) == pytest.approx(max_f, abs=5e-7)

    def test_eval_missing_prediction_is_three(self, tmp_path, sal_dir, capsys):
        (tmp_path / "pred").mkdir()
        assert main(["eval", "--manifest", str(sal_dir / "manifest.tsv"),
                     "--pred-dir", str(tmp_path / "pred")]) == 3
        assert "missing prediction" in capsys.readouterr().err


class TestAblate:
    def test_writes_six_row_table(self, tmp_path, sal_dir):
        out = tmp_path / "ablation"
        argv = ["ablate", "--saliency-manifest", str(sal_dir / "manifest.tsv"),
                "--output-dir", str(out), *MICRO_MODEL, *QUICK_TRAIN]
        assert main(argv) == 0
        rows = list(csv.reader(open(out / "ablation.csv")))
        assert rows[0] == ["row", "ppm", "ggf", "fam", "max_f", "mae"]
        assert [row[:4] for row in rows[1:]] == [
            ["1", "0", "0", "0"], ["2", "1", "0", "0"], ["3", "0", "1", "0"],
            ["4", "1", "1", "0"], ["5", "0", "0", "1"], ["6", "1", "1", "1"]]
        for row in rows[1:]:
            assert 0.0 <= float(row[4]) <= 1.0
            assert 0.0 <= float(row[5]) <= 1.0


class TestBench:
    def test_reports_latency_statistics(self, capsys):
        assert main(["bench", "--size", "40x30", "--iters", "3", "--warmup", "1",
                     *MICRO_MODEL]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "input 40x30 (padded 48x32), 3 iters after 1 warm-up"
        stats = dict(line.split() for line in lines[1:])
        assert set(stats) == {"mean_ms", "p50_ms", "p95_ms", "fps"}
        assert float(stats["mean_ms"]) > 0.0
        assert float(stats["fps"]) == pytest.approx(1000.0 / float(stats["mean_ms"]),
                                                    rel=1e-2)

    def test_zero_iterations_rejected(self, capsys):
        assert main(["bench", "--iters", "0", *MICRO_MODEL]) == 2


class TestSynth:
    def test_dataset_is_reproducible(self, tmp_path):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["synth", "--kind", "saliency", "--count", "3",
                         "--size", "32", "--seed", "9", "--output-dir", str(out)]) == 0
            digests.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert digests[0] == digests[1]

    def test_invalid_count_is_three(self, tmp_path, capsys):
        assert main(["synth", "--kind", "saliency", "--count", "0",
                     "--output-dir", str(tmp_path)]) == 3


class TestHelpText:
    @pytest.mark.parametrize("golden,argv", [
        ("help_main", ["--help"]),
        ("help_train", ["train", "--help"]),
        ("help_infer", ["infer", "--help"]),
        ("help_eval", ["eval", "--help"]),
        ("help_ablate", ["ablate", "--help"]),
        ("help_bench", ["bench", "--help"]),
        ("help_synth", ["synth", "--help"]),
    ])
    def test_matches_golden(self, golden, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out == (DATA_DIR / f"{golden}.txt").read_text()
