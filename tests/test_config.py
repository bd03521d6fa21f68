"""Configuration dataclasses, the ablation matrix, key=value files, and the
thread cap."""

import os
import subprocess
import sys

import pytest

import poolnet
from poolnet.config import (
    ABLATION_ROWS,
    DESK_WIDTHS,
    ModelConfig,
    TrainConfig,
    ablation_configs,
    build_run_config,
    read_config_file,
    thread_cap,
)
from poolnet.errors import ConfigError


class TestModelConfig:
    def test_desk_defaults(self):
        config = ModelConfig()
        assert config.backbone_widths == DESK_WIDTHS
        assert config.pyramid_channels == DESK_WIDTHS[1:]
        assert config.enable_ppm and config.enable_ggf and config.enable_fam
        assert not config.enable_edge
        assert config.fam_rates == (2, 4, 8)
        assert config.ppm_sizes == (3, 5)

    def test_pyramid_channels_default_tracks_widths(self):
        config = ModelConfig(backbone_widths=(4, 5, 6, 7, 8))
        assert config.pyramid_channels == (5, 6, 7, 8)

    def test_explicit_pyramid_channels_kept(self):
        config = ModelConfig(pyramid_channels=(8, 8, 8, 8))
        assert config.pyramid_channels == (8, 8, 8, 8)

    @pytest.mark.parametrize("kwargs", [
        {"backbone_widths": (4, 5, 6, 7)},
        {"backbone_widths": (4, 5, 6, 7, 0)},
        {"pyramid_channels": (8, 8, 8)},
        {"fam_rates": ()},
        {"fam_rates": (1, 2)},
        {"fam_rates": (4, 2)},
        {"fam_rates": (2, 2, 4)},
        {"ppm_sizes": ()},
        {"ppm_sizes": (1, 3)},
        {"fam_rates": (2, 3)},
    ])
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs).validate()


class TestAblationMatrix:
    def test_six_rows_with_conventional_pattern(self):
        assert ABLATION_ROWS == (
            (1, False, False, False),
            (2, True, False, False),
            (3, False, True, False),
            (4, True, True, False),
            (5, False, False, True),
            (6, True, True, True),
        )

    def test_configs_apply_switches_without_touching_base(self):
        base = ModelConfig(enable_edge=True, ppm_sizes=(2, 3))
        rows = ablation_configs(base)
        assert [row_no for row_no, _ in rows] == [1, 2, 3, 4, 5, 6]
        for (_, ppm, ggf, fam), (_, config) in zip(ABLATION_ROWS, rows):
            assert (config.enable_ppm, config.enable_ggf, config.enable_fam) == (ppm, ggf, fam)
            assert config.enable_edge  # untouched axes carry over
            assert config.ppm_sizes == (2, 3)
        assert base.enable_ppm and base.enable_ggf and base.enable_fam


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.lr == 5e-5
        assert config.weight_decay == 5e-4
        assert config.epochs == 24
        assert config.lr_drop_epoch == 15
        assert config.lr_drop_factor == 10.0
        assert config.batch_size == 1
        assert config.seed == 0
        assert not config.joint_edge

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0},
        {"weight_decay": -1e-4},
        {"epochs": 0},
        {"lr_drop_epoch": 24},
        {"lr_drop_epoch": -1},
        {"lr_drop_factor": 0.0},
        {"batch_size": 0},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"weight_decay": float("nan")},
        {"weight_decay": float("inf")},
        {"lr_drop_factor": float("nan")},
        {"lr_drop_factor": float("inf")},
        {"seed": -1},
    ])
    def test_invalid_settings_raise(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_parses_values_comments_and_blanks(self, tmp_path):
        path = self.write(tmp_path, """
# training setup
lr = 0.002   # bumped for the small set
epochs = 3

enable_edge = true
backbone_widths = 4, 8, 8, 16, 16
""")
        values = read_config_file(path)
        assert values == {"lr": 0.002, "epochs": 3, "enable_edge": True,
                          "backbone_widths": (4, 8, 8, 16, 16)}

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        path = self.write(tmp_path, "epochs = 3\nlr = x\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: lr: expected a number, got 'x'"):
            read_config_file(path)

    def test_unknown_key_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, "lr = 0.1\nlearning_rate = 0.2\n")
        with pytest.raises(ConfigError, match=r"learning_rate"):
            read_config_file(path)

    def test_duplicate_key_raises(self, tmp_path):
        path = self.write(tmp_path, "lr = 0.1\nlr = 0.2\n")
        with pytest.raises(ConfigError, match="lr"):
            read_config_file(path)

    def test_line_without_equals_raises(self, tmp_path):
        path = self.write(tmp_path, "just some words\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "absent.cfg")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfepochs = 1\n")
        assert read_config_file(path) == {"epochs": 1}


class TestBuildRunConfig:
    def test_defaults_when_empty(self):
        run = build_run_config()
        assert run.model.backbone_widths == DESK_WIDTHS
        assert run.train.epochs == 24
        assert run.saliency_manifest is None

    def test_file_values_are_parsed_into_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.002\nenable_edge = true\nfam_rates = 2,4\n"
                        "output_dir = out\n")
        run = build_run_config(read_config_file(path))
        assert run.train.lr == 0.002
        assert run.model.enable_edge is True
        assert run.model.fam_rates == (2, 4)
        assert str(run.output_dir) == "out"

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.002\nepochs = 3\nlr_drop_epoch = 2\n")
        run = build_run_config(read_config_file(path), {"lr": 0.5})
        assert run.train.lr == 0.5
        assert run.train.epochs == 3

    def test_overridden_widths_rederive_pyramid_channels(self):
        run = build_run_config(overrides={"backbone_widths": (4, 5, 6, 7, 8)})
        assert run.model.pyramid_channels == (5, 6, 7, 8)

    def test_explicit_pyramid_channels_survive_width_override(self):
        run = build_run_config(overrides={"backbone_widths": (4, 5, 6, 7, 8),
                                          "pyramid_channels": (9, 9, 9, 9)})
        assert run.model.pyramid_channels == (9, 9, 9, 9)

    def test_bad_value_raises_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = many\n")
        with pytest.raises(ConfigError):
            build_run_config(read_config_file(path))

    def test_validation_runs_on_result(self):
        with pytest.raises(ConfigError):
            build_run_config(overrides={"fam_rates": (3, 2)})


class TestThreadCap:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("POOLNET_THREADS", raising=False)
        assert thread_cap() is None

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("POOLNET_THREADS", "3")
        assert thread_cap() == 3

    @pytest.mark.parametrize("value", ["-3", "0", "", "two", "2.0", "\u00b2"])
    def test_invalid_values_raise(self, monkeypatch, value):
        monkeypatch.setenv("POOLNET_THREADS", value)
        with pytest.raises(ConfigError, match="POOLNET_THREADS"):
            thread_cap()

    def test_import_ignores_invalid_value(self):
        # a superscript digit passes str.isdigit but not int(); the child sees
        # the package through PYTHONPATH, as pytest's own pythonpath is not inherited
        package_root = os.path.dirname(os.path.dirname(poolnet.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, POOLNET_THREADS="\u00b2", PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", "import poolnet"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
