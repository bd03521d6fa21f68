"""Checkpoint container format and model round-trips."""

import struct

import numpy as np
import pytest

from poolnet.checkpoint import (
    MAGIC,
    MAX_RANK,
    load_checkpoint,
    save_checkpoint,
)
from poolnet.config import ModelConfig
from poolnet.errors import CheckpointError
from poolnet.model import (
    build_model,
    config_from_state,
    config_to_state,
    model_from_checkpoint,
    save_model_with_config,
)
from poolnet.tensor import Tensor


class TestContainerFormat:
    def test_round_trip_preserves_names_shapes_values(self, tmp_path):
        rng = np.random.default_rng(0)
        records = {
            "a": rng.normal(size=(2, 3)).astype(np.float32),
            "nested/b": rng.normal(size=(4,)).astype(np.float32),
            "scalarish": np.array([7.0], dtype=np.float32),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, records)
        loaded = load_checkpoint(path)
        assert list(loaded) == ["a", "nested/b", "scalarish"]
        for name in records:
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], records[name])

    def test_layout_is_little_endian_length_prefixed(self, tmp_path):
        path = tmp_path / "one.ckpt"
        save_checkpoint(path, {"w": np.array([[1.5, -2.0]], dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:5] == MAGIC
        (name_len,) = struct.unpack_from("<I", blob, 5)
        assert name_len == 1
        assert blob[9:10] == b"w"
        rank, d0, d1 = struct.unpack_from("<III", blob, 10)
        assert (rank, d0, d1) == (2, 1, 2)
        values = np.frombuffer(blob[22:30], dtype="<f4")
        assert np.array_equal(values, [1.5, -2.0])
        assert len(blob) == 30

    def test_same_records_give_identical_bytes(self, tmp_path):
        records = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_checkpoint(tmp_path / "a.ckpt", records)
        save_checkpoint(tmp_path / "b.ckpt", records)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCK" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"w": np.zeros(8, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_name_that_is_not_utf8_raises(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + b"\xff\xfe"
                         + struct.pack("<II", 1, 1) + np.zeros(1, dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_dims_whose_product_overflows_raise(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64 arithmetic
        path = tmp_path / "huge.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + b"w"
                         + struct.pack("<5I", 4, 65536, 65536, 65536, 65536))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rank", [33, 70])
    def test_rank_above_cap_raises(self, tmp_path, rank):
        # a zero dim makes the payload empty, so only the rank is wrong
        path = tmp_path / "deep.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + b"w"
                         + struct.pack(f"<{rank + 1}I", rank, 0, *[1] * (rank - 1)))
        with pytest.raises(CheckpointError, match=f"rank {rank}"):
            load_checkpoint(path)

    def test_rank_at_cap_loads(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        save_checkpoint(path, {"w": np.zeros((1,) * MAX_RANK, dtype=np.float32)})
        assert load_checkpoint(path)["w"].shape == (1,) * MAX_RANK

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "final.ckpt"
        save_checkpoint(path, {"w": np.arange(3, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32),
                                   "bad": np.array(["not a number"])})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]

    def test_float64_payloads_are_stored_as_float32(self, tmp_path):
        path = tmp_path / "f64.ckpt"
        save_checkpoint(path, {"w": np.array([0.1], dtype=np.float64)})
        loaded = load_checkpoint(path)
        assert loaded["w"].dtype == np.float32
        assert loaded["w"][0] == np.float32(0.1)


class TestModelRoundTrip:
    def small_config(self):
        return ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,),
                           fam_rates=(2, 4))

    def saved_records(self, tmp_path):
        """The records of a saved small model, for tests that corrupt them."""
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, build_model(self.small_config(), seed=0))
        return path, load_checkpoint(path)

    def test_save_load_restores_every_parameter(self, tmp_path):
        model = build_model(self.small_config(), seed=3)
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model)
        # the loader builds with seed 0, so equal weights can only come from the file
        fresh = build_model(self.small_config(), seed=0)
        assert any(not np.array_equal(p.data, q.data)
                   for (_, p), (_, q) in zip(model.named_parameters(), fresh.named_parameters()))
        reloaded, state = model_from_checkpoint(path)
        assert state == {}
        for (_, p), (_, q) in zip(model.named_parameters(), reloaded.named_parameters()):
            assert np.array_equal(p.data, q.data)

    def test_forward_is_bitwise_identical_after_round_trip(self, tmp_path):
        model = build_model(self.small_config(), seed=3)
        x = Tensor(np.random.default_rng(1).uniform(size=(1, 3, 32, 32)).astype(np.float32))
        before = model(x).saliency.data.copy()
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model)
        reloaded, _ = model_from_checkpoint(path)
        after = reloaded(x).saliency.data
        assert np.array_equal(before, after)

    def test_state_records_ride_alongside(self, tmp_path):
        model = build_model(self.small_config(), seed=0)
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model, extra_state={"progress/epoch": np.array([4.0])})
        _, state = model_from_checkpoint(path)
        assert list(state) == ["progress/epoch"]
        assert state["progress/epoch"][0] == 4.0

    def test_missing_parameter_raises(self, tmp_path):
        path, records = self.saved_records(tmp_path)
        del records[next(iter(records))]
        save_checkpoint(path, records)
        with pytest.raises(CheckpointError, match="missing"):
            model_from_checkpoint(path)

    def test_wrong_architecture_shape_raises(self, tmp_path):
        path, records = self.saved_records(tmp_path)
        name = next(iter(records))
        records[name] = np.zeros((2, *records[name].shape), dtype=np.float32)
        save_checkpoint(path, records)
        with pytest.raises(CheckpointError, match="does not match model shape"):
            model_from_checkpoint(path)

    def test_unknown_record_raises(self, tmp_path):
        path, records = self.saved_records(tmp_path)
        records["stray"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(path, records)
        with pytest.raises(CheckpointError, match="stray"):
            model_from_checkpoint(path)


class TestSelfDescribingCheckpoints:
    def test_rebuilds_architecture_from_config_records(self, tmp_path):
        config = ModelConfig(backbone_widths=(4, 6, 6, 8, 8), enable_edge=True,
                             enable_ggf=False, ppm_sizes=(2,), fam_rates=(2, 4))
        model = build_model(config, seed=5)
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model)
        rebuilt, state = model_from_checkpoint(path)
        assert rebuilt.config == config
        assert state == {}
        for (_, p), (_, q) in zip(model.named_parameters(), rebuilt.named_parameters()):
            assert np.array_equal(p.data, q.data)

    def test_extra_state_survives(self, tmp_path):
        model = build_model(ModelConfig(backbone_widths=(4, 6, 6, 8, 8),
                                        ppm_sizes=(2,), fam_rates=(2, 4)), seed=0)
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model, extra_state={"progress/step": np.array([12.0])})
        _, state = model_from_checkpoint(path)
        assert state["progress/step"][0] == 12.0

    def test_checkpoint_without_config_records_raises(self, tmp_path):
        model = build_model(ModelConfig(backbone_widths=(4, 6, 6, 8, 8),
                                        ppm_sizes=(2,), fam_rates=(2, 4)), seed=0)
        path = tmp_path / "m.ckpt"
        # parameter records only: no architecture records
        save_checkpoint(path, {name: p.data for name, p in model.named_parameters()})
        with pytest.raises(CheckpointError):
            model_from_checkpoint(path)

    @pytest.mark.parametrize("key", ["config/backbone_widths", "config/ppm_sizes",
                                     "config/switches"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4.5])
    def test_non_integral_architecture_record_raises(self, key, bad):
        state = config_to_state(ModelConfig())
        state[key] = state[key].copy()
        state[key][0] = bad
        with pytest.raises(CheckpointError, match=key):
            config_from_state(state)

    def test_switch_count_is_checked(self):
        state = config_to_state(ModelConfig())
        state["config/switches"] = state["config/switches"][:3]
        with pytest.raises(CheckpointError, match="config/switches"):
            config_from_state(state)

    @pytest.mark.parametrize("ggf", [False, True])
    def test_narrow_checkpoint_with_a_wide_top_level_loads(self, tmp_path, ggf):
        # fusion level 5 owns no 3x3 conv, so its width may exceed sqrt(stored / 9)
        config = ModelConfig(backbone_widths=(4, 4, 4, 4, 4), pyramid_channels=(4, 4, 4, 64),
                             enable_ppm=False, enable_ggf=ggf, ppm_sizes=(2,), fam_rates=(2,))
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, build_model(config, seed=0))
        assert 9 * 64 ** 2 > sum(arr.size for arr in load_checkpoint(path).values())
        rebuilt, _ = model_from_checkpoint(path)
        assert rebuilt.config == config

    @pytest.mark.parametrize("key, value", [("_state/config/fam_rates", [3.0]),
                                            ("_state/config/pyramid_channels", [4.0] * 3)])
    def test_invalid_architecture_record_raises_before_build(self, tmp_path, key, value):
        model = build_model(ModelConfig(backbone_widths=(4, 6, 6, 8, 8),
                                        ppm_sizes=(2,), fam_rates=(2, 4)), seed=0)
        path = tmp_path / "m.ckpt"
        save_model_with_config(path, model)
        records = load_checkpoint(path)
        records[key] = np.asarray(value, dtype=np.float32)
        save_checkpoint(path, records)
        with pytest.raises(CheckpointError, match="invalid architecture records"):
            model_from_checkpoint(path)
