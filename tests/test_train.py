"""Training loop: alternation, augmentation, determinism, checkpoints,
resume, and optimizer health."""

import tracemalloc

import numpy as np
import pytest

from poolnet.config import ModelConfig, TrainConfig
from poolnet.data import save_image, save_map, synth_saliency_sample, write_manifest
from poolnet.data import load_manifest, synth_edge_dataset, synth_saliency_dataset
from poolnet.errors import ConfigError, DataError, NumericError, ShapeError
from poolnet.model import build_model, model_from_checkpoint, save_model_with_config
from poolnet.optim import lr_at
from poolnet.train import alternation_schedule, augment_hflip, train_model


def tiny_config(**kwargs):
    return ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,),
                       fam_rates=(2, 4), **kwargs)


def tiny_train(**kwargs):
    kwargs.setdefault("lr", 1e-3)
    kwargs.setdefault("epochs", 2)
    kwargs.setdefault("lr_drop_epoch", 1)
    return TrainConfig(**kwargs)


@pytest.fixture(scope="module")
def sal4(tmp_path_factory):
    return synth_saliency_dataset(tmp_path_factory.mktemp("sal4"), 4, 32, seed=0)


@pytest.fixture(scope="module")
def edge2(tmp_path_factory):
    return synth_edge_dataset(tmp_path_factory.mktemp("edge2"), 2, 32, seed=0)


class TestAlternationSchedule:
    def test_four_saliency_two_edge_trace(self):
        assert alternation_schedule(4, 2) == [
            ("sal", 0), ("edge", 0), ("sal", 1), ("edge", 1),
            ("sal", 2), ("edge", 0), ("sal", 3), ("edge", 1)]

    def test_epoch_length_is_twice_the_saliency_count(self):
        assert len(alternation_schedule(5, 3)) == 10

    def test_single_edge_batch_repeats(self):
        assert alternation_schedule(3, 1) == [
            ("sal", 0), ("edge", 0), ("sal", 1), ("edge", 0), ("sal", 2), ("edge", 0)]

    def test_surplus_edge_batches_stay_in_order(self):
        plan = alternation_schedule(2, 5)
        assert plan == [("sal", 0), ("edge", 0), ("sal", 1), ("edge", 1)]

    @pytest.mark.parametrize("n_sal,n_edge", [(0, 1), (1, 0)])
    def test_empty_sides_raise(self, n_sal, n_edge):
        with pytest.raises(ConfigError):
            alternation_schedule(n_sal, n_edge)


class TestHorizontalFlip:
    def test_flip_mirrors_both_arrays_together(self):
        rng = np.random.default_rng(2)  # first draw < 0.5 flips
        assert rng.random() < 0.5
        image = np.arange(12.0).reshape(3, 2, 2)
        target = np.arange(4.0).reshape(1, 2, 2)
        flipped_img, flipped_tgt = augment_hflip(image, target, np.random.default_rng(2))
        assert np.array_equal(flipped_img, image[..., ::-1])
        assert np.array_equal(flipped_tgt, target[..., ::-1])

    def test_double_flip_is_identity(self):
        image = np.arange(12.0).reshape(3, 2, 2)
        target = np.arange(4.0).reshape(1, 2, 2)
        once_img, once_tgt = augment_hflip(image, target, np.random.default_rng(2))
        twice_img, twice_tgt = augment_hflip(once_img, once_tgt, np.random.default_rng(2))
        assert np.array_equal(twice_img, image)
        assert np.array_equal(twice_tgt, target)

    def test_seeded_decisions_are_reproducible(self):
        image = np.random.default_rng(0).random((3, 4, 4))
        target = np.random.default_rng(1).random((1, 4, 4))
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            outcomes.append([augment_hflip(image, target, rng)[0].tobytes()
                             for _ in range(20)])
        assert outcomes[0] == outcomes[1]

    def test_flip_rate_is_about_half(self):
        rng = np.random.default_rng(123)
        image = np.ones((3, 2, 2))
        flips = sum(augment_hflip(image, image[:1], rng)[0] is not image
                    for _ in range(400))
        assert 140 < flips < 260


class TestTrainingLoop:
    def test_records_cover_every_step_with_schedule_lr(self, sal4):
        model = build_model(tiny_config(), seed=0)
        config = tiny_train(epochs=3, lr_drop_epoch=2)
        result = train_model(model, config, sal4)
        assert len(result.steps) == 3 * 4
        for record in result.steps:
            assert record.loss_type == "sal"
            assert np.isfinite(record.loss_value)
            assert record.lr == lr_at(record.epoch, config)
        assert [r.step for r in result.steps] == list(range(1, 13))
        assert result.steps[-1].epoch == 2

    def test_identical_seeds_are_bitwise_identical(self, sal4, tmp_path):
        outputs = []
        for run in ("a", "b"):
            model = build_model(tiny_config(), seed=1)
            result = train_model(model, tiny_train(seed=5), sal4,
                                 output_dir=tmp_path / run)
            outputs.append(result)
        losses_a = [r.loss_value for r in outputs[0].steps]
        losses_b = [r.loss_value for r in outputs[1].steps]
        assert losses_a == losses_b
        final_a = (tmp_path / "a" / "final.ckpt").read_bytes()
        final_b = (tmp_path / "b" / "final.ckpt").read_bytes()
        assert final_a == final_b

    def test_checkpoint_files_per_epoch_plus_final(self, sal4, tmp_path):
        model = build_model(tiny_config(), seed=0)
        result = train_model(model, tiny_train(), sal4, output_dir=tmp_path)
        names = [p.name for p in result.checkpoints]
        assert names == ["epoch_001.ckpt", "epoch_002.ckpt", "final.ckpt"]
        assert all(p.is_file() for p in result.checkpoints)
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,loss_type,loss_value,lr"
        assert len(log) == 1 + len(result.steps)

    def test_max_steps_stops_mid_epoch_without_epoch_checkpoint(self, sal4, tmp_path):
        model = build_model(tiny_config(), seed=0)
        result = train_model(model, tiny_train(epochs=2), sal4,
                             output_dir=tmp_path, max_steps=6)
        assert len(result.steps) == 6
        assert [p.name for p in result.checkpoints] == ["epoch_001.ckpt", "final.ckpt"]
        _, state = model_from_checkpoint(tmp_path / "final.ckpt")
        assert state["opt/step"][0] == 6.0
        assert "progress/step" not in state  # opt/step is the one step record

    def test_resume_matches_uninterrupted_run(self, sal4, tmp_path):
        config = tiny_train(epochs=4, lr_drop_epoch=3, seed=2)
        straight = build_model(tiny_config(), seed=2)
        train_model(straight, config, sal4, output_dir=tmp_path / "full")

        parted = build_model(tiny_config(), seed=2)
        train_model(parted, config, sal4, output_dir=tmp_path / "part", max_steps=8)
        # a file written before checkpoints dropped their progress/step
        # record, a copy of opt/step, resumes alike
        epoch_2 = tmp_path / "part" / "epoch_002.ckpt"
        model, state = model_from_checkpoint(epoch_2)
        save_model_with_config(tmp_path / "old.ckpt", model,
                               dict(state, **{"progress/step": state["opt/step"]}))
        for start in (epoch_2, tmp_path / "old.ckpt"):
            resumed, state = model_from_checkpoint(start)
            result = train_model(resumed, config, sal4, output_dir=tmp_path / "part2",
                                 resume_state=state)
            assert [r.epoch for r in result.steps] == [2] * 4 + [3] * 4
            assert (tmp_path / "full" / "final.ckpt").read_bytes() == \
                (tmp_path / "part2" / "final.ckpt").read_bytes()

    def test_non_finite_loss_raises_numeric_error(self, sal4):
        model = build_model(tiny_config(), seed=0)
        model.head.weight.data[:] = np.inf
        with pytest.raises(NumericError):
            train_model(model, tiny_train(), sal4)

    def test_one_steps_graph_alive_at_a_time(self, tmp_path):
        manifest = synth_saliency_dataset(tmp_path, 3, 96, seed=3)
        peaks = {}
        for steps in (1, 3):
            model = build_model(ModelConfig(), seed=3)
            tracemalloc.start()
            try:
                train_model(model, tiny_train(seed=3), manifest, max_steps=steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a step's graph held while the next forward runs would add about 10 MB
        assert peaks[3] <= peaks[1] + 2**20

    def test_too_small_image_fails_before_any_step(self, tmp_path):
        for i, size in enumerate((64, 16)):
            image, target = synth_saliency_sample(size, seed=0, index=i)
            save_image(image, tmp_path / f"img_{i}.ppm")
            save_map(target, tmp_path / f"gt_{i}.pgm")
        write_manifest(tmp_path / "manifest.tsv",
                       [("img_0.ppm", "gt_0.pgm"), ("img_1.ppm", "gt_1.pgm")])
        manifest = load_manifest(tmp_path / "manifest.tsv", "saliency")
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match=r"img_1\.ppm: padded input size 16x16 is below"):
            train_model(model, tiny_train(), manifest, output_dir=tmp_path / "run")
        # the output directory is made before the first step
        assert not (tmp_path / "run").exists()

    def test_mixed_size_batch_raises(self, tmp_path):
        for i, size in enumerate((32, 48)):
            image, target = synth_saliency_sample(size, seed=0, index=i)
            save_image(image, tmp_path / f"img_{i}.ppm")
            save_map(target, tmp_path / f"gt_{i}.pgm")
        write_manifest(tmp_path / "manifest.tsv",
                       [("img_0.ppm", "gt_0.pgm"), ("img_1.ppm", "gt_1.pgm")])
        manifest = load_manifest(tmp_path / "manifest.tsv", "saliency")
        model = build_model(tiny_config(), seed=0)
        # refused before any step or output, naming both images
        with pytest.raises(DataError, match="batch_size 1") as info:
            train_model(model, tiny_train(batch_size=2), manifest,
                        output_dir=tmp_path / "mixrun")
        assert "img_0.ppm" in str(info.value) and "img_1.ppm" in str(info.value)
        assert not (tmp_path / "mixrun").exists()
        # per-sample batches handle the same data fine
        result = train_model(model, tiny_train(epochs=1, lr_drop_epoch=0), manifest)
        assert len(result.steps) == 2

    def test_wrong_manifest_kind_raises(self, edge2):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(DataError):
            train_model(model, tiny_train(), edge2)


class TestJointTraining:
    def test_strictly_alternates_and_moves_edge_weights(self, sal4, edge2):
        model = build_model(tiny_config(enable_edge=True), seed=0)
        side_before = model.edge.side_heads[0].weight.data.copy()
        result = train_model(model, tiny_train(epochs=1, lr_drop_epoch=0,
                                               joint_edge=True), sal4, edge_data=edge2)
        assert [r.loss_type for r in result.steps] == ["sal", "edge"] * 4
        assert not np.array_equal(model.edge.side_heads[0].weight.data, side_before)

    def test_two_epochs_stay_finite(self, sal4, edge2):
        model = build_model(tiny_config(enable_edge=True), seed=0)
        result = train_model(model, tiny_train(joint_edge=True), sal4, edge_data=edge2)
        assert len(result.steps) == 2 * 2 * 4
        assert all(np.isfinite(r.loss_value) for r in result.steps)

    def test_saliency_steps_leave_side_heads_untouched(self, sal4):
        # without edge steps the side heads have no gradient path at all
        model = build_model(tiny_config(enable_edge=True), seed=0)
        before = [head.weight.data.copy() for head in model.edge.side_heads]
        train_model(model, tiny_train(epochs=1, lr_drop_epoch=0), sal4)
        for head, stale in zip(model.edge.side_heads, before):
            assert np.array_equal(head.weight.data, stale)

    def test_joint_without_edge_branch_raises(self, sal4, edge2):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            train_model(model, tiny_train(joint_edge=True), sal4, edge_data=edge2)

    def test_joint_without_edge_data_raises(self, sal4):
        model = build_model(tiny_config(enable_edge=True), seed=0)
        with pytest.raises(ConfigError):
            train_model(model, tiny_train(joint_edge=True), sal4)


class TestOptimizationHealth:
    def test_windowed_loss_average_decreases(self, tmp_path):
        # 20 batches of 10 steps: at least 90% of the window-to-window moves
        # head downward
        manifest = synth_saliency_dataset(tmp_path / "sal20", 20, 64, seed=0)
        model = build_model(ModelConfig(backbone_widths=(8, 12, 16, 24, 24),
                                        ppm_sizes=(2, 3)), seed=0)
        result = train_model(model, TrainConfig(lr=7e-4, epochs=50, lr_drop_epoch=49,
                                                batch_size=4, seed=0),
                             manifest, max_steps=200)
        losses = np.array([r.loss_value for r in result.steps])
        assert losses.size == 200
        windows = losses.reshape(-1, 10).mean(axis=1)
        decreasing = np.mean(np.diff(windows) < 0)
        assert decreasing >= 0.90
        assert windows[-1] < windows[0]
