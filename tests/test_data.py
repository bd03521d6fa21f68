"""Image files, manifests, padding, and the synthetic dataset generators."""

import builtins
import errno

import numpy as np
import pytest

import poolnet.data as data_mod
from poolnet.data import (
    Manifest,
    Sample,
    _image_floats,
    _parse_pnm,
    crop_to_original,
    entry_size,
    load_entry,
    load_manifest,
    load_map,
    pad_to_multiple,
    save_image,
    save_map,
    synth_edge_dataset,
    synth_edge_sample,
    synth_saliency_dataset,
    synth_saliency_sample,
    write_manifest,
)
from poolnet.errors import DataError, NumericError

# P5, 3x2, maxval 255, rows (0, 128, 255) and (10, 20, 30)
PGM_FIXTURE = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30])
# P6, 3x2, maxval 255, every channel of every pixel 0
PPM_FIXTURE = b"P6\n3 2\n255\n" + bytes(18)


def read_image(path) -> np.ndarray:
    """An image file as (3, H, W) floats in [0, 1], as ``load_entry`` reads it."""
    return _image_floats(_parse_pnm(path))


class TestPnmRead:
    def test_hand_written_pgm_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(PGM_FIXTURE)
        values = load_map(path)
        assert values.shape == (2, 3)
        expected = np.array([[0, 128, 255], [10, 20, 30]]) / 255.0
        assert np.allclose(values, expected, atol=1e-15)

    def test_grayscale_image_is_replicated_to_rgb(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(PGM_FIXTURE)
        image = read_image(path)
        assert image.shape == (3, 2, 3)
        assert np.array_equal(image[0], image[1])
        assert np.array_equal(image[0], image[2])

    def test_color_image_channel_order(self, tmp_path):
        path = tmp_path / "c.ppm"
        # one pixel: r=255, g=0, b=128
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 128]))
        image = read_image(path)
        assert image.shape == (3, 1, 1)
        assert np.allclose(image[:, 0, 0], [1.0, 0.0, 128 / 255.0], atol=1e-15)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# width then height\n 3 # inline\n2\n255\n"
                         + bytes([1, 2, 3, 4, 5, 6]))
        assert load_map(path).shape == (2, 3)

    def test_color_file_rejected_as_map(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(DataError):
            load_map(path)

    @pytest.mark.parametrize("blob,reason", [
        (b"P4\n1 1\n255\n\x00", "wrong magic"),
        (b"P5\n2 2\n65535\n" + b"\x00" * 8, "16-bit depth"),
        (b"P5\n2 2\n255\n\x00\x00\x00", "truncated payload"),
        (b"P5\n0 2\n255\n", "zero width"),
        (b"P5\n2\n255\n\x00\x00", "missing height"),
        (b"P5\n2 2\n" + b"2" * 5000 + b"\n", "integer past int()'s digit limit"),
    ], ids=["magic", "depth", "truncated", "dims", "header", "digits"])
    def test_malformed_files_raise(self, tmp_path, blob, reason):
        path = tmp_path / "bad.pnm"
        path.write_bytes(blob)
        with pytest.raises(DataError):
            load_map(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_map(tmp_path / "absent.pgm")

    # entry_size reads a manifest entry as load_entry does: each case below
    # spoils one file of a 2x3 image and ground-truth pair, and both must
    # refuse it with the same message
    def entry(self, tmp_path, image, gt):
        """An (image, ground truth) path pair; a blob of None leaves the file absent."""
        paths = (tmp_path / "img.pnm", tmp_path / "gt.pnm")
        for path, blob in zip(paths, (image, gt)):
            if blob is not None:
                path.write_bytes(blob)
        return paths

    def test_image_size_reads_past_a_long_header(self, tmp_path):
        entry = self.entry(tmp_path, b"P5\n#" + b"x" * 5000 + b"\n3 2\n255\n" + bytes(6),
                           PGM_FIXTURE)
        sample = load_entry(Manifest([entry], "saliency"), 0)
        assert entry_size(*entry) == (2, 3) == sample.image.shape[1:] == sample.target.shape[1:]

    @pytest.mark.parametrize("image,gt", [
        (b"P4\n1 1\n255\n\x00", PGM_FIXTURE),
        (b"P5\n0 2\n255\n", PGM_FIXTURE),
        (b"P5\n2 2\n25" + b"5" * 5000, PGM_FIXTURE),
        (b"", PGM_FIXTURE),
        (None, PGM_FIXTURE),
        (b"P6\n# c\n3 2\n255\n" + bytes(17), PGM_FIXTURE),
        (PPM_FIXTURE, PGM_FIXTURE[:-1]),
        (PPM_FIXTURE, PPM_FIXTURE),
        (PPM_FIXTURE, b"P5\n2 3\n255\n" + bytes(6)),
    ], ids=["magic", "dims", "long-maxval", "empty", "absent", "truncated",
            "gt-truncated", "gt-color", "gt-size"])
    def test_image_size_rejects_bad_headers(self, tmp_path, image, gt):
        entry = self.entry(tmp_path, image, gt)
        with pytest.raises(DataError) as checked:
            entry_size(*entry)
        with pytest.raises(DataError) as loaded:
            load_entry(Manifest([entry], "saliency"), 0)
        assert str(checked.value) == str(loaded.value)


class TestPnmWrite:
    def test_map_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.random((5, 7))
        path = tmp_path / "m.pgm"
        save_map(values, path)
        # 8-bit rounding moves each value by at most half a step
        assert np.max(np.abs(load_map(path) - values)) <= 0.5 / 255.0 + 1e-12

    def test_exact_levels_round_trip_losslessly(self, tmp_path):
        values = np.arange(256).reshape(16, 16) / 255.0
        path = tmp_path / "m.pgm"
        save_map(values, path)
        assert np.array_equal(load_map(path), values)

    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.random((3, 4, 6))
        path = tmp_path / "i.ppm"
        save_image(image, path)
        assert np.max(np.abs(read_image(path) - image)) <= 0.5 / 255.0 + 1e-12

    def test_out_of_range_values_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_map(np.full((2, 2), 1.2), tmp_path / "m.pgm")

    @pytest.mark.parametrize("save,values,error", [
        (save_map, np.full((4, 4), 2.0), DataError),
        (save_map, np.full((4, 4), np.nan), NumericError),
        (save_image, np.full((3, 4, 4), -1.0), DataError),
        (save_image, np.full((3, 4, 4), np.inf), NumericError),
    ])
    def test_rejected_values_leave_no_file(self, tmp_path, save, values, error):
        path = tmp_path / "out.pnm"
        with pytest.raises(error):
            save(values, path)
        assert not path.exists()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.pgm"
        save_map(np.zeros((4, 4)), path)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes its first write, then fails as a full disk does."""

            def __init__(self, *args, **kwargs):
                self.fh = builtins.open(*args, **kwargs)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(chunk)

        monkeypatch.setattr(data_mod, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_map(np.ones((4, 4)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pgm"]

    def test_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_map(np.zeros((1, 2, 2)), tmp_path / "m.pgm")
        with pytest.raises(DataError):
            save_image(np.zeros((4, 2, 2)), tmp_path / "i.ppm")


class TestPadding:
    def sample(self, h, w):
        rng = np.random.default_rng(h * 31 + w)
        return Sample(image=rng.random((3, h, w)), target=rng.random((1, h, w)))

    def test_pads_to_next_multiple_of_16(self):
        padded = pad_to_multiple(self.sample(30, 33))
        assert padded.image.shape == (3, 32, 48)
        assert padded.target.shape == (1, 32, 48)

    def test_image_pad_replicates_target_pad_zeros(self):
        sample = self.sample(15, 16)
        padded = pad_to_multiple(sample)
        assert np.array_equal(padded.image[:, 15, :], sample.image[:, 14, :])
        assert np.all(padded.target[:, 15, :] == 0.0)

    def test_aligned_sample_passes_through(self):
        sample = self.sample(32, 64)
        assert pad_to_multiple(sample) is sample

    def test_crop_inverts_padding(self):
        sample = self.sample(30, 33)
        padded = pad_to_multiple(sample)
        assert np.array_equal(crop_to_original(padded.image, sample), sample.image)
        prediction = np.zeros((1, 1, 32, 48))
        assert crop_to_original(prediction, sample).shape == (1, 1, 30, 33)


class TestManifests:
    def test_round_trip_preserves_order(self, tmp_path):
        for name in ("a.ppm", "b.ppm", "a_gt.pgm", "b_gt.pgm"):
            save_map(np.zeros((4, 4)), tmp_path / name) if name.endswith(".pgm") \
                else save_image(np.zeros((3, 4, 4)), tmp_path / name)
        write_manifest(tmp_path / "manifest.tsv", [("b.ppm", "b_gt.pgm"), ("a.ppm", "a_gt.pgm")])
        manifest = load_manifest(tmp_path / "manifest.tsv", "saliency")
        assert len(manifest) == 2
        assert [img.name for img, _ in manifest.entries] == ["b.ppm", "a.ppm"]
        assert manifest.kind == "saliency"

    def test_missing_referenced_file_raises(self, tmp_path):
        write_manifest(tmp_path / "manifest.tsv", [("ghost.ppm", "ghost.pgm")])
        with pytest.raises(DataError, match="ghost"):
            load_manifest(tmp_path / "manifest.tsv", "saliency")

    def test_malformed_line_raises(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("only-one-column\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "manifest.tsv", "saliency")

    def test_manifest_not_utf8_raises(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"img\xff.ppm\tgt.pgm\n")
        with pytest.raises(DataError, match="manifest.tsv.*UTF-8"):
            load_manifest(path, "saliency")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        save_image(np.zeros((3, 4, 4)), tmp_path / "a.ppm")
        save_map(np.zeros((4, 4)), tmp_path / "a_gt.pgm")
        (tmp_path / "manifest.tsv").write_bytes(b"\xef\xbb\xbfa.ppm\ta_gt.pgm\n")
        manifest = load_manifest(tmp_path / "manifest.tsv", "saliency")
        assert manifest.entries == [(tmp_path / "a.ppm", tmp_path / "a_gt.pgm")]

    def test_empty_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("\n\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "manifest.tsv", "saliency")

    def test_unknown_kind_raises(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("a\tb\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "manifest.tsv", "boundaries")

    def test_load_entry_checks_size_agreement(self, tmp_path):
        save_image(np.zeros((3, 8, 8)), tmp_path / "img.ppm")
        save_map(np.zeros((4, 4)), tmp_path / "gt.pgm")
        write_manifest(tmp_path / "manifest.tsv", [("img.ppm", "gt.pgm")])
        manifest = load_manifest(tmp_path / "manifest.tsv", "saliency")
        with pytest.raises(DataError):
            load_entry(manifest, 0)


class TestSyntheticSamples:
    def test_saliency_sample_is_deterministic(self):
        a_img, a_gt = synth_saliency_sample(32, seed=5, index=2)
        b_img, b_gt = synth_saliency_sample(32, seed=5, index=2)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_gt, b_gt)

    def test_samples_vary_with_seed_and_index(self):
        base, _ = synth_saliency_sample(32, seed=5, index=2)
        other_seed, _ = synth_saliency_sample(32, seed=6, index=2)
        other_index, _ = synth_saliency_sample(32, seed=5, index=3)
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_index)

    def test_sample_ranges_and_shapes(self):
        image, target = synth_saliency_sample(48, seed=0, index=0)
        assert image.shape == (3, 48, 48)
        assert target.shape == (48, 48)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert set(np.unique(target)) <= {0.0, 1.0}

    def test_saliency_foreground_fraction_stats(self):
        # mean over 100 samples sits in the advertised band
        fractions = [synth_saliency_sample(64, seed=0, index=i)[1].mean()
                     for i in range(100)]
        assert 0.05 <= np.mean(fractions) <= 0.5

    def test_edge_targets_are_sparse_binary_contours(self):
        fractions = []
        for i in range(50):
            image, target = synth_edge_sample(64, seed=0, index=i)
            assert image.shape == (3, 64, 64)
            assert set(np.unique(target)) <= {0.0, 1.0}
            fractions.append(target.mean())
            # contours cover far less area than the shapes they outline
            assert target.mean() < 0.3
        assert 0.0 < np.mean(fractions) < 0.15

    def test_edge_sample_is_deterministic(self):
        a_img, a_gt = synth_edge_sample(32, seed=1, index=4)
        b_img, b_gt = synth_edge_sample(32, seed=1, index=4)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_gt, b_gt)


class TestSyntheticDatasets:
    def test_writes_files_and_manifest(self, tmp_path):
        manifest = synth_saliency_dataset(tmp_path / "ds", 3, 32, seed=0)
        assert len(manifest) == 3
        assert manifest.kind == "saliency"
        sample = load_entry(manifest, 1)
        assert sample.image.shape == (3, 32, 32)
        assert sample.target.shape == (1, 32, 32)

    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        a = synth_saliency_dataset(tmp_path / "a", 2, 32, seed=9)
        b = synth_saliency_dataset(tmp_path / "b", 2, 32, seed=9)
        for (img_a, gt_a), (img_b, gt_b) in zip(a.entries, b.entries):
            assert img_a.read_bytes() == img_b.read_bytes()
            assert gt_a.read_bytes() == gt_b.read_bytes()

    def test_samples_depend_only_on_index(self, tmp_path):
        # growing the dataset must not disturb earlier items
        small = synth_saliency_dataset(tmp_path / "small", 2, 32, seed=3)
        large = synth_saliency_dataset(tmp_path / "large", 5, 32, seed=3)
        for (img_s, gt_s), (img_l, gt_l) in zip(small.entries, large.entries):
            assert img_s.read_bytes() == img_l.read_bytes()
            assert gt_s.read_bytes() == gt_l.read_bytes()

    def test_edge_dataset_kind(self, tmp_path):
        manifest = synth_edge_dataset(tmp_path / "e", 2, 32, seed=0)
        assert manifest.kind == "edge"

    def test_invalid_requests_raise(self, tmp_path):
        with pytest.raises(DataError):
            synth_saliency_dataset(tmp_path / "x", 0, 32, seed=0)
        with pytest.raises(DataError):
            synth_saliency_dataset(tmp_path / "y", 1, 4, seed=0)
