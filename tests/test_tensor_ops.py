"""Forward semantics of the tensor ops: hand-derived values, identities,
and error contracts."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import poolnet.nn
from poolnet.config import ModelConfig
from poolnet.errors import ShapeError
from poolnet.losses import bce_with_logits
from poolnet.model import build_model
from poolnet.tensor import (
    UPSAMPLE_FACTORS,
    Tensor,
    _BAND_MIN_MACS,
    _band_edges,
    _pad,
    _pad_rows,
    add,
    adaptive_avg_pool2d,
    avg_pool2d,
    backward,
    concat_channels,
    conv2d,
    crop2d,
    default_dtype,
    get_default_dtype,
    global_avg_pool,
    max_pool2d,
    mul,
    no_grad,
    pad_replicate2d,
    reduce_sum,
    relu,
    resize_bilinear,
    sigmoid,
    upsample_bilinear,
)


# the models and sizes whose every conv shape the banded-forward tests run
MODEL_CONV_RUNS = [
    pytest.param(ModelConfig(), (304, 400), id="default-304x400"),
    pytest.param(ModelConfig(enable_edge=True), (304, 400), id="edge-304x400"),
    pytest.param(ModelConfig(ppm_sizes=(2, 3)), (64, 64), id="ppm23-64x64"),
]


def t(values, requires_grad=False, dtype=np.float64):
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def image(values):
    """Wrap a 2-D list as a 1x1xHxW tensor."""
    return t([[values]])


def _base(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def vjp_closures(loss):
    """The closure values of every VJP in ``loss``'s graph, walked through
    ``_parents`` and ``_vjp`` alone."""
    values, seen, stack = [], set(), [loss]
    while stack:
        entry = stack.pop()
        if id(entry) in seen or entry._vjp is None:
            continue
        seen.add(id(entry))
        values.extend(cell.cell_contents for cell in entry._vjp.__closure__ or ())
        stack.extend(entry._parents)
    return values


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        assert Tensor([[[[0.0]]]]).dtype == np.float32

    def test_default_dtype_context_switches_and_restores(self):
        with default_dtype(np.float64):
            assert Tensor([[[[0.0]]]]).dtype == np.float64
            assert get_default_dtype() == np.float64
        assert get_default_dtype() == np.float32

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            t([[[[1.0, 2.0]]]]).item()

    def test_item_returns_python_float(self):
        value = t([[[[3.5]]]]).item()
        assert isinstance(value, float)
        assert value == 3.5


class TestConv2d:
    def test_ones_kernel_counts_window(self):
        # all-ones 3x3 input and kernel with padding 1: centre sees the full window
        x = image([[1.0] * 3] * 3)
        w = t([[[[1.0] * 3] * 3]])
        out = conv2d(x, w, t([0.0]))
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 9.0
        # corners see a 2x2 window, edges a 2x3 window
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 1] == 6.0

    def test_impulse_response_is_flipped_kernel(self):
        # cross-correlation: a centred impulse reads the kernel back rotated 180 degrees
        x = image([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        w = t([[[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]]])
        out = conv2d(x, w, t([0.0]))
        expected = [[9.0, 8.0, 7.0], [6.0, 5.0, 4.0], [3.0, 2.0, 1.0]]
        assert np.array_equal(out.data[0, 0], expected)

    def test_channels_sum_and_bias_adds(self):
        x = t([[[[2.0]], [[3.0]]]])  # 1x2x1x1
        w = t([[[[10.0]], [[100.0]]]])  # 1x2x1x1 kernel
        out = conv2d(x, w, bias=t([0.5]))
        assert out.data[0, 0, 0, 0] == 2.0 * 10 + 3.0 * 100 + 0.5

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))), t([0.0]))

    def test_even_or_non_square_kernel_raises(self):
        # half-kernel padding keeps the input's size only for a square odd kernel
        for kh, kw in ((2, 2), (4, 4), (3, 1), (1, 3), (3, 5)):
            with pytest.raises(ShapeError, match="square with an odd side"):
                conv2d(t(np.zeros((1, 1, 6, 6))), t(np.zeros((1, 1, kh, kw))), t([0.0]))

    def test_bad_bias_shape_raises(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.zeros((1, 1, 4, 4))), t(np.zeros((2, 1, 3, 3))), bias=t([1.0]))

    REFERENCE_CASES = [(1, 5, 7, 3), (2, 5, 7, 3), (1, 5, 7, 1), (1, 2, 2, 3), (2, 1, 1, 3),
                       (1, 1, 1, 1)]

    # each id reads n-h-w-k-stride-padding
    @pytest.mark.parametrize("n, h, w, k", REFERENCE_CASES,
                             ids=[f"{n}-{h}-{w}-{k}-1-{k // 2}" for n, h, w, k in REFERENCE_CASES])
    def test_matches_reference(self, conv_reference, n, h, w, k):
        rng = np.random.default_rng(h * 100 + w * 10 + k + 1 + k // 2)
        x = t(rng.standard_normal((n, 3, h, w)), requires_grad=True)
        weight = t(rng.standard_normal((4, 3, k, k)), requires_grad=True)
        bias = t(rng.standard_normal(4), requires_grad=True)
        out = conv2d(x, weight, bias)
        assert out.shape == (n, 4, h, w)
        g = rng.standard_normal(out.shape)
        d_x, d_w, d_b = out._vjp(g)
        expected = conv_reference(x.data, weight.data, bias.data, 1, k // 2, g)
        for got, want in zip((out.data, d_x, d_w, d_b), expected):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # each id reads x_shape<row>-out_c-k-stride-layout
    @pytest.mark.parametrize("x_shape, out_c, k, layout", [
        pytest.param((1, 32, 6, 512), 32, 3, "one-row", id="x_shape0-32-3-1-one-row"),
        pytest.param((1, 32, 38, 50), 32, 3, "uneven", id="x_shape1-32-3-1-uneven"),
        pytest.param((1, 16, 152, 200), 16, 3, "uneven", id="x_shape2-16-3-1-uneven"),
        pytest.param((2, 32, 38, 50), 32, 3, "uneven", id="x_shape3-32-3-1-uneven"),
        pytest.param((2, 16, 152, 200), 1, 1, "one-gemm", id="x_shape4-1-1-1-one-gemm"),
    ])
    def test_banded_forward_matches_one_gemm(self, conv_forward_reference,
                                             x_shape, out_c, k, layout):
        rng = np.random.default_rng(sum(x_shape) + out_c + k + 1)
        x = Tensor(rng.standard_normal(x_shape), dtype=np.float32)
        weight = Tensor(rng.standard_normal((out_c, x_shape[1], k, k)), dtype=np.float32)
        bias = Tensor(rng.standard_normal(out_c), dtype=np.float32)
        out = conv2d(x, weight, bias)
        rows = np.diff(_band_edges(out_c, x_shape[1] * k * k, *out.shape[2:], 4))
        assert {"one-row": set(rows) == {1} and len(rows) > 1,
                "uneven": len(set(rows)) == 2,
                "one-gemm": len(rows) == 1}[layout], rows
        want = conv_forward_reference(x.data, weight.data, bias.data)
        assert out.data.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("config, size", MODEL_CONV_RUNS)
    def test_banded_forward_matches_one_gemm_on_model_shapes(
            self, conv_forward_reference, monkeypatch, config, size):
        outcome = {}

        def checked_conv2d(x, weight, bias):
            key = (x.shape, weight.shape)
            out = conv2d(x, weight, bias)
            if key not in outcome:
                want = conv_forward_reference(x.data, weight.data, bias.data)
                outcome[key] = out.data.tobytes() == np.ascontiguousarray(want).tobytes()
            return out

        monkeypatch.setattr(poolnet.nn, "conv2d", checked_conv2d)
        model = build_model(config, seed=0)
        image = Tensor(np.random.default_rng(0).random((1, 3) + size), dtype=np.float32)
        with no_grad():
            model(image)
        assert len(outcome) >= 20
        assert [key for key, same in outcome.items() if not same] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config, size", MODEL_CONV_RUNS)
    def test_band_border_is_the_padded_rows(self, monkeypatch, config, size, dtype):
        # every band the forward runs on these shapes builds the same bytes
        # as the rows of the whole padded input
        bands, differ = 0, []

        def checked_conv2d(x, weight, bias):
            nonlocal bands
            out_c, c, k, _ = weight.shape
            whole = _pad(x.data, k // 2)
            edges = _band_edges(out_c, c * k * k, *x.shape[2:], x.data.itemsize)
            for r0, r1 in zip(edges[:-1], edges[1:]):
                got, want = _pad_rows(x.data, k // 2, r0, r1), whole[:, :, r0:r1 + k - 1]
                bands += 1
                if got.shape != want.shape or got.tobytes() != want.tobytes():
                    differ.append((x.shape, weight.shape, r0, r1))
            return conv2d(x, weight, bias)

        monkeypatch.setattr(poolnet.nn, "conv2d", checked_conv2d)
        with default_dtype(dtype):
            model = build_model(config, seed=0)
            with no_grad():
                model(Tensor(np.random.default_rng(0).random((1, 3) + size)))
        assert bands >= 40
        assert differ == []

    def test_forward_holds_no_whole_patch_matrix(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 16, 304, 400)), dtype=np.float32)
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), dtype=np.float32)
        bias = Tensor(np.zeros(16), dtype=np.float32)
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, weight, bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole patch matrix would be 9x the input (70 MB here), and the
        # whole padded input 7.5 MB; each band pads only its own rows
        assert peak < out.data.nbytes + 4 * 2**20

    def test_recorded_conv_keeps_no_padded_copy(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 16, 304, 400)), requires_grad=True, dtype=np.float32)
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True,
                        dtype=np.float32)
        bias = Tensor(np.zeros(16), dtype=np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, weight, bias)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the VJP re-pads from x; a kept padded input would add 7.9 MB
        assert out._vjp is not None
        assert held <= out.data.nbytes + 2**20

    @pytest.fixture(scope="class")
    def banded_vjp_shapes(self):
        """Every (x shape, weight shape, dtype) of the default and edge
        models at 304x400 and the gate model at 64x64 in float32, at batch 1
        and 2, whose VJP splits a GEMM: d_weight by kernel tap or d_x by band."""
        seen = []

        def recording_conv2d(x, weight, bias):
            key = (x.shape[1:], weight.shape)
            if key not in seen:
                seen.append(key)
            return conv2d(x, weight, bias)

        saved = poolnet.nn.conv2d
        poolnet.nn.conv2d = recording_conv2d
        try:
            for config, size in ((ModelConfig(), (304, 400)),
                                 (ModelConfig(enable_edge=True), (304, 400)),
                                 (ModelConfig(ppm_sizes=(2, 3)), (64, 64))):
                image = Tensor(np.random.default_rng(0).random((1, 3) + size), dtype=np.float32)
                with no_grad():
                    build_model(config, seed=0)(image)
        finally:
            poolnet.nn.conv2d = saved
        return [((n,) + x_shape, w_shape, "float32")
                for n in (1, 2) for x_shape, w_shape in seen
                if w_shape[0] * n * np.prod(x_shape) >= _BAND_MIN_MACS
                or len(_band_edges(w_shape[0], np.prod(w_shape[1:]), *x_shape[1:], 4)) > 2]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_banded_vjp_matches_one_gemm_on_model_shapes(self, banded_vjp_shapes, threads):
        # a child interpreter, as OpenBLAS reads its thread count once at load;
        # a BLAS whose per-tap GEMMs round otherwise fails here instead of drifting
        package_root = os.path.dirname(os.path.dirname(poolnet.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        # one shape in float64 too, the gradient checks' mode
        shapes = banded_vjp_shapes + [((1, 32, 152, 200), (32, 32, 3, 3), "float64")]
        done = subprocess.run([sys.executable, __file__], input=json.dumps(shapes),
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert len(banded_vjp_shapes) >= 60
        for x_shape, w_shape in (((1, 64, 76, 100), (64, 64, 3, 3)),
                                 ((1, 16, 64, 64), (16, 16, 3, 3)),
                                 ((1, 32, 32, 32), (32, 32, 3, 3))):
            assert (x_shape, w_shape, "float32") in banded_vjp_shapes
        assert json.loads(done.stdout) == []

    def test_banded_vjp_holds_no_whole_patch_matrix(self):
        rng = np.random.default_rng(9)
        # the one-GEMM VJP built the patch matrix for d_weight, then a d_cols
        # as large: 70 MB each for 16->16 at 304x400, whose padded input and
        # d_x are 7.9 MB each, and 17 MB each for 64->64 at 76x100 (2 MB);
        # 3->16 at 304x400 and 32->64 at 76x100 split by the GEMM floor alone
        for x_shape, out_c, bound_mib in (((1, 16, 304, 400), 16, 20),
                                          ((1, 64, 76, 100), 64, 10),
                                          ((1, 3, 304, 400), 16, 6),
                                          ((1, 32, 76, 100), 64, 6)):
            c = x_shape[1]
            x = Tensor(rng.standard_normal(x_shape), requires_grad=True, dtype=np.float32)
            weight = Tensor(rng.standard_normal((out_c, c, 3, 3)), requires_grad=True,
                            dtype=np.float32)
            out = conv2d(x, weight, Tensor(np.zeros(out_c), dtype=np.float32))
            g = rng.standard_normal(out.shape).astype(np.float32)
            tracemalloc.start()
            try:
                out._vjp(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, x_shape

    def test_input_without_lineage_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((1, 2, 6, 5))
        weight = t(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        g = rng.standard_normal((1, 3, 6, 5))
        grads = {}
        for needs_grad in (True, False):
            x = t(data, requires_grad=needs_grad)
            out = conv2d(x, weight, t(np.zeros(3)))
            d_x = out._vjp(g)[0]
            assert (d_x is not None) == needs_grad
            weight.zero_grad()
            backward(reduce_sum(mul(out, t(g))))
            assert (x.grad is not None) == needs_grad
            grads[needs_grad] = weight.grad
        assert np.array_equal(grads[True], grads[False])


class TestAvgPool:
    def test_rate_two_mean(self):
        out = avg_pool2d(image([[1.0, 2.0], [3.0, 4.0]]), 2)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 2.5

    def test_rate_one_is_identity(self):
        x = image([[1.0, 2.0], [3.0, 4.0]])
        assert avg_pool2d(x, 1) is x

    def test_indivisible_size_raises(self):
        with pytest.raises(ShapeError):
            avg_pool2d(t(np.zeros((1, 1, 5, 4))), 2)

    def test_matches_mean_of_blocks(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 8))
        out = avg_pool2d(t(x), 4)
        expected = x.reshape(2, 3, 2, 4, 2, 4).mean(axis=(3, 5))
        assert np.allclose(out.data, expected, atol=1e-12)


class TestAdaptiveAvgPool:
    @staticmethod
    def reference_bins(in_size, out_size):
        # independent formulation: floor/ceil of the fractional bin edges
        return [(math.floor(i * in_size / out_size),
                 math.ceil((i + 1) * in_size / out_size))
                for i in range(out_size)]

    def test_bins_five_to_three(self):
        assert self.reference_bins(5, 3) == [(0, 2), (1, 4), (3, 5)]

    # an int is a square size; an (h, w) pair is rectangular
    @pytest.mark.parametrize("in_size,out_size", [
        (5, 3), (7, 3), (8, 5), (9, 2), (6, 6), (13, 4),
        pytest.param((5, 7), (3, 2), id="5x7-3x2"),
        pytest.param((19, 25), (3, 3), id="19x25-3x3"),
        pytest.param((19, 25), (5, 5), id="19x25-5x5"),
    ])
    def test_matches_reference_bins(self, in_size, out_size):
        h, w = np.broadcast_to(in_size, 2)
        out_h, out_w = np.broadcast_to(out_size, 2)
        rng = np.random.default_rng(h * 31 + out_h)
        x = rng.normal(size=(1, 2, h, w))
        out = adaptive_avg_pool2d(t(x), out_h, out_w)
        rows = self.reference_bins(h, out_h)
        cols = self.reference_bins(w, out_w)
        expected = np.empty((1, 2, out_h, out_w))
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                expected[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_same_size_preserves_values(self):
        x = image([[1.0, 2.0], [3.0, 4.0]])
        out = adaptive_avg_pool2d(x, 2, 2)
        assert np.array_equal(out.data, x.data)

    def test_upsampling_request_raises(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool2d(t(np.zeros((1, 1, 3, 3))), 5, 5)

    def test_global_pool_is_mean(self):
        x = image([[1.0, 2.0], [3.0, 5.0]])
        out = global_avg_pool(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 2.75


class TestMaxPool:
    def test_block_maxima(self):
        x = image([[1.0, 2.0, 5.0, 0.0],
                   [3.0, 4.0, 1.0, 1.0],
                   [0.0, 0.0, 2.0, 2.0],
                   [9.0, 0.0, 2.0, 2.0]])
        out = max_pool2d(x)
        assert np.array_equal(out.data[0, 0], [[4.0, 5.0], [9.0, 2.0]])

    def test_tie_gradient_goes_to_first_row_major(self):
        x = t([[[[7.0, 7.0], [7.0, 7.0]]]], requires_grad=True)
        backward(reduce_sum(max_pool2d(x)))
        assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_indivisible_size_raises(self):
        with pytest.raises(ShapeError):
            max_pool2d(t(np.zeros((1, 1, 6, 5))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["random", "integer-ties", "signed-zeros", "two-nans",
                                      "nan-beside-inf", "batch-2"])
    def test_matches_argmax_reference(self, max_pool_reference, case, dtype):
        rng = np.random.default_rng(len(case))
        shape = (2, 3, 8, 12) if case == "batch-2" else (1, 3, 8, 12)
        if case == "random":
            data = rng.standard_normal(shape)
        elif case == "signed-zeros":
            data = rng.choice([-0.0, 0.0, -1.0], size=shape)
        else:
            data = rng.integers(-2, 3, size=shape).astype(np.float64)
        data = data.astype(dtype)
        if case == "two-nans":
            payload = np.array(np.nan, dtype=dtype)
            payload.view(f"u{payload.itemsize}")[...] += 1  # another NaN's bits
            data[0, 0, 0, 1] = payload
            data[0, 0, 1, 0] = np.nan
            data[0, 1, 1, 1] = np.nan
        if case == "nan-beside-inf":
            data[0, 0, 0, :4] = [np.inf, np.nan, np.nan, np.inf]
            data[0, 0, 1, :4] = [np.inf, -np.inf, -np.inf, np.inf]
        x = Tensor(data, requires_grad=True, dtype=dtype)
        out = max_pool2d(x)
        g = rng.standard_normal(out.shape).astype(dtype)
        want_out, want_dx = max_pool_reference(data, 2, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert out._vjp(g)[0].tobytes() == want_dx.tobytes()


class TestBilinear:
    def test_upsample_row_half_pixel_values(self):
        # width 2 -> 4 with half-pixel centres: src = (d + 0.5) / 2 - 0.5
        out = resize_bilinear(image([[0.0, 1.0]]), 1, 4)
        assert np.allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    def test_downsample_row_half_pixel_values(self):
        # width 4 -> 2: src = 2d + 0.5, the midpoint of each input pair
        out = resize_bilinear(image([[1.0, 2.0, 3.0, 4.0]]), 1, 2)
        assert np.allclose(out.data[0, 0, 0], [1.5, 3.5], atol=1e-12)

    def test_constant_input_is_reproduced_exactly(self):
        x = t(np.full((1, 2, 3, 5), 0.3712, dtype=np.float32), dtype=np.float32)
        out = resize_bilinear(x, 11, 17)
        assert np.array_equal(out.data, np.full((1, 2, 11, 17), np.float32(0.3712)))

    def test_same_size_is_identity(self):
        x = image([[1.0, 2.0], [3.0, 4.0]])
        assert resize_bilinear(x, 2, 2) is x

    def test_upsample_matches_resize(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(1, 2, 3, 4)))
        assert np.array_equal(upsample_bilinear(x, 4).data, resize_bilinear(x, 12, 16).data)

    @pytest.mark.parametrize("factor", [0, 1, 3, 5, 32])
    def test_unsupported_factor_raises(self, factor):
        with pytest.raises(ShapeError):
            upsample_bilinear(image([[1.0]]), factor)

    def test_supported_factors(self):
        assert UPSAMPLE_FACTORS == (2, 4, 8, 16)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_shape, out_h, out_w", [
        ((1, 3, 5, 6), 10, 12),
        ((1, 3, 5, 6), 20, 24),
        ((1, 3, 5, 6), 40, 48),
        ((1, 3, 5, 6), 80, 96),
        ((1, 4, 1, 1), 19, 25),
        ((1, 4, 3, 3), 19, 25),
        ((1, 4, 5, 5), 19, 25),
        ((1, 2, 10, 10), 4, 7),
        ((1, 2, 6, 7), 6, 14),
        ((1, 2, 6, 7), 12, 7),
        ((2, 3, 5, 6), 10, 12),
    ])
    def test_vjp_matches_reference(self, resize_reference, in_shape, out_h, out_w, dtype):
        rng = np.random.default_rng(out_h * 100 + out_w)
        x = t(rng.standard_normal(in_shape), requires_grad=True, dtype=dtype)
        out = resize_bilinear(x, out_h, out_w)
        g = rng.standard_normal(out.shape).astype(dtype)
        (d_x,) = out._vjp(g)
        want = resize_reference(in_shape, g)
        assert d_x.dtype == want.dtype and d_x.shape == want.shape
        assert d_x.flags.c_contiguous
        assert d_x.tobytes() == want.tobytes()

    def test_vjp_non_finite_matches_reference(self, resize_reference):
        rng = np.random.default_rng(5)
        x = t(rng.standard_normal((1, 2, 5, 6)), requires_grad=True, dtype=np.float32)
        out = resize_bilinear(x, 10, 12)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g[0, 0, 3, 4] = np.nan
        g[0, 1, 0, 0] = np.inf
        g[0, 1, 7, 9] = -np.inf
        g[0, 1, 9, 11] = np.inf  # inf - inf within one input cell
        with np.errstate(invalid="ignore"):
            (d_x,) = out._vjp(g)
            want = resize_reference((1, 2, 5, 6), g)
        nan = np.isnan(want)
        assert nan.any() and np.isinf(want).any()
        # NaN sign bits may differ; every other value is bit-identical
        assert np.array_equal(np.isnan(d_x), nan)
        assert d_x[~nan].tobytes() == want[~nan].tobytes()


class TestPadCrop:
    def test_replicate_pad_repeats_border(self):
        x = image([[1.0, 2.0], [3.0, 4.0]])
        out = pad_replicate2d(x, 1, 2)
        expected = [[1.0, 2.0, 2.0, 2.0],
                    [3.0, 4.0, 4.0, 4.0],
                    [3.0, 4.0, 4.0, 4.0]]
        assert np.array_equal(out.data[0, 0], expected)

    def test_zero_pad_is_identity(self):
        x = image([[1.0]])
        assert pad_replicate2d(x, 0, 0) is x

    def test_pad_gradient_folds_onto_border(self):
        x = t([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
        backward(reduce_sum(pad_replicate2d(x, 1, 1)))
        # each padded cell contributes back to the border cell it copied
        assert np.array_equal(x.grad[0, 0], [[1.0, 2.0], [2.0, 4.0]])

    def test_crop_keeps_top_left(self):
        x = image([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        out = crop2d(x, 2, 2)
        assert np.array_equal(out.data[0, 0], [[1.0, 2.0], [4.0, 5.0]])

    def test_crop_full_size_is_identity(self):
        x = image([[1.0, 2.0]])
        assert crop2d(x, 1, 2) is x

    def test_crop_too_large_raises(self):
        with pytest.raises(ShapeError):
            crop2d(image([[1.0]]), 2, 1)

    def test_pad_crop_round_trip(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(1, 3, 5, 7)))
        assert np.array_equal(crop2d(pad_replicate2d(x, 3, 1), 5, 7).data, x.data)


class TestPointwise:
    def test_relu_clamps_negatives(self):
        out = relu(image([[-1.0, 0.0, 2.5]]))
        assert np.array_equal(out.data[0, 0, 0], [0.0, 0.0, 2.5])

    def test_relu_gradient_passes_where_input_is_positive(self):
        values = [-1.0, -0.0, 0.0, 2.5, math.nan, math.inf, -math.inf]
        x = t([[[values]]], requires_grad=True)
        g = np.full(x.shape, 3.0)
        assert np.array_equal(relu(x)._vjp(g)[0][0, 0, 0], [0, 0, 0, 3, 0, 3, 0])

    def test_sigmoid_midpoint_and_symmetry(self):
        out = sigmoid(image([[0.0, 3.0, -3.0]]))
        assert out.data[0, 0, 0, 0] == 0.5
        assert np.isclose(out.data[0, 0, 0, 1] + out.data[0, 0, 0, 2], 1.0, atol=1e-12)

    def test_sigmoid_extreme_logits_stay_finite(self):
        out = sigmoid(image([[-500.0, 500.0]]))
        assert np.all(np.isfinite(out.data))
        assert 0.0 <= out.data[0, 0, 0, 0] < 1e-100
        assert out.data[0, 0, 0, 1] == 1.0

    def test_add_and_mul_elementwise(self):
        a = image([[1.0, 2.0]])
        b = image([[10.0, 20.0]])
        assert np.array_equal(add(a, b).data[0, 0, 0], [11.0, 22.0])
        assert np.array_equal(mul(a, b).data[0, 0, 0], [10.0, 40.0])

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            add(image([[1.0]]), image([[1.0, 2.0]]))

    def test_reduce_sum_shape_and_value(self):
        out = reduce_sum(t(np.ones((2, 3, 4, 5))))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 120.0


class TestConcat:
    def test_channel_slices_preserved(self):
        a = t(np.full((1, 2, 2, 2), 1.0))
        b = t(np.full((1, 3, 2, 2), 2.0))
        out = concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        assert np.array_equal(out.data[:, :2], a.data)
        assert np.array_equal(out.data[:, 2:], b.data)

    def test_single_input_passthrough_values(self):
        a = t(np.arange(8.0).reshape(1, 2, 2, 2))
        assert np.array_equal(concat_channels([a]).data, a.data)

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            concat_channels([t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 2)))])

    def test_gradient_splits_by_channel(self):
        a = t(np.ones((1, 1, 1, 1)), requires_grad=True)
        b = t(np.ones((1, 2, 1, 1)), requires_grad=True)
        weights = t(np.array([[[[1.0]], [[2.0]], [[3.0]]]]))
        backward(reduce_sum(mul(concat_channels([a, b]), weights)))
        assert np.array_equal(a.grad.reshape(-1), [1.0])
        assert np.array_equal(b.grad.reshape(-1), [2.0, 3.0])


def default_model_at_304x400():
    """The default model, an image and a target at the paper's padded size."""
    model = build_model(ModelConfig(), seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(size=(1, 3, 304, 400)))
    target = (rng.uniform(size=(1, 1, 304, 400)) > 0.5).astype(np.float32)
    return model, x, target


class TestBackwardContract:
    def test_graph_holds_only_what_its_vjps_read(self):
        model, x, target = default_model_at_304x400()
        tracemalloc.start()
        try:
            loss = bce_with_logits(model(x).saliency, target)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        closed = vjp_closures(loss)
        assert not any(isinstance(v, Tensor) for v in closed)
        # The bound is what the VJPs read: the distinct arrays their closures
        # hold (ReLU outputs, conv inputs, max-pool taps, the loss's logits,
        # the pools' averaging matrices), less those made before the forward
        # (parameters, image, target), plus 1 MiB for the nodes and closures
        # themselves.  That is about 54 MB here; a graph that kept every op
        # output alive until backward held 173 MB.
        before = {id(_base(a)) for a in [p.data for _, p in model.named_parameters()] + [x.data, target]}
        bases = {id(b): b for b in (_base(v) for v in closed if isinstance(v, np.ndarray))}
        read = sum(b.nbytes for key, b in bases.items() if key not in before)
        assert held <= read + 2**20

    def test_backward_frees_the_graph_as_it_goes(self):
        model, x, target = default_model_at_304x400()
        tracemalloc.start()
        try:
            loss = bce_with_logits(model(x).saliency, target)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vjp_closures(loss) == []
        # The forward holds about 54 MB of graph.  Freeing each node once its
        # VJP has returned keeps the backward within 10.5 MB of that (the new
        # gradients and one conv VJP's buffers); a backward that kept the
        # whole graph to its end peaked 30.6 MB above it.
        assert peak <= held + 16 * 2**20

    def test_replaced_vjp_is_what_backward_runs(self):
        # a profiler wraps each recorded op's VJP in place and reads its
        # parents' entries to tell which gradients are kept
        rng = np.random.default_rng(5)
        picture = t(rng.standard_normal((1, 2, 6, 5)))
        weight = t(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        out = conv2d(picture, weight, t(np.zeros(3)))
        inner, calls = out._vjp, []

        def wrapper(g):
            grads = tuple(inner(g))
            calls.append(grads)
            return grads

        out._vjp = wrapper
        assert out._vjp is wrapper
        assert [(p.requires_grad, p._vjp is not None) for p in out._parents] == \
            [(False, False), (True, False), (False, False)]
        loss = reduce_sum(relu(out))
        assert loss._parents[0]._parents[0]._vjp is wrapper
        backward(loss)
        assert len(calls) == 1
        assert calls[0][0] is None and picture.grad is None
        assert np.array_equal(weight.grad, calls[0][1])

    def test_second_backward_raises_and_keeps_leaf_gradients(self):
        x = t([[[[2.0, -1.0], [0.5, 3.0]]]], requires_grad=True)
        loss = reduce_sum(mul(x, x))
        backward(loss)
        first = x.grad.tobytes()
        with pytest.raises(ShapeError, match="consumed"):
            backward(loss)
        assert x.grad.tobytes() == first

    def test_backward_into_a_consumed_shared_subgraph_raises_first(self):
        # two losses from one forward: the second reaches x on its own path
        # and the first's consumed nodes on another, and must touch no leaf
        x = t([[[[2.0, -1.0], [0.5, 3.0]]]], requires_grad=True)
        w = t([[[[0.5, 1.5], [-2.0, 1.0]]]], requires_grad=True)
        shared = relu(mul(x, w))
        first = reduce_sum(shared)
        second = reduce_sum(add(mul(x, x), shared))
        backward(first)
        grads = x.grad.tobytes(), w.grad.tobytes()
        with pytest.raises(ShapeError, match="consumed"):
            backward(second)
        assert (x.grad.tobytes(), w.grad.tobytes()) == grads

    def test_summed_away_gradient_is_freed_before_the_next_vjp(self):
        # add's VJP hands its incoming gradient to a twice, and backward sums
        # the two; nothing may keep that gradient alive while a's VJP runs
        x = t([[[[2.0, -1.0], [0.5, 3.0]]]], requires_grad=True)
        a = relu(x)
        total = add(a, a)
        loss = reduce_sum(total)
        add_vjp, a_vjp, incoming, alive = total._vjp, a._vjp, [], []

        def keep_weakref(g):
            incoming.append(weakref.ref(g))
            return add_vjp(g)

        def check_freed(g):
            alive.append(incoming[0]() is not None)
            return a_vjp(g)

        total._vjp, a._vjp = keep_weakref, check_freed
        backward(loss)
        assert alive == [False]
        assert np.array_equal(x.grad, [[[[2.0, 0.0], [2.0, 2.0]]]])

    def test_shared_subexpression_gradient(self):
        # s = x + x contributes twice: d(sum(s))/dx = 2
        x = t([[[[1.5]]]], requires_grad=True)
        backward(reduce_sum(add(x, x)))
        assert x.grad[0, 0, 0, 0] == 2.0

    def test_non_scalar_loss_raises(self):
        x = t(np.ones((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(relu(x))

    def test_no_grad_blocks_lineage(self):
        x = t(np.ones((1, 1, 1, 1)), requires_grad=True)
        with no_grad():
            loss = reduce_sum(relu(x))
        with pytest.raises(ShapeError):
            backward(loss)

    def test_grad_flows_only_to_requires_grad_leaves(self):
        a = t([[[[1.0]]]], requires_grad=True)
        b = t([[[[2.0]]]])
        backward(reduce_sum(mul(a, b)))
        assert a.grad is not None
        assert b.grad is None


def check_banded_vjp(shapes) -> list:
    """conv2d's VJP against the one-GEMM reference on data of each
    (x shape, weight shape, dtype); the shapes whose bytes differ."""
    from conftest import reference_conv2d_vjp

    rng = np.random.default_rng(17)
    differ = []
    for x_shape, w_shape, dtype in shapes:
        x = Tensor(rng.random(x_shape, dtype=dtype) - 0.5, requires_grad=True, dtype=dtype)
        weight = Tensor(rng.random(w_shape, dtype=dtype) - 0.5, requires_grad=True, dtype=dtype)
        out = conv2d(x, weight, Tensor(np.zeros(w_shape[0]), dtype=dtype))
        g = rng.random(out.shape, dtype=dtype) - 0.5
        got = out._vjp(g)[:2]
        want = reference_conv2d_vjp(x.data, weight.data, g)
        if any(np.ascontiguousarray(a).tobytes() != np.ascontiguousarray(b).tobytes()
               for a, b in zip(got, want)):
            differ.append([x_shape, w_shape, dtype])
    return differ


if __name__ == "__main__":
    # run by test_banded_vjp_matches_one_gemm_on_model_shapes: shapes on stdin
    print(json.dumps(check_banded_vjp(json.load(sys.stdin))))
