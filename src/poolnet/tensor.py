"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every layer the saliency models need (convolution, the pooling family,
bilinear upsampling, pointwise activations) is implemented here as a free
function that records its inputs and a vector-Jacobian product on the
output tensor.  ``conv2d`` runs the one convolution the network uses: a
square odd k x k kernel at stride 1, a zero border k // 2 wide, so the
output keeps the input's h x w, and a bias.  It works in one channel-major
layout: a (c*k*k, n*h*w) patch matrix, W (out_c, c*k*k) times it gives the
(out_c, n*h*w) output, and the output gradient in that same layout feeds
both d_weight and d_input, so at batch 1 no operand is transposed.

The conv forward has one loop: it builds that patch matrix for one band of
output rows at a time, across the whole batch, and GEMMs each band into its
slice of one preallocated output.  So a layer's whole patch matrix (70 MB
for the 16->16 conv at 304x400) never exists, and each band is still in
cache when its GEMM reads it.  Every output column is its own dot product
over c*k*k, so in float32 a band gives the bits of the whole GEMM as long
as BLAS runs the same kernel on both.  Below about 1e6 multiply-adds
OpenBLAS's sgemm switches to a small-matrix kernel that rounds differently,
so no band's GEMM may fall under a 2e6 floor; a layer whose whole GEMM is
under it is one band, and so still one GEMM.  In float64, the
gradient-check mode, bands need not keep the bits: those of the 64->64 conv
at 76x100 and the 128->128 conv at 38x50 round differently from one GEMM,
in the forward and in d_x.  Gradient checks compare at a tolerance, so
nothing rests on those bits.

The VJP splits its GEMMs by that same floor.  d_x runs the d_cols GEMM on
one forward band of the output gradient's rows at a time, so each GEMM has a
forward band's multiply-adds, and adds its taps into the padded input
gradient with a (k - 1)-row halo, walking the bands from the bottom, so each
element takes its taps in the (i, j) order of one pass.  d_weight sums over
every output column, so bands would regroup its additions and change its
bits; instead, if one tap's GEMM clears the floor, it runs one GEMM per
kernel tap (i, j), the output gradient times the input shifted by that tap,
as kn2row does (Vasudevan, Anderson & Gregg, ASAP 2017), and otherwise one
GEMM over the whole patch matrix.  A tap splits the one GEMM's output
columns, never its reduction, so each element keeps its dot product, as each
forward band does.  The VJP re-pads the input from its data with the
forward's zero border (``_pad``) rather than keep a padded copy, and drops
it before d_x's buffer exists.  The 16->16 conv's VJP at 304x400 peaks at
16 MB instead of 74.

``max_pool2d`` is the backbone's 2 x 2 pool.  It walks each block's four
strided taps in row-major order under ``np.argmax``'s first-maximum,
first-NaN rule and copies values as bit patterns, so -0.0 and NaN payloads
come out as argmax picks them.  The three
average pools share one separable primitive, y = A_h x A_w^T with a dense
averaging matrix per axis, and its one VJP.  Bilinear resize keeps the exact
lerp form (``np.take`` gathers) in the forward; its VJP scatters each axis in
passes that never write one input twice, which rounds bit for bit as an
``np.add.at`` scatter would (the matrix adjoint A_h^T g A_w sums in another
order, so it is not used).

A recorded op's lineage is a small ``_Node``: its inputs' graph entries and
its VJP.  An entry is the input's node, the input itself if it is a
``requires_grad`` leaf, or the one constant node (for the image, say).  Each
VJP closes over only the arrays it reads, never a ``Tensor``, so an output
that no VJP reads is freed once the forward drops it.  ``backward`` walks
the nodes once, in reverse topological order, into the ``requires_grad``
leaves, and consumes the graph as it goes: each node drops its VJP and its
inputs' entries once its VJP has returned, so what only that VJP read is
freed before the next one runs.  A second backward through a consumed node
raises ``ShapeError`` before any leaf gradient changes.

Two precision modes exist: 64-bit (for gradient checking) and 32-bit (for
training speed).  The mode is a process-wide default applied when tensors
are created; see ``set_default_dtype`` / ``default_dtype``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .config import UPSAMPLE_FACTORS
from .errors import ShapeError

_DEFAULT_DTYPE = np.dtype(np.float32)
_GRAD_ENABLED = True


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are created with (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {dt}")
    _DEFAULT_DTYPE = dt


def get_default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


@contextmanager
def default_dtype(dtype) -> Iterator[None]:
    """Temporarily switch the default tensor dtype."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable lineage recording, e.g. for inference or benchmarking."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class _Node:
    """One recorded op: its inputs' graph entries and the VJP onto them."""

    __slots__ = ("_parents", "_vjp")
    requires_grad = False

    def __init__(self, parents: tuple, vjp: Optional[Callable]):
        self._parents = parents
        self._vjp = vjp


# the one graph entry of every input with no lineage and no gradient
_CONSTANT = _Node((), None)


class Tensor:
    """A dense numeric array with an optional gradient and autograd lineage.

    ``data`` is always a contiguous float32 or float64 ndarray.  ``grad``
    stays ``None`` until ``backward`` reaches this tensor as a leaf; it then
    accumulates across backward calls until cleared.  ``_parents`` and
    ``_vjp`` are an op output's ``_node``'s, both None once a backward has
    consumed it; assigning ``_vjp`` replaces it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        dt = np.dtype(dtype) if dtype is not None else _DEFAULT_DTYPE
        self.data = np.ascontiguousarray(data, dtype=dt)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._node: Optional[_Node] = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self) -> Optional[Callable]:
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp: Callable) -> None:
        self._node._vjp = vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"


def _op_output(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result, recording lineage only when a parent needs it.

    A parent enters the node as its own node, as itself if it is a
    ``requires_grad`` leaf, or else as the constant.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out.requires_grad = False
    out._node = None
    if _GRAD_ENABLED and any(p.requires_grad or p._node for p in parents):
        out._node = _Node(tuple(p._node or (p if p.requires_grad else _CONSTANT)
                                for p in parents), vjp)
    return out


def _check_rank4(t: Tensor, role: str) -> None:
    if t.data.ndim != 4:
        raise ShapeError(f"{role} must be rank-4 (batch, channels, height, width), "
                         f"got rank {t.data.ndim} with shape {t.shape}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

# Per-band minimums of conv2d's forward (see the module docstring), each
# counted for one image of the batch: about 512 KB of patch matrix; 512
# columns, as each band's GEMM packs the whole weight matrix again, which
# narrow deep maps would otherwise repeat too often; and the 2e6
# multiply-add floor that keeps OpenBLAS on one kernel.  That floor decides
# every split GEMM of the conv: the forward's bands, d_x's bands (the same
# ones) and d_weight's kernel taps.
_BAND_BYTES = 1 << 19
_BAND_MIN_COLS = 512
_BAND_MIN_MACS = 2_000_000


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlate ``x`` with ``weight`` (out_c, in_c, k, k), k odd, plus ``bias``.

    The stride is 1 and the input sits in a zero border k // 2 wide, so the
    output has the input's height and width: PoolNet changes resolution only
    by pooling and resizing.  The backward pass fills gradients for the
    weight and the bias, and for the input when it requires grad or has
    lineage.
    """
    _check_rank4(x, "conv2d input")
    _check_rank4(weight, "conv2d weight")
    n, c, h, w = x.shape
    out_c, in_c, k, kw = weight.shape
    if in_c != c:
        raise ShapeError(f"conv2d: input has {c} channels but weight expects {in_c}")
    if kw != k or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be square with an odd side, got {k}x{kw}")
    if bias.data.shape != (out_c,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {out_c} output channels")
    pad = k // 2

    x_data, w_shape = x.data, weight.shape
    xp = _pad(x_data, pad)
    w2 = weight.data.reshape(out_c, -1)
    edges = _band_edges(out_c, w2.shape[1], h, w, xp.itemsize)
    out = np.empty((out_c, n, h, w), dtype=np.result_type(xp, w2))
    for r0, r1 in zip(edges[:-1], edges[1:]):
        cols = _im2col(xp[:, :, r0:r1 + k - 1], k, r1 - r0, w)
        out[:, :, r0:r1] = np.dot(w2, cols).reshape(out_c, n, r1 - r0, w)
    out += bias.data[:, None, None, None]
    # decided at record time: an input with no lineage, such as the image,
    # needs no d_x
    need_dx = x.requires_grad or x._node is not None

    def vjp(g: np.ndarray):
        # the padded input and its patch matrix are rebuilt from x's data
        # rather than kept from the forward: every layer's copies held until
        # backward would dominate peak memory
        g2 = g.transpose(1, 0, 2, 3).reshape(out_c, -1)
        xp = _pad(x_data, pad)
        if out_c * c * g2.shape[1] >= _BAND_MIN_MACS:
            # one GEMM per kernel tap: each d_weight element keeps the one
            # GEMM's dot product over every output column
            d_weight = np.empty(w_shape, dtype=np.result_type(g2, xp))
            for i in range(k):
                for j in range(k):
                    d_weight[:, :, i, j] = np.dot(g2, _im2col(xp[:, :, i:, j:], 1, h, w).T)
        else:
            d_weight = np.dot(g2, _im2col(xp, k, h, w).T).reshape(w_shape)
        del xp  # before d_xp exists
        d_x = None
        if need_dx:
            g4 = g2.reshape(out_c, n, h, w)
            d_xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x_data.dtype)
            # bottom band first: a d_xp row takes its taps from the band below
            # before the band above, so in (i, j) order, as one pass would
            for r0, r1 in reversed(list(zip(edges[:-1], edges[1:]))):
                rows = r1 - r0
                d_cols = np.dot(w2.T, g4[:, :, r0:r1].reshape(out_c, -1))
                d_cols = d_cols.reshape(c, k, k, n, rows, w)
                d_band = d_xp[:, :, r0:r1 + k - 1]
                for i in range(k):
                    for j in range(k):
                        d_band[:, :, i:i + rows, j:j + w] += d_cols[:, i, j]
            d_x = d_xp.transpose(1, 0, 2, 3)[:, :, pad:pad + h, pad:pad + w]
        return d_x, d_weight, g.sum(axis=(0, 2, 3))

    return _op_output(out.transpose(1, 0, 2, 3), (x, weight, bias), vjp)


def _pad(a: np.ndarray, padding: int) -> np.ndarray:
    """``a`` inside a zero border ``padding`` wide on both spatial axes."""
    if not padding:
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=a.dtype)
    out[:, :, padding:padding + h, padding:padding + w] = a
    return out


def _band_edges(out_c: int, k: int, oh: int, ow: int, itemsize: int) -> list[int]:
    """Output-row edges of conv2d's forward bands; ``[0, oh]`` is one GEMM.

    ``rows`` is the largest of the three per-band minimums; ``oh`` splits
    into ``oh // rows`` bands that differ by at most one row, so the last
    band is never a sliver below the GEMM floor.
    """
    rows = max(_BAND_BYTES // (k * ow * itemsize), -(-_BAND_MIN_COLS // ow),
               -(-_BAND_MIN_MACS // (out_c * k * ow)), 1)
    bands = max(oh // rows, 1)
    return [oh * i // bands for i in range(bands + 1)]


def _im2col(xp: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """Patch matrix of ``xp`` for an h x w output: C-contiguous (c*k*k, n*h*w).

    Row (ci, i, j) holds input channel ci shifted by kernel tap (i, j), so a
    GEMM over it reduces in the same (c, k, k) order as the weight layout.
    """
    n, c = xp.shape[:2]
    cols = np.empty((c, k, k, n, h, w), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, :, i:i + h, j:j + w].transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * h * w)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _separable(x: Tensor, a_h: np.ndarray, a_w: np.ndarray) -> Tensor:
    """Apply ``a_h`` to the rows and ``a_w`` to the columns: y = A_h x A_w^T."""
    out = a_h @ (x.data @ a_w.T)

    def vjp(g: np.ndarray):
        return (a_h.T @ (g @ a_w),)

    return _op_output(out, (x,), vjp)


@lru_cache(maxsize=256)
def _pool_matrix(in_size: int, out_size: int, dtype) -> np.ndarray:
    """(out, in) averaging matrix; bin i covers [floor(i*in/out), ceil((i+1)*in/out))."""
    i = np.arange(out_size)[:, None]
    lo = (i * in_size) // out_size
    hi = ((i + 1) * in_size + out_size - 1) // out_size
    k = np.arange(in_size)
    a = (((lo <= k) & (k < hi)) / (hi - lo)).astype(dtype)
    a.flags.writeable = False  # cached: shared by every call
    return a


def avg_pool2d(x: Tensor, rate: int) -> Tensor:
    """Mean over non-overlapping rate x rate blocks; rate must divide H and W."""
    _check_rank4(x, "avg_pool2d input")
    if rate < 1:
        raise ShapeError(f"avg_pool2d: rate must be >= 1, got {rate}")
    _, _, h, w = x.shape
    if h % rate or w % rate:
        raise ShapeError(f"avg_pool2d: rate {rate} does not divide spatial size {h}x{w}")
    if rate == 1:
        return x
    return adaptive_avg_pool2d(x, h // rate, w // rate)


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an out_h x out_w grid with floor/ceil bin edges.

    Bins may overlap by one row/column when the sizes do not divide evenly.
    """
    _check_rank4(x, "adaptive_avg_pool2d input")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"adaptive_avg_pool2d: output size must be >= 1, got {out_h}x{out_w}")
    _, _, h, w = x.shape
    if out_h > h or out_w > w:
        raise ShapeError(f"adaptive_avg_pool2d: output {out_h}x{out_w} exceeds input {h}x{w}")
    return _separable(x, _pool_matrix(h, out_h, x.dtype), _pool_matrix(w, out_w, x.dtype))


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean, returned as a 1x1 map."""
    _check_rank4(x, "global_avg_pool input")
    return adaptive_avg_pool2d(x, 1, 1)


def max_pool2d(x: Tensor) -> Tensor:
    """Max over 2 x 2 blocks; gradient goes to the first max in row-major order."""
    _check_rank4(x, "max_pool2d input")
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d: 2 does not divide spatial size {h}x{w}")
    shape, dtype = x.shape, x.dtype
    taps = [(slice(None), slice(None), slice(i, None, 2), slice(j, None, 2))
            for i in (0, 1) for j in (0, 1)]
    # Values move as unsigned bit patterns, so a select is a wrapping
    # multiply-add that copies every bit (-0.0, NaN payloads) unchanged.
    uint = np.dtype(f"u{x.data.itemsize}")
    out = x.data[taps[0]].copy()
    bits = out.view(uint)
    arg = np.zeros(out.shape, dtype=np.uint8)
    for t, tap in enumerate(taps[1:], start=1):
        v = x.data[tap]
        # np.argmax's rule in row-major tap order: a later tap wins when it is
        # strictly greater, or NaN where the kept value is not; a tie, -0.0
        # against +0.0 included, keeps the earlier tap.  v <= out is False
        # exactly where v > out or either is NaN.
        take = v <= out
        np.greater(out == out, take, out=take)
        step = v.view(uint) - bits
        step *= take
        bits += step
        np.maximum(arg, take * arg.dtype.type(t), out=arg)

    def vjp(g: np.ndarray):
        g_bits = g.astype(dtype, copy=False).view(uint)
        d = np.empty(shape, dtype)
        for t, tap in enumerate(taps):
            np.multiply(g_bits, arg == t, out=d.view(uint)[tap])
        return (d,)

    return _op_output(out, (x,), vjp)


# ---------------------------------------------------------------------------
# bilinear resampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _resample_axis(in_size: int, out_size: int, dtype):
    """Source indices and fractions for one axis, half-pixel-centre convention.

    Source coordinate of output index d is (d + 0.5) * in/out - 0.5, clamped
    to the valid range.  Interpolation is written as lo + frac * (hi - lo) so
    constant inputs are reproduced exactly.
    """
    dst = np.arange(out_size, dtype=np.float64)
    src = np.clip((dst + 0.5) * (in_size / out_size) - 0.5, 0.0, in_size - 1.0)
    lo = np.minimum(src.astype(np.intp), in_size - 1)
    frac = (src - lo).astype(dtype)
    hi = np.minimum(lo + 1, in_size - 1)
    for a in (lo, hi, frac):
        a.flags.writeable = False  # cached: shared by every call
    return lo, hi, frac


@lru_cache(maxsize=256)
def _lerp_adjoint_plan(in_size: int, out_size: int, dtype) -> tuple:
    """Passes that scatter a lerp's gradient back onto its ``in_size`` inputs.

    Output index d adds ``g[d] * (1 - frac[d])`` to input ``lo[d]`` and
    ``g[d] * frac[d]`` to ``hi[d]``.  Each input takes its terms in the order
    ``np.add.at`` would: every ``lo`` term in ascending d, then every ``hi``
    term.  Pass p holds the p-th term of every input, so no pass writes an
    input twice and ``d[target] += g[source] * weight`` pass after pass
    rounds exactly as the sequential sum does.  A pass returns
    (target, source, weight) with targets ascending; a run of consecutive
    targets becomes a slice.
    """
    lo, hi, frac = _resample_axis(in_size, out_size, dtype)
    target = np.concatenate([lo, hi])
    weight = np.concatenate([1.0 - frac, frac])[:, None]
    order = np.argsort(target, kind="stable")
    first = np.r_[True, np.diff(target[order]) != 0]
    rank = np.arange(target.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    passes = []
    for p in range(rank.max() + 1):
        src = order[rank == p]
        t = target[src]
        if t[-1] - t[0] + 1 == t.size:
            t = slice(int(t[0]), int(t[-1]) + 1)
        source, w = src % out_size, weight[src]
        source.flags.writeable = w.flags.writeable = False  # cached: shared by every call
        passes.append((t, source, w))
    return tuple(passes)


def _lerp_adjoint(g: np.ndarray, in_size: int, dtype) -> np.ndarray:
    """Adjoint of ``_resample_axis``'s lerp along axis 0 of a 2-D ``g``."""
    d = np.zeros((in_size, g.shape[1]), dtype=dtype)
    for target, source, weight in _lerp_adjoint_plan(in_size, g.shape[0], dtype):
        v = np.take(g, source, axis=0)
        v *= weight
        d[target] += v
    return d


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize to an arbitrary spatial size (half-pixel centres, edge clamp)."""
    _check_rank4(x, "resize_bilinear input")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize_bilinear: output size must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if out_h == h and out_w == w:
        return x
    dtype = x.dtype
    r0, r1, fy = _resample_axis(h, out_h, dtype)
    c0, c1, fx = _resample_axis(w, out_w, dtype)

    # lo + frac * (hi - lo), computed in place in the hi buffer
    rows_lo = np.take(x.data, r0, axis=2)
    tmp = np.take(x.data, r1, axis=2)  # (n, c, out_h, w)
    tmp -= rows_lo
    tmp *= fy[:, None]
    tmp += rows_lo
    left = np.take(tmp, c0, axis=3)
    out = np.take(tmp, c1, axis=3)
    out -= left
    out *= fx
    out += left

    def vjp(g: np.ndarray):
        # columns in a (w, n, c, out_h) layout, then rows in (h, n, c, w), so
        # every pass moves whole contiguous rows; rebinding d frees each
        # layout's buffer once the next one exists
        d = np.ascontiguousarray(g.transpose(3, 0, 1, 2)).reshape(out_w, -1)
        d = _lerp_adjoint(d, w, dtype).reshape(w, n, c, out_h)
        d = np.ascontiguousarray(d.transpose(3, 1, 2, 0)).reshape(out_h, -1)
        d = _lerp_adjoint(d, h, dtype).reshape(h, n, c, w)
        return (np.ascontiguousarray(d.transpose(1, 2, 0, 3)),)

    return _op_output(out, (x,), vjp)


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Upsample both spatial dims by an integer factor from {2, 4, 8, 16}."""
    if factor not in UPSAMPLE_FACTORS:
        raise ShapeError(f"upsample_bilinear: factor {factor} not in {UPSAMPLE_FACTORS}")
    _check_rank4(x, "upsample_bilinear input")
    _, _, h, w = x.shape
    return resize_bilinear(x, h * factor, w * factor)


def pad_replicate2d(x: Tensor, pad_bottom: int, pad_right: int) -> Tensor:
    """Extend the bottom/right edges by repeating the border row/column.

    Gradients of the padded cells fold back onto the border cells they were
    copied from.  Zero padding returns the input unchanged.
    """
    _check_rank4(x, "pad_replicate2d input")
    if pad_bottom < 0 or pad_right < 0:
        raise ShapeError(f"pad_replicate2d: padding must be >= 0, got ({pad_bottom}, {pad_right})")
    if pad_bottom == 0 and pad_right == 0:
        return x
    n, c, h, w = x.shape
    out = np.pad(x.data, ((0, 0), (0, 0), (0, pad_bottom), (0, pad_right)), mode="edge")

    def vjp(g: np.ndarray):
        dx = g[:, :, :h, :w].copy()
        if pad_bottom:
            dx[:, :, h - 1, :] += g[:, :, h:, :w].sum(axis=2)
        if pad_right:
            dx[:, :, :, w - 1] += g[:, :, :h, w:].sum(axis=3)
        if pad_bottom and pad_right:
            dx[:, :, h - 1, w - 1] += g[:, :, h:, w:].sum(axis=(2, 3))
        return (dx,)

    return _op_output(out, (x,), vjp)


def crop2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Keep the top-left out_h x out_w window; backward zero-fills the rest."""
    _check_rank4(x, "crop2d input")
    n, c, h, w = x.shape
    dtype = x.dtype
    if not 1 <= out_h <= h or not 1 <= out_w <= w:
        raise ShapeError(f"crop2d: window {out_h}x{out_w} does not fit input {h}x{w}")
    if out_h == h and out_w == w:
        return x
    out = x.data[:, :, :out_h, :out_w]

    def vjp(g: np.ndarray):
        dx = np.zeros((n, c, h, w), dtype)
        dx[:, :, :out_h, :out_w] = g
        return (dx,)

    return _op_output(out, (x,), vjp)


# ---------------------------------------------------------------------------
# pointwise and structural ops
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def vjp(g: np.ndarray):
        # out > 0 exactly where x > 0, NaN included
        return (g * (out > 0),)

    return _op_output(out, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_stable(x.data)

    def vjp(g: np.ndarray):
        return (g * y * (1.0 - y),)

    return _op_output(y, (x,), vjp)


def _sigmoid_stable(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data

    def vjp(g: np.ndarray):
        return g, g

    return _op_output(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    a_data, b_data = a.data, b.data
    out = a_data * b_data

    def vjp(g: np.ndarray):
        return g * b_data, g * a_data

    return _op_output(out, (a, b), vjp)


def concat_channels(inputs: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; batch and spatial dims must agree."""
    if not inputs:
        raise ShapeError("concat_channels: need at least one input")
    for t in inputs:
        _check_rank4(t, "concat_channels input")
    first = inputs[0]
    for t in inputs[1:]:
        if (t.shape[0],) + t.shape[2:] != (first.shape[0],) + first.shape[2:]:
            raise ShapeError(f"concat_channels: shape {t.shape} is incompatible with {first.shape}")
    out = np.concatenate([t.data for t in inputs], axis=1)
    widths = [t.shape[1] for t in inputs]
    edges = np.cumsum([0] + widths)

    def vjp(g: np.ndarray):
        return tuple(g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))

    return _op_output(out, tuple(inputs), vjp)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum every element into a 1x1x1x1 scalar tensor."""
    shape, dtype = x.shape, x.dtype
    out = np.asarray(x.data.sum(), dtype=dtype).reshape(1, 1, 1, 1)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(g.reshape(()), shape).astype(dtype, copy=True),)

    return _op_output(out, (x,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss into every requires_grad leaf.

    Each graph node is visited once, in reverse topological order, and is
    consumed at its turn: once its VJP has returned, its ``_vjp`` and
    ``_parents`` are dropped, so the arrays only that VJP read are freed
    while the rest of the backward runs.  Its inputs' nodes are consumed
    later, at their own turns.  A second backward that reaches a consumed
    node, through the same loss or another loss built from the same forward,
    raises ``ShapeError`` before any VJP runs, so no leaf gradient changes.
    """
    if loss.data.shape != (1, 1, 1, 1):
        raise ShapeError(f"backward: loss must have shape (1, 1, 1, 1), got {loss.shape}")
    root = loss._node
    if root is None:
        raise ShapeError("backward: loss has no lineage to propagate through")

    order: list = []  # of nodes, requires_grad leaves and the constant
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ShapeError("backward: the graph was consumed by an earlier backward; "
                             "run the forward again")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    flow: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flow.pop(id(node), None)
        if node._vjp is not None:
            if g is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or parent is _CONSTANT:
                        continue
                    held = flow.get(id(parent))
                    flow[id(parent)] = pg if held is None else held + pg
                # a summed-away gradient must not live through the next VJP
                held = pg = None
            node._vjp = node._parents = None
        elif g is not None and node.requires_grad:
            node.grad = g.astype(node.dtype, copy=True) if node.grad is None else node.grad + g
