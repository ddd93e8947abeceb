"""Neural building blocks over the tensor engine.

2-D convolutions (strided, dilated, grouped, depthwise), single-feature and
multi-feature 3-D convolutions, 2x2 transposed convolution, channel shuffle and
per-channel layer normalization.  All kernels follow the cross-correlation
convention and zero padding.

Every convolution except the 1x1 and the 3-D stem runs on a flat-shift layout
(``_FlatTaps``): the input is zero-padded once, its spatial axes are flattened
into one, and a few zeros of slack follow, so each kernel tap reads one
contiguous slice ``xf[..., off : off + L]``.  Those slices cover a *wide*
output grid that keeps the padded extent of every spatial axis but the first;
the result is cropped to the true output at the end.  Per tap, the 1->1 3-D
conv and the depthwise conv do one multiply-add and the dense conv does one
GEMM over the slice, which BLAS reads in place.  Taps whose window lies wholly
in the padding (dilated convs on maps no larger than the dilation) are
skipped.  Backward embeds the output gradient into the wide grid with zeros in
the extra positions and scatters it through the same slices into a flat input
gradient, reusing the forward's padded input; no column buffer is built in
either direction.

A strided convolution (the downsample) first splits the padded input into
stride x stride phases, as pixel-unshuffle does: padded position q goes to
phase q % stride at coarse index q // stride.  Tap i then reads phase
(i * dilation) % stride at coarse offset (i * dilation) // stride, again one
contiguous slice, and the wide grid keeps each coarse extent.  A grouped,
non-depthwise conv runs as a dense conv with a block-diagonal kernel.

The multi-feature 3-D forward (the network's 1->F stem) works slab-wise: it
gathers the taps of one output depth slice into a reused (N, K*F, H*W) column
buffer and runs one GEMM per slice into the preallocated output, so its
working memory is one depth slice of columns rather than the whole volume.
Its backward still builds the full-volume columns; it only runs on training
patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, default_dtype, permute, reshape

# -- weight containers -------------------------------------------------------


@dataclass
class Conv2dWeights:
    """kernel: (outC, inC // groups, kH, kW)."""

    kernel: Tensor
    bias: Tensor | None = None
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    groups: int = 1

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield prefix + "kernel", self.kernel
        if self.bias is not None:
            yield prefix + "bias", self.bias


@dataclass
class Conv3dWeights:
    """kernel: (outF, inF, kD, kH, kW); padding per axis."""

    kernel: Tensor
    bias: Tensor | None = None
    padding: tuple[int, int, int] = (1, 1, 1)

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield prefix + "kernel", self.kernel
        if self.bias is not None:
            yield prefix + "bias", self.bias


@dataclass
class ConvT2dWeights:
    """2x2 stride-2 transposed convolution; kernel: (inC, outC, 2, 2)."""

    kernel: Tensor
    bias: Tensor | None = None

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield prefix + "kernel", self.kernel
        if self.bias is not None:
            yield prefix + "bias", self.bias


@dataclass
class LayerNormWeights:
    """Per-channel affine parameters, each of shape (C,)."""

    gamma: Tensor
    beta: Tensor

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield prefix + "gamma", self.gamma
        yield prefix + "beta", self.beta


# -- initialization ------------------------------------------------------------


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    # Kaiming-style fan-in scaling: U[-1/sqrt(fan_in), 1/sqrt(fan_in)]
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


def init_conv2d(
    rng: np.random.Generator,
    in_c: int,
    out_c: int,
    k: int,
    *,
    stride: int = 1,
    dilation: int = 1,
    padding: int | None = None,
    groups: int = 1,
    bias: bool = False,
    dtype=None,
) -> Conv2dWeights:
    if in_c % groups or out_c % groups:
        raise ShapeError(f"channels ({in_c}->{out_c}) not divisible by groups={groups}")
    dtype = dtype or default_dtype()
    if padding is None:
        padding = dilation * (k - 1) // 2  # "same" spatial size at stride 1
    kernel = _uniform(rng, (out_c, in_c // groups, k, k), (in_c // groups) * k * k, dtype)
    b = Tensor(np.zeros(out_c), requires_grad=True, dtype=dtype) if bias else None
    return Conv2dWeights(kernel, b, stride=stride, dilation=dilation, padding=padding, groups=groups)


def init_conv3d(
    rng: np.random.Generator,
    in_f: int,
    out_f: int,
    k: tuple[int, int, int] = (3, 3, 3),
    *,
    bias: bool = False,
    dtype=None,
) -> Conv3dWeights:
    dtype = dtype or default_dtype()
    padding = tuple(ki // 2 for ki in k)
    kernel = _uniform(rng, (out_f, in_f) + k, in_f * k[0] * k[1] * k[2], dtype)
    b = Tensor(np.zeros(out_f), requires_grad=True, dtype=dtype) if bias else None
    return Conv3dWeights(kernel, b, padding=padding)


def init_conv_t2d(rng: np.random.Generator, in_c: int, out_c: int, *, bias: bool = False, dtype=None) -> ConvT2dWeights:
    dtype = dtype or default_dtype()
    kernel = _uniform(rng, (in_c, out_c, 2, 2), in_c * 4, dtype)
    b = Tensor(np.zeros(out_c), requires_grad=True, dtype=dtype) if bias else None
    return ConvT2dWeights(kernel, b)


def init_layer_norm(c: int, dtype=None) -> LayerNormWeights:
    dtype = dtype or default_dtype()
    return LayerNormWeights(
        Tensor(np.ones(c), requires_grad=True, dtype=dtype),
        Tensor(np.zeros(c), requires_grad=True, dtype=dtype),
    )


# -- conv2d ---------------------------------------------------------------------


def _out_extent(n: int, k: int, stride: int, pad: int, dil: int) -> int:
    return (n + 2 * pad - dil * (k - 1) - 1) // stride + 1


class _FlatTaps:
    """Flat-shift layout of ``x`` for a convolution over its trailing axes.

    ``pad`` and ``ksize`` hold one entry per convolved axis; ``dil`` and
    ``stride`` apply to all of them.  The padded input, each extent rounded up
    to a multiple of the stride, is split into ``stride**k`` phases as
    pixel-unshuffle does: padded position q goes to phase q % stride at coarse
    index q // stride.  ``xf[..., p, :]`` is phase p's coarse grid, flattened
    and followed by slack zeros, so that kernel tap ``t`` (row-major tap order)
    reads the contiguous slice ``xf[..., phase[t], offs[t] : offs[t] + ell]``.
    That slice covers the wide output grid ``wide``: the first convolved axis
    at its output extent, the others at their coarse extent.  Only the taps in
    ``live`` need to be visited.  At stride 1 there is one phase, whose coarse
    grid is the padded input.
    """

    def __init__(self, x: np.ndarray, pad: tuple[int, ...], ksize: tuple[int, ...], dil: int, stride: int):
        k = len(ksize)
        self.extent = x.shape[-k:]
        padded = [e + 2 * q for e, q in zip(self.extent, pad)]
        self.coarse = tuple(-(-e // stride) for e in padded)
        self.out = tuple((e - dil * (kk - 1) - 1) // stride + 1 for e, kk in zip(padded, ksize))
        self.wide = self.out[:1] + self.coarse[1:]
        self.valid = (Ellipsis,) + tuple(slice(0, o) for o in self.out[1:])  # true outputs in the wide grid
        self.ell = math.prod(self.wide)
        self.size = math.prod(self.coarse)
        strides = [math.prod(self.coarse[i + 1 :]) for i in range(k)]
        # the last wide position plus the largest offset must stay in bounds
        slack = sum((kk - 1) * dil // stride * st for kk, st in zip(ksize[1:], strides[1:]))
        # per tap: its phase, its coarse offset, and whether its input window reaches
        # the unpadded input; a window lying wholly in the padding adds exact zeros
        # (dilated convs on the smallest feature maps), so such taps are skipped
        self.phase, self.offs, self.live = [], [], []
        for t, tap in enumerate(np.ndindex(*ksize)):  # row-major tap order
            phase = off = 0
            live = True
            for i, q, e, o, st in zip(tap, pad, self.extent, self.out, strides):
                shift = i * dil  # in padded positions
                phase = phase * stride + shift % stride
                off += shift // stride * st
                live = live and shift - q < e and shift - q + stride * (o - 1) >= 0
            self.phase.append(phase)
            self.offs.append(off)
            if live:
                self.live.append(t)
        self.live = self.live or [0]  # keep one tap so results keep their shape
        # per phase: the unpadded input positions it holds, and where they sit in its coarse grid
        self.phases = []
        for p, r in enumerate(np.ndindex(*(stride,) * k)):
            src = [slice((ri - q) % stride, None, stride) for ri, q in zip(r, pad)]
            lo = [(sl.start + q) // stride for sl, q in zip(src, pad)]
            dst = [slice(a, a + len(range(e)[sl])) for a, sl, e in zip(lo, src, self.extent)]
            self.phases.append(((Ellipsis, *src), (Ellipsis, p, *dst)))
        self.xf = np.zeros(x.shape[:-k] + (stride**k, self.size + slack), dtype=x.dtype)
        grids = self.grids(self.xf)
        for src, dst in self.phases:
            grids[dst] = x[src]

    def tap(self, buf: np.ndarray, t: int) -> np.ndarray:
        """Tap t's slice of a flat buffer shaped like ``xf``."""
        return buf[..., self.phase[t], self.offs[t] : self.offs[t] + self.ell]

    def grids(self, buf: np.ndarray) -> np.ndarray:
        """The coarse grids of a flat buffer shaped like ``xf``: (..., phases, *coarse)."""
        return buf[..., : self.size].reshape(buf.shape[:-1] + self.coarse)

    def unpad(self, buf: np.ndarray) -> np.ndarray:
        """The unpadded input positions of a buffer shaped like ``xf`` (a view at stride 1)."""
        grids = self.grids(buf)
        if len(self.phases) == 1:
            return grids[self.phases[0][1]]
        out = np.empty(buf.shape[:-2] + self.extent, dtype=buf.dtype)
        for src, dst in self.phases:
            out[src] = grids[dst]
        return out

    def crop(self, y: np.ndarray) -> np.ndarray:
        """Contiguous true output of a wide result y: (..., ell)."""
        grid = y.reshape(y.shape[:-1] + self.wide)
        return np.ascontiguousarray(grid[self.valid])

    def embed(self, g: np.ndarray) -> np.ndarray:
        """Output gradient g: (..., *out) as a flat wide grid with zeros in the extra positions."""
        lead = g.shape[: g.ndim - len(self.out)]
        wide = np.zeros(lead + self.wide, dtype=g.dtype)
        wide[self.valid] = g
        return wide.reshape(lead + (self.ell,))


def conv2d(x: Tensor, w: Conv2dWeights) -> Tensor:
    """Grouped 2-D cross-correlation.  x: (N, C, H, W) -> (N, C', H', W')."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (N, C, H, W), got {x.shape}")
    n, c, h, wd = x.shape
    out_c, cg, kh, kw = w.kernel.shape
    g = w.groups
    if c != cg * g:
        raise ShapeError(f"conv2d: input channels {c} != kernel {cg}*groups {g}")
    if out_c % g:
        raise ShapeError(f"conv2d: output channels {out_c} not divisible by groups={g}")
    s, d, p = w.stride, w.dilation, w.padding
    if _out_extent(h, kh, s, p, d) <= 0 or _out_extent(wd, kw, s, p, d) <= 0:
        raise ShapeError(f"conv2d: empty output for input {x.shape} kernel {kh}x{kw}")

    if kh == kw == 1 and s == 1 and p == 0 and g == 1:
        return _conv1x1(x, w, n, c, out_c, h, wd)
    if g == c == out_c:
        return _conv_depthwise(x, w, kh, kw, s, d, p)
    return _conv_gemm(x, w, n, c, out_c, g, kh, kw, s, d, p)


def _bias_vjp(g: np.ndarray) -> np.ndarray:
    """Bias gradient: g summed over the batch and every spatial axis."""
    return g.sum(axis=(0,) + tuple(range(2, g.ndim)))


def _conv1x1(x: Tensor, w: Conv2dWeights, n, c, out_c, h, wd) -> Tensor:
    xd = x.data.reshape(n, c, h * wd)
    kd = w.kernel.data.reshape(out_c, c)
    out = np.matmul(kd, xd).reshape(n, out_c, h, wd)
    if w.bias is not None:
        out = out + w.bias.data.reshape(1, out_c, 1, 1)
    parents = (x, w.kernel) if w.bias is None else (x, w.kernel, w.bias)

    def vjp(g):
        gf = g.reshape(n, out_c, h * wd)
        gx = np.matmul(kd.T, gf).reshape(x.shape)
        gw = np.matmul(gf, xd.transpose(0, 2, 1)).sum(axis=0).reshape(w.kernel.shape)
        if w.bias is None:
            return gx, gw
        return gx, gw, _bias_vjp(g)

    return Tensor._from_op(out, "conv1x1", parents, vjp)


def _conv_depthwise(x: Tensor, w: Conv2dWeights, kh, kw, s, d, p) -> Tensor:
    """Depthwise conv (groups == C == C')."""
    return _conv_per_channel(x, w, (p, p), (kh, kw), d, s, "conv_dw")


def _conv_per_channel(x: Tensor, w: Conv2dWeights | Conv3dWeights, pad, ksize, dil, stride, op: str) -> Tensor:
    """Conv with one filter per channel: one multiply-add per tap over flat slices.

    x: (N, C, *spatial), kernel: (C, 1, *ksize).  Serves the depthwise 2-D conv
    and the 1->1 3-D conv (C == 1, three spatial axes).
    """
    ft = _FlatTaps(x.data, pad, ksize, dil, stride)
    c = x.shape[1]
    kd = w.kernel.data
    taps = kd.reshape(c, -1, 1)
    out = np.zeros(x.shape[:2] + (ft.ell,), dtype=x.data.dtype)
    for t in ft.live:
        out += taps[:, t] * ft.tap(ft.xf, t)
    out = ft.crop(out)
    if w.bias is not None:
        out = out + w.bias.data.reshape((1, c) + (1,) * len(ksize))
    parents = (x, w.kernel) if w.bias is None else (x, w.kernel, w.bias)

    def vjp(g):
        gwide = ft.embed(g)
        gk = np.zeros_like(kd)
        gtaps = gk.reshape(c, -1)
        gxf = np.zeros_like(ft.xf)
        for t in ft.live:
            gtaps[:, t] = np.einsum("ncl,ncl->c", gwide, ft.tap(ft.xf, t))
            ft.tap(gxf, t)[...] += taps[:, t] * gwide
        gx = ft.unpad(gxf)
        if w.bias is None:
            return gx, gk
        return gx, gk, _bias_vjp(g)

    return Tensor._from_op(out, op, parents, vjp)


def _conv_gemm(x: Tensor, w: Conv2dWeights, n, c, out_c, groups, kh, kw, s, d, p) -> Tensor:
    """Dense conv: one GEMM per tap, reading each flat tap slice in place.

    A grouped kernel runs as the dense kernel that is zero off its diagonal
    blocks; no model conv is grouped and dense.
    """
    ft = _FlatTaps(x.data, (p, p), (kh, kw), d, s)
    kd = w.kernel.data  # (O, C / groups, kh, kw)
    diag = np.arange(groups)
    blocks = (groups, out_c // groups, groups, c // groups, kh, kw)
    if groups > 1:
        dense = np.zeros(blocks, dtype=kd.dtype)
        dense[diag, :, diag] = kd.reshape(blocks[:2] + blocks[3:])
        kd = dense.reshape(out_c, c, kh, kw)
    first = ft.live[0]
    out = np.matmul(np.ascontiguousarray(kd[:, :, first // kw, first % kw]), ft.tap(ft.xf, first))
    prod = np.empty_like(out)
    for t in ft.live[1:]:
        ki, kj = divmod(t, kw)
        out += np.matmul(np.ascontiguousarray(kd[:, :, ki, kj]), ft.tap(ft.xf, t), out=prod)
    del prod
    out = ft.crop(out)
    if w.bias is not None:
        out = out + w.bias.data.reshape(1, out_c, 1, 1)
    parents = (x, w.kernel) if w.bias is None else (x, w.kernel, w.bias)

    def vjp(g_out):
        gwide = ft.embed(g_out)  # (N, O, L)
        gk = np.zeros_like(kd)
        gxf = np.zeros_like(ft.xf)
        prod = np.empty((n, c, ft.ell), dtype=gxf.dtype)
        for t in ft.live:
            ki, kj = divmod(t, kw)
            gk[:, :, ki, kj] = np.matmul(gwide, ft.tap(ft.xf, t).transpose(0, 2, 1)).sum(axis=0)
            ft.tap(gxf, t)[...] += np.matmul(np.ascontiguousarray(kd[:, :, ki, kj]).T, gwide, out=prod)
        gx = ft.unpad(gxf)
        if groups > 1:
            gk = gk.reshape(blocks)[diag, :, diag].reshape(w.kernel.shape)
        if w.bias is None:
            return gx, gk
        return gx, gk, _bias_vjp(g_out)

    return Tensor._from_op(out, "conv2d", parents, vjp)


# -- conv3d ---------------------------------------------------------------------


def conv3d(x: Tensor, w: Conv3dWeights) -> Tensor:
    """3-D cross-correlation at stride 1.  x: (N, F, D, H, W)."""
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects (N, F, D, H, W), got {x.shape}")
    n, f, dd, h, wd = x.shape
    out_f, in_f, kd, kh, kw = w.kernel.shape
    if f != in_f:
        raise ShapeError(f"conv3d: input features {f} != kernel features {in_f}")
    pd, ph, pw = w.padding
    do = dd + 2 * pd - kd + 1
    ho = h + 2 * ph - kh + 1
    wo = wd + 2 * pw - kw + 1
    if min(do, ho, wo) <= 0:
        raise ShapeError(f"conv3d: empty output for input {x.shape} kernel {w.kernel.shape}")
    if f == 1 and out_f == 1:
        return _conv_per_channel(x, w, w.padding, (kd, kh, kw), 1, 1, "conv3d")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw))) if (pd or ph or pw) else x.data
    kdta = w.kernel.data

    def taps():
        for a in range(kd):
            for b in range(kh):
                for cc in range(kw):
                    yield (a * kh + b) * kw + cc, slice(a, a + do), slice(b, b + ho), slice(cc, cc + wo)

    # one output depth slice at a time: im2col into a reused (N, K*F, H*W)
    # slab and one GEMM per slice, written straight into the output
    km = kdta.transpose(0, 2, 3, 4, 1).reshape(out_f, -1)  # tap-major to match cols
    cols = np.empty((n, km.shape[1], ho * wo), dtype=x.data.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))
    out = np.empty((n, out_f, do, ho, wo), dtype=np.result_type(km, cols))
    out_slices = out.reshape(n, out_f, do, ho * wo)
    for d in range(do):
        # (N, F, H, W, kD, kH, kW) -> rows ordered tap-major, then feature
        np.copyto(cols.reshape(n, kd, kh, kw, f, ho, wo), windows[:, :, d].transpose(0, 4, 5, 6, 1, 2, 3))
        np.matmul(km, cols, out=out_slices[:, :, d])
    if w.bias is not None:
        out = out + w.bias.data.reshape(1, out_f, 1, 1, 1)
    parents = (x, w.kernel) if w.bias is None else (x, w.kernel, w.bias)

    def vjp(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(kdta)
        ell = do * ho * wo
        gf = g.reshape(n, out_f, ell)
        cols_b = np.empty((n, f * kd * kh * kw, ell), dtype=xp.dtype)
        grid_b = cols_b.reshape(n, f * kd * kh * kw, do, ho, wo)
        for t, ds_, rs, cs in taps():
            grid_b[:, t * f : (t + 1) * f] = xp[:, :, ds_, rs, cs]
        gkm = np.matmul(gf, cols_b.transpose(0, 2, 1)).sum(axis=0)  # (outF, K*F)
        gw[:] = gkm.reshape(out_f, kd, kh, kw, f).transpose(0, 4, 1, 2, 3)
        km = kdta.transpose(0, 2, 3, 4, 1).reshape(out_f, -1)
        gcols = np.matmul(km.T, gf)  # (N, K*F, L)
        for t, ds_, rs, cs in taps():
            gxp[:, :, ds_, rs, cs] += gcols[:, t * f : (t + 1) * f, :].reshape(n, f, do, ho, wo)
        gx = gxp[:, :, pd : pd + dd, ph : ph + h, pw : pw + wd] if (pd or ph or pw) else gxp
        if w.bias is None:
            return gx, gw
        return gx, gw, _bias_vjp(g)

    return Tensor._from_op(out, "conv3d", parents, vjp)


def conv3d_on_features(x: Tensor, w: Conv3dWeights) -> Tensor:
    """Apply a 3-D conv to a 2-D feature map by treating channels as depth.

    (N, C, H, W) -> (N, 1, C, H, W) -> conv3d -> (N, C, H, W).  Requires a
    single feature channel in and out.
    """
    if w.kernel.shape[0] != 1 or w.kernel.shape[1] != 1:
        raise ShapeError(f"feature-map 3-D conv requires 1->1 feature channels, got {w.kernel.shape}")
    n, c, h, wd = x.shape
    y = conv3d(reshape(x, (n, 1, c, h, wd)), w)
    return reshape(y, (n, c, h, wd))


# -- transposed conv / resampling -------------------------------------------------


def conv_transpose2d(x: Tensor, w: ConvT2dWeights) -> Tensor:
    """2x2 stride-2 transposed convolution: (N, C, H, W) -> (N, C', 2H, 2W)."""
    n, c, h, wd = x.shape
    in_c, out_c = w.kernel.shape[:2]
    if c != in_c:
        raise ShapeError(f"conv_transpose2d: input channels {c} != kernel {in_c}")
    kd = w.kernel.data
    xf = x.data.reshape(n, c, h * wd)
    out = np.empty((n, out_c, 2 * h, 2 * wd), dtype=x.data.dtype)
    for ki in range(2):
        for kj in range(2):
            tap = np.matmul(kd[:, :, ki, kj].T, xf).reshape(n, out_c, h, wd)
            out[:, :, ki::2, kj::2] = tap
    if w.bias is not None:
        out = out + w.bias.data.reshape(1, out_c, 1, 1)
    parents = (x, w.kernel) if w.bias is None else (x, w.kernel, w.bias)

    def vjp(g):
        gx = np.zeros((n, c, h * wd), dtype=x.data.dtype)
        gw = np.zeros_like(kd)
        for ki in range(2):
            for kj in range(2):
                gt = g[:, :, ki::2, kj::2].reshape(n, out_c, h * wd)
                gx += np.matmul(kd[:, :, ki, kj], gt)
                gw[:, :, ki, kj] = np.matmul(xf, gt.transpose(0, 2, 1)).sum(axis=0)
        if w.bias is None:
            return gx.reshape(x.shape), gw
        return gx.reshape(x.shape), gw, _bias_vjp(g)

    return Tensor._from_op(out, "conv_t2d", parents, vjp)


def init_downsample(rng: np.random.Generator, c: int, *, dtype=None) -> Conv2dWeights:
    return init_conv2d(rng, c, 2 * c, 3, stride=2, padding=1, dtype=dtype)


def init_upsample(rng: np.random.Generator, c: int, *, dtype=None) -> ConvT2dWeights:
    return init_conv_t2d(rng, c, c // 2, dtype=dtype)


# -- channel shuffle ---------------------------------------------------------------


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Interleave channel groups: index i*(C/g)+j moves to j*g+i.

    Pure permutation (view C as g x C/g, transpose, flatten); no arithmetic.
    """
    n, c, h, w = x.shape
    if c % groups:
        raise ShapeError(f"channel_shuffle: C={c} not divisible by groups={groups}")
    y = reshape(x, (n, groups, c // groups, h, w))
    y = permute(y, (0, 2, 1, 3, 4))
    return reshape(y, (n, c, h, w))


# -- layer normalization --------------------------------------------------------------


def layer_norm(x: Tensor, w: LayerNormWeights, eps: float = 1e-6) -> Tensor:
    """Normalize across channels at every (n, h, w) position, then affine."""
    if x.ndim != 4:
        raise ShapeError(f"layer_norm expects (N, C, H, W), got {x.shape}")
    c = x.shape[1]
    if w.gamma.shape != (c,):
        raise ShapeError(f"layer_norm affine shape {w.gamma.shape} != ({c},)")
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gam = w.gamma.data.reshape(1, c, 1, 1)
    out = xhat * gam + w.beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        ggamma = np.sum(g * xhat, axis=(0, 2, 3))
        gbeta = np.sum(g, axis=(0, 2, 3))
        gh = g * gam
        m1 = gh.mean(axis=1, keepdims=True)
        m2 = np.mean(gh * xhat, axis=1, keepdims=True)
        gx = inv * (gh - m1 - xhat * m2)
        return gx, ggamma, gbeta

    return Tensor._from_op(out, "layer_norm", (x, w.gamma, w.beta), vjp)
