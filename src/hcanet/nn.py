"""Neural building blocks over the tensor engine.

2-D convolutions (dense, depthwise, strided, dilated), the single-feature
3-D convolution, 2x2 transposed convolution, channel shuffle and
per-channel layer normalization.  All kernels follow the cross-correlation
convention and zero "same" padding, ``dilation * (k - 1) // 2`` per side, so
the kernel's shape fixes a 2-D conv's geometry: it is dense, (C', C, kH, kW),
or depthwise, (C, 1, kH, kW).  Convolutions carry no bias, as in Restormer, so
every conv op records the parents ``(x, kernel)`` and its vjp returns
``(gx, gk)``.  The ``init_*`` functions create leaves in the engine's default
dtype; ``tensor.use_dtype`` switches it (float64 for gradient checks).

Every convolution except the 1x1 runs on a flat-shift layout
(``_FlatTaps``): the input is zero-padded once, its spatial axes are flattened
into one, and a few zeros of slack follow, so each kernel tap reads one
contiguous slice ``xf[..., off : off + L]``.  Those slices cover a *wide*
output grid that keeps the padded extent of every spatial axis but the first;
the result is cropped to the true output at the end.  Per tap, the 1->1 3-D
conv and the depthwise conv do one multiply-add and the dense conv does one
GEMM over the slice, which BLAS reads in place.  Taps whose window lies wholly
in the padding (dilated convs on maps no larger than the dilation) are
skipped.  Backward embeds the output gradient into the wide grid with zeros in
the extra positions and sends it back through the same slices into a flat
input gradient, reusing the forward's padded input; no column buffer is built
in either direction.

The per-channel convs (the 1->1 3-D conv and the depthwise conv) do few
flops per byte, so they walk the wide grid in tiles: viewed as (N*C rows,
flat positions), the grid splits into tiles of at most ``_CHUNK`` elements
(a long row into column tiles, short rows several to a tile), and every live
tap passes over one tile before the next tile starts, so a 27-tap conv reads
memory about once instead of 27 times.  Backward gathers the input gradient
tile by tile the same way, clipping each tap's window to the tile.  Every
element still sums its taps in tap order, so tiling changes no bit.

A strided convolution (the downsample) first splits the padded input into
stride x stride phases, as pixel-unshuffle does: padded position q goes to
phase q % stride at coarse index q // stride.  Tap i then reads phase
(i * dilation) % stride at coarse offset (i * dilation) // stride, again one
contiguous slice, and the wide grid keeps each coarse extent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeError
from .tensor import _CHUNK, Tensor, permute, reshape

# -- weight containers -------------------------------------------------------


@dataclass
class Conv2dWeights:
    """kernel: (outC, inC, kH, kW), or (C, 1, kH, kW) for a depthwise conv."""

    kernel: Tensor
    stride: int = 1
    dilation: int = 1


@dataclass
class Conv3dWeights:
    """kernel: (outF, inF, kD, kH, kW); "same" padding, k // 2 per axis.

    ``conv3d`` runs only 1->1 kernels.  The network's (F, 1, kD, kH, kW) stem
    kernel is never run as a 3-D conv: ``HcaNet`` folds it into a 2-D kernel.
    """

    kernel: Tensor


@dataclass
class ConvT2dWeights:
    """2x2 stride-2 transposed convolution; kernel: (inC, outC, 2, 2)."""

    kernel: Tensor


@dataclass
class LayerNormWeights:
    """Per-channel affine parameters, each of shape (C,)."""

    gamma: Tensor
    beta: Tensor


def named_params(weights, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every tensor of a weight dataclass, named by its field path, in declaration order.

    A ``Tensor`` field is ``prefix + field``; a nested weight dataclass is walked
    under ``prefix + field + "."``.  ``None`` (a disabled branch) and plain
    values such as ``stride`` are skipped.
    """
    for f in fields(weights):
        v = getattr(weights, f.name)
        if isinstance(v, Tensor):
            yield prefix + f.name, v
        elif is_dataclass(v):
            yield from named_params(v, prefix + f.name + ".")


# -- initialization ------------------------------------------------------------


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    # Kaiming-style fan-in scaling: U[-1/sqrt(fan_in), 1/sqrt(fan_in)]
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_conv2d(
    rng: np.random.Generator,
    in_c: int,
    out_c: int,
    k: int,
    *,
    stride: int = 1,
    dilation: int = 1,
    groups: int = 1,
) -> Conv2dWeights:
    """Dense conv (groups=1) or depthwise conv (groups == in_c == out_c)."""
    if groups != 1 and not groups == in_c == out_c:
        raise ShapeError(f"groups={groups} on {in_c}->{out_c} channels is neither dense nor depthwise")
    kernel = _uniform(rng, (out_c, in_c // groups, k, k), (in_c // groups) * k * k)
    return Conv2dWeights(kernel, stride=stride, dilation=dilation)


def init_conv3d(rng: np.random.Generator, in_f: int, out_f: int, k: tuple[int, int, int] = (3, 3, 3)) -> Conv3dWeights:
    return Conv3dWeights(_uniform(rng, (out_f, in_f) + k, in_f * k[0] * k[1] * k[2]))


def init_conv_t2d(rng: np.random.Generator, in_c: int, out_c: int) -> ConvT2dWeights:
    return ConvT2dWeights(_uniform(rng, (in_c, out_c, 2, 2), in_c * 4))


def init_layer_norm(c: int) -> LayerNormWeights:
    return LayerNormWeights(Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True))


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
        # the same slices on the (rows, phases * flat) view of a buffer shaped like xf
        self.rows = math.prod(x.shape[:-k])
        self.start = [p * self.xf.shape[-1] + off for p, off in zip(self.phase, self.offs)]

    def tiles(self, length: int) -> Iterator[tuple[slice, int, int]]:
        """Tiles ``(row slice, lo, hi)`` of a (rows, length) grid, each of at most _CHUNK elements.

        A row longer than _CHUNK splits into column tiles; shorter rows go
        ``_CHUNK // length`` to a tile, so a grid smaller than one chunk is one tile.
        """
        group = max(1, _CHUNK // length)
        width = min(length, _CHUNK)
        for r in range(0, self.rows, group):
            for lo in range(0, length, width):
                yield slice(r, min(r + group, self.rows)), lo, min(lo + width, length)

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
    """2-D cross-correlation with "same" padding.  x: (N, C, H, W) -> (N, C', H', W').

    The kernel picks the op: (C', C, 1, 1) at stride 1 is a pointwise GEMM,
    (C, 1, kH, kW) a depthwise conv, (C', C, kH, kW) a dense conv.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (N, C, H, W), got {x.shape}")
    n, c, h, wd = x.shape
    out_c, kc, kh, kw = w.kernel.shape
    s, d = w.stride, w.dilation
    pad = (d * (kh - 1) // 2, d * (kw - 1) // 2)
    if _out_extent(h, kh, s, pad[0], d) <= 0 or _out_extent(wd, kw, s, pad[1], d) <= 0:
        raise ShapeError(f"conv2d: empty output for input {x.shape} kernel {kh}x{kw}")

    if kh == kw == 1 and s == 1 and kc == c:
        return _conv1x1(x, w, n, c, out_c, h, wd)
    if kc == 1 and out_c == c:
        return _conv_depthwise(x, w, kh, kw, s, d, pad)
    if kc == c:
        return _conv_gemm(x, w, n, c, out_c, kh, kw, s, d, pad)
    raise ShapeError(f"conv2d: kernel {w.kernel.shape} is neither dense nor depthwise on {c} channels")


def _conv1x1(x: Tensor, w: Conv2dWeights, n, c, out_c, h, wd) -> Tensor:
    xd = x.data.reshape(n, c, h * wd)
    kd = w.kernel.data.reshape(out_c, c)
    out = np.matmul(kd, xd).reshape(n, out_c, h, wd)

    def vjp(g):
        gf = g.reshape(n, out_c, h * wd)
        gx = np.matmul(kd.T, gf).reshape(x.shape)
        gk = np.matmul(gf, xd.transpose(0, 2, 1)).sum(axis=0).reshape(w.kernel.shape)
        return gx, gk

    return Tensor._from_op(out, "conv1x1", (x, w.kernel), vjp)


def _conv_depthwise(x: Tensor, w: Conv2dWeights, kh, kw, s, d, pad) -> Tensor:
    """Depthwise conv: kernel (C, 1, kH, kW)."""
    return _conv_per_channel(x, w, pad, (kh, kw), d, s, "conv_dw")


def _conv_per_channel(x: Tensor, w: Conv2dWeights | Conv3dWeights, pad, ksize, dil, stride, op: str) -> Tensor:
    """Conv with one filter per channel: one multiply-add per tap over flat slices, tile by tile.

    x: (N, C, *spatial), kernel: (C, 1, *ksize).  Serves the depthwise 2-D conv
    and the 1->1 3-D conv (C == 1, three spatial axes).
    """
    ft = _FlatTaps(x.data, pad, ksize, dil, stride)
    c = x.shape[1]
    kd = w.kernel.data
    wt = np.tile(kd.reshape(c, -1).T, (1, x.shape[0]))[:, :, None]  # (taps, N*C, 1): tap t's weight per row
    xr = ft.xf.reshape(ft.rows, -1)
    out = np.zeros((ft.rows, ft.ell), dtype=x.data.dtype)
    tmp = np.empty(min(_CHUNK, out.size), dtype=np.result_type(kd, xr))
    for rs, lo, hi in ft.tiles(ft.ell):
        o = out[rs, lo:hi]
        prod = tmp[: o.size].reshape(o.shape)
        wtile, xtile = wt[:, rs], xr[rs]
        for t in ft.live:
            s = ft.start[t]
            o += np.multiply(wtile[t], xtile[:, s + lo : s + hi], out=prod)
    out = ft.crop(out.reshape(x.shape[:2] + (ft.ell,)))

    def vjp(g):
        gwide = ft.embed(g)
        gk = np.zeros_like(kd)
        gtaps = gk.reshape(c, -1)
        for t in ft.live:
            gtaps[:, t] = np.einsum("ncl,ncl->c", gwide, ft.tap(ft.xf, t))
        # gather form: each tile of the flat input gradient sums, in tap order,
        # the taps whose window [start, start + ell) overlaps it
        gw = gwide.reshape(ft.rows, ft.ell)
        gxf = np.zeros_like(ft.xf)
        gr = gxf.reshape(ft.rows, -1)
        tmp = np.empty(min(_CHUNK, gr.size), dtype=np.result_type(kd, gw))
        for rs, lo, hi in ft.tiles(gr.shape[1]):
            wtile, gtile, otile = wt[:, rs], gw[rs], gr[rs]
            for t in ft.live:
                s = ft.start[t]
                a, b = max(lo, s), min(hi, s + ft.ell)
                if a < b:
                    o = otile[:, a:b]
                    o += np.multiply(wtile[t], gtile[:, a - s : b - s], out=tmp[: o.size].reshape(o.shape))
        return ft.unpad(gxf), gk

    return Tensor._from_op(out, op, (x, w.kernel), vjp)


def _conv_gemm(x: Tensor, w: Conv2dWeights, n, c, out_c, kh, kw, s, d, pad) -> Tensor:
    """Dense conv: one GEMM per tap, reading each flat tap slice in place."""
    ft = _FlatTaps(x.data, pad, (kh, kw), d, s)
    kd = w.kernel.data  # (O, C, kh, kw)
    first = ft.live[0]
    out = np.matmul(np.ascontiguousarray(kd[:, :, first // kw, first % kw]), ft.tap(ft.xf, first))
    prod = np.empty_like(out)
    for t in ft.live[1:]:
        ki, kj = divmod(t, kw)
        out += np.matmul(np.ascontiguousarray(kd[:, :, ki, kj]), ft.tap(ft.xf, t), out=prod)
    del prod
    out = ft.crop(out)

    def vjp(g_out):
        gwide = ft.embed(g_out)  # (N, O, L)
        gk = np.zeros_like(kd)
        gxf = np.zeros_like(ft.xf)
        prod = np.empty((n, c, ft.ell), dtype=gxf.dtype)
        for t in ft.live:
            ki, kj = divmod(t, kw)
            gk[:, :, ki, kj] = np.matmul(gwide, ft.tap(ft.xf, t).transpose(0, 2, 1)).sum(axis=0)
            ft.tap(gxf, t)[...] += np.matmul(np.ascontiguousarray(kd[:, :, ki, kj]).T, gwide, out=prod)
        return ft.unpad(gxf), gk

    return Tensor._from_op(out, "conv2d", (x, w.kernel), vjp)


# -- conv3d ---------------------------------------------------------------------


def conv3d(x: Tensor, w: Conv3dWeights) -> Tensor:
    """1->1 3-D cross-correlation at stride 1 with "same" padding.  x: (N, 1, D, H, W)."""
    if x.ndim != 5 or x.shape[1] != 1 or w.kernel.shape[:2] != (1, 1):
        raise ShapeError(f"conv3d maps 1 feature to 1: input {x.shape}, kernel {w.kernel.shape}")
    ksize = w.kernel.shape[2:]
    pad = tuple(k // 2 for k in ksize)
    if any(_out_extent(e, k, 1, q, 1) <= 0 for e, k, q in zip(x.shape[2:], ksize, pad)):
        raise ShapeError(f"conv3d: empty output for input {x.shape} kernel {w.kernel.shape}")
    return _conv_per_channel(x, w, pad, ksize, 1, 1, "conv3d")


def conv3d_on_features(x: Tensor, w: Conv3dWeights) -> Tensor:
    """Apply a 3-D conv to a 2-D feature map by treating channels as depth.

    (N, C, H, W) -> (N, 1, C, H, W) -> conv3d -> (N, C, H, W).
    """
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

    def vjp(g):
        gx = np.zeros((n, c, h * wd), dtype=x.data.dtype)
        gk = np.zeros_like(kd)
        for ki in range(2):
            for kj in range(2):
                gt = g[:, :, ki::2, kj::2].reshape(n, out_c, h * wd)
                gx += np.matmul(kd[:, :, ki, kj], gt)
                gk[:, :, ki, kj] = np.matmul(xf, gt.transpose(0, 2, 1)).sum(axis=0)
        return gx.reshape(x.shape), gk

    return Tensor._from_op(out, "conv_t2d", (x, w.kernel), vjp)


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

LN_EPS = 1e-6  # added to each position's variance


def layer_norm(x: Tensor, w: LayerNormWeights) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LN_EPS)
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
