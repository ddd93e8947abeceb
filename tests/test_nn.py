import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet import nn
from hcanet.errors import ShapeError
from hcanet.tensor import Tensor


def rng():
    return np.random.default_rng(0)


def conv_w(kernel, **kw):
    return nn.Conv2dWeights(Tensor(np.asarray(kernel, dtype=np.float32)), **kw)


class TestConv2d:
    def test_identity_1x1_bit_exact(self):
        x = rng().standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = conv_w(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        y = nn.conv2d(Tensor(x), w).data
        assert np.array_equal(y.view(np.uint32), x.view(np.uint32))

    def test_averaging_kernel_constant_interior(self):
        c = 0.7
        x = Tensor(np.full((1, 1, 6, 6), c, dtype=np.float32))
        w = conv_w(np.full((1, 1, 3, 3), 1 / 9))
        np.testing.assert_allclose(nn.conv2d(x, w).data[..., 1:-1, 1:-1], c, rtol=1e-6)

    def test_dilation2_same_shape(self):
        x = Tensor(rng().standard_normal((1, 4, 6, 6)))
        w = nn.init_conv2d(rng(), 4, 4, 3, dilation=2)
        assert w.dilation * (w.kernel.shape[-1] - 1) // 2 == 2
        assert nn.conv2d(x, w).shape == (1, 4, 6, 6)

    def test_channel_mismatch(self):
        x = Tensor(np.ones((1, 3, 4, 4)))
        w = nn.init_conv2d(rng(), 4, 4, 3)
        with pytest.raises(ShapeError):
            nn.conv2d(x, w)

    def test_strided_shape_formula(self):
        x = Tensor(rng().standard_normal((1, 2, 9, 9)))
        w = nn.init_conv2d(rng(), 2, 5, 3, stride=2)
        # H' = floor((9 + 2 - 2 - 1)/2) + 1 = 5
        assert nn.conv2d(x, w).shape == (1, 5, 5, 5)

    @pytest.mark.parametrize("kernel", [(6, 2, 3, 3), (8, 1, 3, 3)])
    def test_kernel_neither_dense_nor_depthwise_raises(self, kernel):
        x = Tensor(np.ones((1, 4, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            nn.conv2d(x, conv_w(np.ones(kernel)))

    def test_init_rejects_grouped_non_depthwise(self):
        with pytest.raises(ShapeError):
            nn.init_conv2d(rng(), 4, 6, 3, groups=2)

    def test_linearity(self):
        gen = rng()
        x, y = gen.standard_normal((1, 3, 6, 6)), gen.standard_normal((1, 3, 6, 6))
        w = nn.init_conv2d(gen, 3, 4, 3)
        a, b = 1.25, -0.5
        lhs = nn.conv2d(Tensor(a * x + b * y), w).data
        rhs = a * nn.conv2d(Tensor(x), w).data + b * nn.conv2d(Tensor(y), w).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    @given(
        n=st.integers(1, 2), c=st.integers(1, 4), o=st.integers(1, 4),
        h=st.integers(3, 16), w_=st.integers(3, 16),
        stride=st.sampled_from([1, 2]), dilation=st.sampled_from([1, 2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_shape_contract_property(self, n, c, o, h, w_, stride, dilation):
        x = Tensor(np.zeros((n, c, h, w_), dtype=np.float32))
        p = dilation
        wts = nn.init_conv2d(rng(), c, o, 3, stride=stride, dilation=dilation)
        ho = (h + 2 * p - dilation * 2 - 1) // stride + 1
        wo = (w_ + 2 * p - dilation * 2 - 1) // stride + 1
        assert nn.conv2d(x, wts).shape == (n, o, ho, wo)


class TestDepthwise:
    def test_identity_kernels(self):
        x = rng().standard_normal((1, 2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 1, 3, 3), dtype=np.float32)
        k[:, 0, 1, 1] = 1.0
        y = nn.conv2d(Tensor(x), conv_w(k)).data
        np.testing.assert_allclose(y, x, atol=0)

    def test_channel_isolation(self):
        x = rng().standard_normal((1, 2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 1, 3, 3), dtype=np.float32)
        k[1, 0, 1, 1] = 1.0
        y = nn.conv2d(Tensor(x), conv_w(k)).data
        assert np.all(y[:, 0] == 0)
        np.testing.assert_allclose(y[:, 1], x[:, 1], atol=0)


class TestConv3d:
    def test_delta_kernel_identity(self):
        x = rng().standard_normal((1, 1, 4, 5, 5)).astype(np.float32)
        k = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1, 1] = 1.0
        w = nn.Conv3dWeights(Tensor(k))
        np.testing.assert_allclose(nn.conv3d(Tensor(x), w).data, x, atol=0)

    def test_ones_kernel_interior_27c(self):
        c = 0.3
        x = Tensor(np.full((1, 1, 5, 5, 5), c, dtype=np.float32))
        w = nn.Conv3dWeights(Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32)))
        y = nn.conv3d(x, w).data
        np.testing.assert_allclose(y[0, 0, 2, 2, 2], 27 * c, rtol=1e-6)

    def test_shape_preserved(self):
        x = Tensor(rng().standard_normal((2, 1, 4, 6, 7)))
        w = nn.init_conv3d(rng(), 1, 1)
        assert nn.conv3d(x, w).shape == (2, 1, 4, 6, 7)

    def test_stem_multifeature(self):
        x = Tensor(rng().standard_normal((2, 1, 4, 6, 6)))
        w = nn.init_conv3d(rng(), 1, 8)
        assert nn.conv3d(x, w).shape == (2, 8, 4, 6, 6)

    def test_on_features_wrapper(self):
        x = Tensor(rng().standard_normal((2, 6, 5, 5)))
        w = nn.init_conv3d(rng(), 1, 1)
        assert nn.conv3d_on_features(x, w).shape == (2, 6, 5, 5)

    def test_gemm_path_matches_tap_path(self):
        # same weights as a 1->1 conv replicated out to 2 features
        gen = rng()
        x = gen.standard_normal((1, 1, 4, 5, 5)).astype(np.float32)
        k = gen.standard_normal((1, 1, 3, 3, 3)).astype(np.float32)
        y1 = nn.conv3d(Tensor(x), nn.Conv3dWeights(Tensor(k))).data
        y2 = nn.conv3d(Tensor(x), nn.Conv3dWeights(Tensor(np.concatenate([k, k])))).data
        np.testing.assert_allclose(y2[:, 0], y1[:, 0], atol=1e-5)
        np.testing.assert_allclose(y2[:, 1], y1[:, 0], atol=1e-5)

    @pytest.mark.parametrize("in_f,out_f,batch_of_one", [(1, 16, False), (2, 3, True)])
    def test_multifeature_matches_direct_loop(self, in_f, out_f, batch_of_one):
        # stem-shaped: 3x3x3 kernel, padding (1, 1, 1), H != W; batch 1 is the restore path
        gen = rng()
        n = 1 if batch_of_one else 2
        x = gen.standard_normal((n, in_f, 5, 9, 10)).astype(np.float32)
        w = nn.init_conv3d(gen, in_f, out_f)
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        k = w.kernel.data.astype(np.float64)
        want = np.zeros((n, out_f, 5, 9, 10))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    want += np.einsum("of,nfdhw->nodhw", k[:, :, a, b, c], xp[:, :, a : a + 5, b : b + 9, c : c + 10])
        np.testing.assert_allclose(nn.conv3d(Tensor(x), w).data, want, rtol=0, atol=1e-5)

    def test_stem_forward_peak_memory_is_slab_sized(self):
        import tracemalloc

        from hcanet.tensor import no_grad

        x = Tensor(rng().standard_normal((1, 1, 31, 64, 64)).astype(np.float32))
        w = nn.init_conv3d(rng(), 1, 16)
        with no_grad():
            tracemalloc.start()
            try:
                y = nn.conv3d(x, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a whole-volume im2col would hold 27/16 of the output on top of it
        assert peak < 1.5 * y.data.nbytes


def direct_conv2d(x, k, *, stride=1, dil=1, pad=0, groups=1):
    """Float64 reference: one einsum per tap over strided slices of the padded input."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, _, hp, wp = xp.shape
    o, cg, kh, kw = k.shape
    og = o // groups
    ho, wo = (hp - dil * (kh - 1) - 1) // stride + 1, (wp - dil * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for gi in range(groups):
        for i in range(kh):
            for j in range(kw):
                xs = xp[:, gi * cg : (gi + 1) * cg, i * dil : i * dil + stride * ho : stride,
                        j * dil : j * dil + stride * wo : stride]
                kt = k[gi * og : (gi + 1) * og, :, i, j].astype(np.float64)
                out[:, gi * og : (gi + 1) * og] += np.einsum("oc,nchw->nohw", kt, xs)
    return out


def direct_conv2d_vjp(x, k, g, *, stride=1, dil=1, pad=0, groups=1):
    """Float64 reference gradients (gx, gk) of direct_conv2d for output gradient g."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    g = g.astype(np.float64)
    o, cg, kh, kw = k.shape
    og = o // groups
    ho, wo = g.shape[2:]
    gxp = np.zeros_like(xp)
    gk = np.zeros(k.shape)
    for gi in range(groups):
        go = g[:, gi * og : (gi + 1) * og]
        for i in range(kh):
            for j in range(kw):
                idx = (slice(None), slice(gi * cg, (gi + 1) * cg),
                       slice(i * dil, i * dil + stride * ho, stride), slice(j * dil, j * dil + stride * wo, stride))
                gk[gi * og : (gi + 1) * og, :, i, j] = np.einsum("nohw,nchw->oc", go, xp[idx])
                gxp[idx] += np.einsum("oc,nohw->nchw", k[gi * og : (gi + 1) * og, :, i, j].astype(np.float64), go)
    h, w = x.shape[2:]
    return gxp[:, :, pad : pad + h, pad : pad + w], gk


def check_conv2d_against_direct(x, w):
    """Forward and vjp of nn.conv2d within 1e-5 of the float64 direct loop."""
    k = w.kernel.data
    # "same" padding; a (C, 1, kH, kW) kernel on C > 1 channels is depthwise
    groups = x.shape[1] if k.shape[1] == 1 else 1
    kw_ = dict(stride=w.stride, dil=w.dilation, pad=w.dilation * (k.shape[-1] - 1) // 2, groups=groups)
    xt = Tensor(x, requires_grad=True)
    y = nn.conv2d(xt, w)
    np.testing.assert_allclose(y.data, direct_conv2d(x, k, **kw_), rtol=0, atol=1e-5)
    g = np.random.default_rng(7).standard_normal(y.shape).astype(np.float32)
    got_gx, got_gk = y.node.vjp(g)
    gx, gk = direct_conv2d_vjp(x, k, g, **kw_)
    # kernel gradients sum hundreds of float32 products, hence the relative term
    np.testing.assert_allclose(got_gx, gx, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(got_gk, gk, rtol=1e-5, atol=1e-5)


def direct_conv3d_1to1(x, k, pad):
    """Float64 reference for a single-feature 3-D conv, with its vjp as a closure."""
    xp = np.pad(x[:, 0].astype(np.float64), ((0, 0),) + tuple((q, q) for q in pad))
    kd, kh, kw = k.shape[2:]
    do, ho, wo = (e - kk + 1 for e, kk in zip(xp.shape[1:], (kd, kh, kw)))
    taps = [(a, b, c) for a in range(kd) for b in range(kh) for c in range(kw)]

    def window(a, b, c):
        return (slice(None), slice(a, a + do), slice(b, b + ho), slice(c, c + wo))

    out = sum(float(k[0, 0, a, b, c]) * xp[window(a, b, c)] for a, b, c in taps)

    def vjp(g):
        g = g[:, 0].astype(np.float64)
        gxp = np.zeros_like(xp)
        gk = np.zeros(k.shape)
        for a, b, c in taps:
            gk[0, 0, a, b, c] = np.sum(g * xp[window(a, b, c)])
            gxp[window(a, b, c)] += float(k[0, 0, a, b, c]) * g
        d, h, w = x.shape[2:]
        return gxp[:, pad[0] : pad[0] + d, pad[1] : pad[1] + h, pad[2] : pad[2] + w][:, None], gk

    return out[:, None], vjp


def tap_loop_conv3d_1to1(x, k, pad):
    """The strided-slice tap loop the 1->1 conv3d forward used before the flat layout."""
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((q, q) for q in pad))
    kd, kh, kw = k.shape[2:]
    n, _, dd, h, wd = x.shape
    do, ho, wo = dd + 2 * pad[0] - kd + 1, h + 2 * pad[1] - kh + 1, wd + 2 * pad[2] - kw + 1
    out = np.zeros((n, 1, do, ho, wo), dtype=x.dtype)
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                out[:, 0] += k[0, 0, a, b, c] * xp[:, 0, a : a + do, b : b + ho, c : c + wo]
    return out


def tap_loop_depthwise(x, k, dil, pad):
    """The strided-slice tap loop the stride-1 depthwise forward used before the flat layout."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, wd = x.shape
    kh, kw = k.shape[2:]
    ho, wo = h + 2 * pad - dil * (kh - 1), wd + 2 * pad - dil * (kw - 1)
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i * dil : i * dil + ho, j * dil : j * dil + wo]
            out += k[:, 0, i, j].reshape(1, c, 1, 1) * xs
    return out


def scatter_vjp_per_channel(x, kernel, g, pad, ksize, dil, stride):
    """The per-channel vjp before tiling: one full-grid scatter per tap; returns (gx, gk)."""
    ft = nn._FlatTaps(x, pad, ksize, dil, stride)
    c = x.shape[1]
    taps = kernel.reshape(c, -1, 1)
    gwide = ft.embed(g)
    gk = np.zeros_like(kernel)
    gtaps = gk.reshape(c, -1)
    gxf = np.zeros_like(ft.xf)
    for t in ft.live:
        gtaps[:, t] = np.einsum("ncl,ncl->c", gwide, ft.tap(ft.xf, t))
        ft.tap(gxf, t)[...] += taps[:, t] * gwide
    return ft.unpad(gxf), gk


def check_tiled_per_channel(x, w, conv, want, pad, ksize, dil, stride):
    """Forward, gx and gk of a per-channel conv that spans several tiles, against the untiled loops."""
    ft = nn._FlatTaps(x, pad, ksize, dil, stride)
    assert len(list(ft.tiles(ft.ell))) > 1  # the forward crosses tile boundaries
    assert len(list(ft.tiles(ft.xf.shape[-2] * ft.xf.shape[-1]))) > 1  # and so does the input gradient
    y = conv(Tensor(x, requires_grad=True), w)
    assert np.array_equal(y.data, want)
    g = np.random.default_rng(1).standard_normal(y.shape).astype(np.float32)
    (gx, gk), (want_gx, want_gk) = y.node.vjp(g), scatter_vjp_per_channel(x, w.kernel.data, g, pad, ksize, dil, stride)
    assert np.array_equal(gx, want_gx)
    assert np.array_equal(gk, want_gk)


class TestFlatCore:
    # the tiled per-channel shapes derive from nn._CHUNK, so they cross tile
    # boundaries whatever its value
    @pytest.mark.parametrize("ksize", [(3, 3, 3), (1, 3, 3)])
    def test_conv3d_row_longer_than_a_chunk(self, ksize):
        # N*C = 1 row of about 2.5 chunks (a depth slice of the wide grid is 98*98)
        d = 5 * nn._CHUNK // (2 * 98 * 98) + 1
        gen = rng()
        x = gen.standard_normal((1, 1, d, 96, 96)).astype(np.float32)
        w = nn.init_conv3d(gen, 1, 1, ksize)
        pad = tuple(k // 2 for k in ksize)
        check_tiled_per_channel(x, w, nn.conv3d, tap_loop_conv3d_1to1(x, w.kernel.data, pad), pad, ksize, 1, 1)

    def test_depthwise_rows_grouped_with_a_partial_last_group(self):
        group = nn._CHUNK // (24 * 26)  # rows per forward tile; a wide row is 24 x 26
        c = group // 3 + 8
        assert 3 * c > group and 3 * c % group
        gen = rng()
        x = gen.standard_normal((3, c, 24, 24)).astype(np.float32)
        w = nn.init_conv2d(gen, c, c, 3, groups=c)
        check_tiled_per_channel(x, w, nn.conv2d, tap_loop_depthwise(x, w.kernel.data, 1, 1), (1, 1), (3, 3), 1, 1)

    def test_depthwise_stride2(self):
        # a forward row (side/2)^2 fits a chunk, the four phases of a gradient row do not
        side = 3 * math.isqrt(nn._CHUNK) // 2
        gen = rng()
        x = gen.standard_normal((1, 3, side, side)).astype(np.float32)
        w = nn.init_conv2d(gen, 3, 3, 3, stride=2, groups=3)
        want = tap_loop_depthwise(x, w.kernel.data, 1, 1)[:, :, ::2, ::2]
        check_tiled_per_channel(x, w, nn.conv2d, want, (1, 1), (3, 3), 1, 2)

    def test_dilated_depthwise_with_taps_reading_only_padding(self):
        # at dilation 3 on 2 rows, the top and bottom taps read only padding
        hw, dil = (2, 5), 3
        c = nn._CHUNK // (2 * (5 + 2 * dil)) // 2 + 100  # 2 images: more rows than one tile holds
        gen = rng()
        x = gen.standard_normal((2, c) + hw).astype(np.float32)
        w = nn.init_conv2d(gen, c, c, 3, dilation=dil, groups=c)
        assert len(nn._FlatTaps(x, (dil, dil), (3, 3), dil, 1).live) == 3
        want = tap_loop_depthwise(x, w.kernel.data, dil, dil)
        check_tiled_per_channel(x, w, nn.conv2d, want, (dil, dil), (3, 3), dil, 1)

    @pytest.mark.parametrize("shape", [(1, 1, 32, 128, 128), (1, 48, 128, 128)])
    def test_vjp_peak_memory(self, shape):
        import tracemalloc

        gen = rng()
        x = Tensor(gen.standard_normal(shape).astype(np.float32), requires_grad=True)
        if len(shape) == 5:
            y = nn.conv3d(x, nn.init_conv3d(gen, 1, 1))
        else:
            y = nn.conv2d(x, nn.init_conv2d(gen, shape[1], shape[1], 3, groups=shape[1]))
        g = np.ones(y.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            y.node.vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 3.16x and 3.06x with a full-size product per tap, 2.25x and
        # 2.13x with one tile-sized product buffer
        assert peak < 2.6 * x.data.nbytes

    @pytest.mark.parametrize("dil", [1, 2, 3])
    def test_gemm_matches_direct_loop(self, dil):
        gen = np.random.default_rng(dil)
        x = gen.standard_normal((2, 3, 9, 11)).astype(np.float32)
        check_conv2d_against_direct(x, nn.init_conv2d(gen, 3, 4, 3, dilation=dil))

    @pytest.mark.parametrize("hw,k,dil,pad", [((2, 2), 3, 2, 2), ((2, 2), 3, 3, 3), ((1, 1), 2, 2, 1)])
    def test_taps_reading_only_padding(self, hw, k, dil, pad):
        # on maps no larger than the dilation, most taps (the last case: every
        # tap) read only zero padding
        assert dil * (k - 1) // 2 == pad
        gen = np.random.default_rng(dil)
        x = gen.standard_normal((2, 3) + hw).astype(np.float32)
        check_conv2d_against_direct(x, nn.init_conv2d(gen, 3, 4, k, dilation=dil))
        check_conv2d_against_direct(x, nn.init_conv2d(gen, 3, 3, k, dilation=dil, groups=3))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_matches_direct_loop(self, stride):
        gen = np.random.default_rng(stride)
        x = gen.standard_normal((2, 5, 8, 10)).astype(np.float32)
        check_conv2d_against_direct(x, nn.init_conv2d(gen, 5, 5, 3, stride=stride, groups=5))

    @pytest.mark.parametrize("batch_of_one", [False, True])
    @pytest.mark.parametrize(
        "hw,stride,pad,dil",
        [((8, 10), 2, 1, 1), ((9, 7), 2, 1, 1), ((10, 13), 3, 1, 1), ((12, 9), 2, 2, 2)],
        # fixed ids, so a row keeps its name when other rows are added or removed
        ids=["hw0-2-1-1", "hw1-2-1-1", "hw4-3-1-1", "hw6-2-2-2"],
    )
    def test_strided_and_grouped_match_direct_loop(self, hw, stride, pad, dil, batch_of_one):
        # batch 1 is what paper-preset training and every restore run
        assert dil * (3 - 1) // 2 == pad
        gen = np.random.default_rng(stride * 10 + pad)
        x = gen.standard_normal((1 if batch_of_one else 2, 4) + hw).astype(np.float32)
        for groups, out_c in ((1, 8), (4, 4)):  # dense, depthwise
            check_conv2d_against_direct(x, nn.init_conv2d(gen, 4, out_c, 3, stride=stride, dilation=dil, groups=groups))

    def test_strided_vjp_peak_memory(self):
        import tracemalloc

        x = Tensor(rng().standard_normal((2, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = nn.init_conv2d(rng(), 16, 32, 3, stride=2)
        y = nn.conv2d(x, w)
        g = np.ones(y.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            y.node.vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 6.5x the input's bytes when the vjp rebuilt the im2col
        # columns, 3.1x on the phase-split flat layout
        assert peak < 5 * x.data.nbytes

    @pytest.mark.parametrize("ksize", [(3, 3, 3), (1, 3, 3)])
    def test_conv3d_1to1_matches_direct_loop(self, ksize):
        gen = rng()
        x = gen.standard_normal((2, 1, 6, 7, 9)).astype(np.float32)
        w = nn.init_conv3d(gen, 1, 1, ksize)
        y = nn.conv3d(Tensor(x, requires_grad=True), w)
        want, want_vjp = direct_conv3d_1to1(x, w.kernel.data, tuple(k // 2 for k in ksize))
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-5)
        g = gen.standard_normal(y.shape).astype(np.float32)
        (gx, gk), (want_gx, want_gk) = y.node.vjp(g), want_vjp(g)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(gk, want_gk, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shape", [(4, 1, 16, 32, 32), (1, 1, 31, 16, 16), (2, 1, 5, 7, 9)])
    @pytest.mark.parametrize("ksize", [(3, 3, 3), (1, 3, 3)])
    def test_conv3d_1to1_forward_bit_identical_to_tap_loop(self, shape, ksize):
        gen = rng()
        x = gen.standard_normal(shape).astype(np.float32)
        w = nn.init_conv3d(gen, 1, 1, ksize)
        got = nn.conv3d(Tensor(x), w).data
        assert np.array_equal(got, tap_loop_conv3d_1to1(x, w.kernel.data, tuple(k // 2 for k in ksize)))

    @pytest.mark.parametrize("shape,dil", [((4, 48, 32, 32), 1), ((1, 96, 16, 16), 1), ((2, 5, 7, 9), 2)])
    def test_depthwise_forward_bit_identical_to_tap_loop(self, shape, dil):
        gen = rng()
        x = gen.standard_normal(shape).astype(np.float32)
        c = shape[1]
        w = nn.init_conv2d(gen, c, c, 3, dilation=dil, groups=c)
        got = nn.conv2d(Tensor(x), w).data
        assert np.array_equal(got, tap_loop_depthwise(x, w.kernel.data, dil, dil * (3 - 1) // 2))

    @pytest.mark.parametrize("dil", [1, 2, 3])
    def test_dilated_conv_peak_memory(self, dil):
        import tracemalloc

        x = Tensor(rng().standard_normal((2, 32, 32, 32)).astype(np.float32), requires_grad=True)
        w = nn.init_conv2d(rng(), 32, 32, 3, dilation=dil)
        g = np.ones((2, 32, 32, 32), dtype=np.float32)
        tracemalloc.start()
        try:
            y = nn.conv2d(x, w)
            fwd_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            y.node.vjp(g)
            bwd_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # an im2col forward holds 9 copies of the input; its vjp rebuilt them
        assert fwd_peak < 5 * x.data.nbytes
        assert bwd_peak < 6 * x.data.nbytes


class TestChannelShuffle:
    def test_c4_g2_order(self):
        x = np.zeros((1, 4, 1, 1), dtype=np.float32)
        x[0, :, 0, 0] = [0, 1, 2, 3]
        y = nn.channel_shuffle(Tensor(x), 2).data
        np.testing.assert_array_equal(y[0, :, 0, 0], [0, 2, 1, 3])

    def test_g1_identity(self):
        x = rng().standard_normal((1, 6, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(nn.channel_shuffle(Tensor(x), 1).data, x)

    def test_shuffle_then_inverse(self):
        x = rng().standard_normal((2, 8, 3, 3)).astype(np.float32)
        y = nn.channel_shuffle(nn.channel_shuffle(Tensor(x), 2), 4).data
        np.testing.assert_array_equal(y, x)

    def test_indivisible_raises(self):
        with pytest.raises(ShapeError):
            nn.channel_shuffle(Tensor(np.ones((1, 6, 2, 2))), 4)

    @given(g=st.sampled_from([1, 2, 4]), c_mult=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_permutation_preserves_channel_multiset(self, g, c_mult):
        c = g * c_mult * 2 if g > 1 else c_mult * 2
        x = np.random.default_rng(5).standard_normal((1, c, 2, 2)).astype(np.float32)
        y = nn.channel_shuffle(Tensor(x), g).data
        got = sorted(y[0, i].tobytes() for i in range(c))
        want = sorted(x[0, i].tobytes() for i in range(c))
        assert got == want


class TestResampling:
    def test_downsample_shape(self):
        x = Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        assert nn.conv2d(x, nn.init_conv2d(rng(), 4, 8, 3, stride=2)).shape == (1, 8, 4, 4)

    def test_upsample_shape(self):
        x = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        assert nn.conv_transpose2d(x, nn.init_conv_t2d(rng(), 8, 4)).shape == (1, 4, 8, 8)

    def test_transposed_conv_scatter_against_loop(self):
        gen = rng()
        x = gen.standard_normal((1, 2, 3, 3)).astype(np.float32)
        k = gen.standard_normal((2, 1, 2, 2)).astype(np.float32)
        y = nn.conv_transpose2d(Tensor(x), nn.ConvT2dWeights(Tensor(k))).data
        ref = np.zeros((1, 1, 6, 6), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                for ci in range(2):
                    ref[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += x[0, ci, i, j] * k[ci, 0]
        np.testing.assert_allclose(y, ref, atol=1e-5)


class TestLayerNorm:
    def test_normalizes_channels(self):
        x = Tensor(rng().standard_normal((2, 8, 3, 3)).astype(np.float32))
        y = nn.layer_norm(x, nn.init_layer_norm(8)).data
        np.testing.assert_allclose(y.mean(axis=1), 0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=1), 1, atol=1e-2)

    def test_affine_applied(self):
        x = Tensor(rng().standard_normal((1, 4, 2, 2)).astype(np.float32))
        w = nn.init_layer_norm(4)
        w.beta.data[:] = 5.0
        w.gamma.data[:] = 0.0
        np.testing.assert_allclose(nn.layer_norm(x, w).data, 5.0, atol=1e-6)


def test_init_is_seed_deterministic():
    w1 = nn.init_conv2d(np.random.Generator(np.random.Philox(9)), 4, 8, 3)
    w2 = nn.init_conv2d(np.random.Generator(np.random.Philox(9)), 4, 8, 3)
    np.testing.assert_array_equal(w1.kernel.data, w2.kernel.data)


def test_init_fan_in_bound():
    w = nn.init_conv2d(rng(), 16, 16, 3)
    bound = 1 / np.sqrt(16 * 9)
    assert np.max(np.abs(w.kernel.data)) <= bound
