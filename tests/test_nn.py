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
        w = conv_w(np.full((1, 1, 3, 3), 1 / 9), padding=0)
        np.testing.assert_allclose(nn.conv2d(x, w).data, c, rtol=1e-6)

    def test_dilation2_same_shape(self):
        x = Tensor(rng().standard_normal((1, 4, 6, 6)))
        w = nn.init_conv2d(rng(), 4, 4, 3, dilation=2)
        assert w.padding == 2
        assert nn.conv2d(x, w).shape == (1, 4, 6, 6)

    def test_channel_mismatch(self):
        x = Tensor(np.ones((1, 3, 4, 4)))
        w = nn.init_conv2d(rng(), 4, 4, 3)
        with pytest.raises(ShapeError):
            nn.conv2d(x, w)

    def test_strided_shape_formula(self):
        x = Tensor(rng().standard_normal((1, 2, 9, 9)))
        w = nn.init_conv2d(rng(), 2, 5, 3, stride=2, padding=1)
        # H' = floor((9 + 2 - 2 - 1)/2) + 1 = 5
        assert nn.conv2d(x, w).shape == (1, 5, 5, 5)

    def test_grouped_matches_per_group_dense(self):
        x = rng().standard_normal((2, 4, 5, 5)).astype(np.float32)
        w = nn.init_conv2d(rng(), 4, 6, 3, groups=2)
        y = nn.conv2d(Tensor(x), w).data
        k = w.kernel.data
        for g in range(2):
            sub = nn.conv2d(
                Tensor(x[:, 2 * g : 2 * g + 2]),
                conv_w(k[3 * g : 3 * g + 3], padding=1),
            ).data
            np.testing.assert_allclose(y[:, 3 * g : 3 * g + 3], sub, atol=1e-5)

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
        wts = nn.init_conv2d(rng(), c, o, 3, stride=stride, dilation=dilation, padding=p)
        ho = (h + 2 * p - dilation * 2 - 1) // stride + 1
        wo = (w_ + 2 * p - dilation * 2 - 1) // stride + 1
        assert nn.conv2d(x, wts).shape == (n, o, ho, wo)


class TestDepthwise:
    def test_identity_kernels(self):
        x = rng().standard_normal((1, 2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 1, 3, 3), dtype=np.float32)
        k[:, 0, 1, 1] = 1.0
        y = nn.depthwise_conv2d(Tensor(x), conv_w(k, padding=1, groups=2)).data
        np.testing.assert_allclose(y, x, atol=0)

    def test_channel_isolation(self):
        x = rng().standard_normal((1, 2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 1, 3, 3), dtype=np.float32)
        k[1, 0, 1, 1] = 1.0
        y = nn.depthwise_conv2d(Tensor(x), conv_w(k, padding=1, groups=2)).data
        assert np.all(y[:, 0] == 0)
        np.testing.assert_allclose(y[:, 1], x[:, 1], atol=0)

    def test_rejects_non_depthwise(self):
        x = Tensor(np.ones((1, 4, 5, 5)))
        with pytest.raises(ShapeError):
            nn.depthwise_conv2d(x, nn.init_conv2d(rng(), 4, 4, 3, groups=2))


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

    @pytest.mark.parametrize("in_f,out_f,bias", [(1, 16, False), (2, 3, True)])
    def test_multifeature_matches_direct_loop(self, in_f, out_f, bias):
        # stem-shaped: 3x3x3 kernel, padding (1, 1, 1), batch > 1, H != W
        gen = rng()
        x = gen.standard_normal((2, in_f, 5, 9, 10)).astype(np.float32)
        w = nn.init_conv3d(gen, in_f, out_f, bias=bias)
        if bias:
            w.bias.data[:] = gen.standard_normal(out_f)
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        k = w.kernel.data.astype(np.float64)
        want = np.zeros((2, out_f, 5, 9, 10))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    want += np.einsum("of,nfdhw->nodhw", k[:, :, a, b, c], xp[:, :, a : a + 5, b : b + 9, c : c + 10])
        if bias:
            want += w.bias.data.reshape(1, out_f, 1, 1, 1)
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
        assert nn.downsample(x, nn.init_downsample(rng(), 4)).shape == (1, 8, 4, 4)

    def test_upsample_shape(self):
        x = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        assert nn.upsample(x, nn.init_upsample(rng(), 8)).shape == (1, 4, 8, 8)

    def test_downsample_odd_raises(self):
        x = Tensor(np.zeros((1, 4, 7, 8), dtype=np.float32))
        with pytest.raises(ShapeError):
            nn.downsample(x, nn.init_downsample(rng(), 4))

    def test_upsample_odd_channels_raises(self):
        x = Tensor(np.zeros((1, 5, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            nn.upsample(x, nn.init_upsample(rng(), 4))

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
