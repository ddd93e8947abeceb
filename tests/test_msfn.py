import numpy as np
import pytest

from hcanet import msfn, nn
from hcanet.tensor import Tensor


def make_weights(c=8, seed=0, **kw):
    return msfn.init_msfn(np.random.Generator(np.random.Philox(seed)), c, **kw)


class TestGating:
    def test_zero_input_zero_output(self):
        w = make_weights()
        y = msfn.gating(Tensor(np.zeros((1, 8, 8, 8), dtype=np.float32)), w)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_expansion_channels(self):
        w = make_weights(c=8)  # gamma = 2
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 8, 8)).astype(np.float32))
        assert msfn.gating(x, w).shape == (1, 16, 8, 8)

    def test_multiplicative_in_dilated_weights(self):
        w = make_weights()
        x = Tensor(np.random.default_rng(1).standard_normal((1, 8, 10, 10)).astype(np.float32))
        base = msfn.gating(x, w).data.copy()
        s = 3.0
        w.dil2.kernel.data *= s
        w.dil3.kernel.data *= s
        np.testing.assert_allclose(msfn.gating(x, w).data, s * base, rtol=1e-5, atol=1e-5)


class TestMsfnForward:
    def test_shape_preserved(self):
        w = make_weights()
        x = Tensor(np.zeros((1, 8, 16, 16), dtype=np.float32))
        assert msfn.msfn_forward(x, w).shape == (1, 8, 16, 16)

    def test_dilation2_footprint(self):
        # one dilated 3x3 rate-2 conv: a centered delta lands on offsets {-2,0,2}^2
        x = np.zeros((1, 1, 11, 11), dtype=np.float32)
        x[0, 0, 5, 5] = 1.0
        w = nn.Conv2dWeights(Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)), dilation=2)
        y = nn.conv2d(Tensor(x), w).data[0, 0]
        expect = np.zeros((11, 11), dtype=np.float32)
        for di in (-2, 0, 2):
            for dj in (-2, 0, 2):
                expect[5 + di, 5 + dj] = 1.0
        np.testing.assert_array_equal(y, expect)

    def test_dil3_zeroed_degenerates_to_rate2_path(self):
        w = make_weights()
        w.dil3.kernel.data[...] = 0.0
        x = Tensor(np.random.default_rng(2).standard_normal((1, 8, 9, 9)).astype(np.float32))
        got = msfn.msfn_forward(x, w).data
        from hcanet.tensor import gelu, mul_elementwise

        a = gelu(nn.conv3d_on_features(nn.conv2d(x, w.expand_a), w.spectral))
        d2 = nn.conv2d(nn.conv2d(x, w.expand_b), w.dil2)
        want = nn.conv2d(mul_elementwise(a, d2), w.project).data
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_delta_footprint_bounded_by_gelu_path(self):
        # GELU(0)=0 exactly, so the product is confined to the 3x3x3 path's
        # one-pixel halo even though the dilated path reaches out to +-3.
        w = make_weights()
        x = np.zeros((1, 8, 11, 11), dtype=np.float32)
        x[0, :, 5, 5] = 1.0
        y = msfn.msfn_forward(Tensor(x), w).data
        mask = np.zeros((11, 11), dtype=bool)
        mask[4:7, 4:7] = True
        assert np.all(y[0][:, ~mask] == 0.0)
        assert np.any(y[0][:, mask] != 0.0)

    def test_shared_expansion_feeds_both_dilated_paths(self):
        w = make_weights()
        x = Tensor(np.random.default_rng(3).standard_normal((1, 8, 9, 9)).astype(np.float32))
        from hcanet.tensor import add, gelu, mul_elementwise

        b = nn.conv2d(x, w.expand_b)
        d = add(nn.conv2d(b, w.dil2), nn.conv2d(b, w.dil3))
        a = gelu(nn.conv3d_on_features(nn.conv2d(x, w.expand_a), w.spectral))
        want = nn.conv2d(mul_elementwise(a, d), w.project).data
        np.testing.assert_allclose(msfn.msfn_forward(x, w).data, want, atol=1e-6)

    def test_dilation_rates_recorded(self):
        w = make_weights()
        # "same" padding dil*(k-1)//2 equals the rate for the 3x3 kernels
        for conv, dil in ((w.dil2, 2), (w.dil3, 3)):
            k = conv.kernel.shape[-1]
            assert conv.dilation == dil and dil * (k - 1) // 2 == dil


class TestFfnStandIn:
    def test_shape_and_zero(self):
        w = msfn.init_ffn(np.random.Generator(np.random.Philox(4)), 8)
        x = Tensor(np.zeros((1, 8, 6, 6), dtype=np.float32))
        y = msfn.ffn_forward(x, w)
        assert y.shape == (1, 8, 6, 6)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_pointwise_only_no_spatial_mixing(self):
        w = msfn.init_ffn(np.random.Generator(np.random.Philox(5)), 4)
        x = np.zeros((1, 4, 7, 7), dtype=np.float32)
        x[0, :, 3, 3] = 1.0
        y = msfn.ffn_forward(Tensor(x), w).data
        mask = np.zeros((7, 7), dtype=bool)
        mask[3, 3] = True
        assert np.all(y[0][:, ~mask] == 0.0)


def test_msfn_gradients_match_finite_differences():
    from hcanet.gradcheck import preset_msfn

    res = preset_msfn(seed=0)
    assert res.ok, f"worst: {res.worst()}"
