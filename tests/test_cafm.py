import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet import cafm
from hcanet.errors import ContractError, ShapeError
from hcanet.nn import named_params
from hcanet.tensor import Tensor


def make_weights(c=8, seed=0, **kw):
    return cafm.init_cafm(np.random.Generator(np.random.Philox(seed)), c, **kw)


def zero_all(w: cafm.CafmWeights):
    for _, t in named_params(w):
        if t.ndim:  # keep alpha at its positive init
            t.data[...] = 0.0
    return w


class TestLocalBranch:
    def test_zero_input_zero_output(self):
        w = make_weights()
        y = cafm.local_branch(Tensor(np.zeros((1, 8, 6, 6), dtype=np.float32)), w)
        np.testing.assert_array_equal(y.data, 0.0)

    def test_shape_preserved(self):
        w = make_weights()
        x = Tensor(np.random.default_rng(1).standard_normal((1, 8, 16, 16)).astype(np.float32))
        assert cafm.local_branch(x, w).shape == (1, 8, 16, 16)

    def test_disabled_raises(self):
        w = make_weights(local_branch=False)
        with pytest.raises(ContractError):
            cafm.local_branch(Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)), w)

    def test_width_indivisible_by_groups(self):
        with pytest.raises(ShapeError):
            make_weights(c=6)  # shuffle groups: 4


class TestAttentionMap:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.standard_normal((64, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((8, 64)).astype(np.float32))
        a = cafm.attention_map(q, k, 1.0).data
        np.testing.assert_allclose(a.sum(axis=-1), np.ones(8), atol=1e-6)

    def test_large_alpha_gives_uniform(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((20, 4)).astype(np.float32))
        k = Tensor(rng.standard_normal((4, 20)).astype(np.float32))
        a = cafm.attention_map(q, k, 1e9).data
        np.testing.assert_allclose(a, 0.25, atol=1e-6)

    def test_shape_and_range_c8_hw64(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((64, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((8, 64)).astype(np.float32))
        a = cafm.attention_map(q, k, 1.0).data
        assert a.shape == (8, 8)  # C x C, never HW x HW
        assert np.all((a > 0) & (a < 1))

    def test_nonpositive_alpha_rejected(self):
        q = Tensor(np.zeros((4, 2), dtype=np.float32))
        k = Tensor(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ContractError):
            cafm.attention_map(q, k, 0.0)
        with pytest.raises(ContractError):
            cafm.attention_map(q, k, Tensor(np.asarray(-1.0)))

    @given(c=st.sampled_from([2, 4, 8]), hw=st.integers(3, 30), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_row_sums_property(self, c, hw, seed):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.standard_normal((hw, c)).astype(np.float32))
        k = Tensor(rng.standard_normal((c, hw)).astype(np.float32))
        a = cafm.attention_map(q, k, 1.0).data
        assert a.shape == (c, c)
        np.testing.assert_allclose(a.sum(axis=-1), np.ones(c), atol=1e-6)
        assert np.all(a >= 0)


class TestGlobalBranch:
    def test_shape_preserved(self):
        w = make_weights()
        x = Tensor(np.random.default_rng(5).standard_normal((1, 8, 16, 16)).astype(np.float32))
        assert cafm.global_branch(x, w).shape == (1, 8, 16, 16)

    def test_zero_weights_passthrough(self):
        w = zero_all(make_weights())
        x = np.random.default_rng(6).standard_normal((1, 8, 5, 5)).astype(np.float32)
        y = cafm.global_branch(Tensor(x), w).data
        np.testing.assert_array_equal(y, x)

    def test_attention_memory_is_channel_sized(self):
        # HW (12) != C (8) so a transposed contraction cannot hide
        w = make_weights()
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((1, 12, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((1, 8, 12)).astype(np.float32))
        assert cafm.attention_map(q, k, w.alpha).shape == (1, 8, 8)


class TestCafmForward:
    def test_equals_sum_of_branches(self):
        w = make_weights()
        x = Tensor(np.random.default_rng(8).standard_normal((2, 8, 6, 6)).astype(np.float32))
        full = cafm.cafm_forward(x, w).data
        parts = cafm.global_branch(x, w).data + cafm.local_branch(x, w).data
        np.testing.assert_allclose(full, parts, atol=1e-6)

    def test_local_disabled_equals_global(self):
        w = make_weights(local_branch=False)
        x = Tensor(np.random.default_rng(9).standard_normal((1, 8, 6, 6)).astype(np.float32))
        np.testing.assert_array_equal(cafm.cafm_forward(x, w).data, cafm.global_branch(x, w).data)

    def test_zero_weights_identity(self):
        w = zero_all(make_weights())
        x = np.random.default_rng(10).standard_normal((1, 8, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(cafm.cafm_forward(Tensor(x), w).data, x)

    def test_shape_preserved_various(self):
        w = make_weights()
        for shape in [(1, 8, 4, 4), (2, 8, 6, 10), (1, 8, 3, 7)]:
            x = Tensor(np.zeros(shape, dtype=np.float32))
            assert cafm.cafm_forward(x, w).shape == shape

    def test_degenerate_spectral_kernel_is_2d(self):
        w = make_weights(spectral_3d=False)
        assert w.local_3d.kernel.shape == (1, 1, 1, 3, 3)


def test_cafm_gradients_match_finite_differences():
    from hcanet.gradcheck import preset_cafm

    res = preset_cafm(seed=0)
    assert res.ok, f"worst: {res.worst()}"
