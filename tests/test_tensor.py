import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hcanet import tensor as T
from hcanet.errors import ContractError, ShapeError
from hcanet.tensor import Tensor, backward


def t(data, rg=False, dtype=None):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg, dtype=dtype)


class TestElementwise:
    def test_add(self):
        np.testing.assert_array_equal(T.add(t([1, 2]), t([3, 4])).data, [4, 6])

    def test_mul_zeros_absorbs(self):
        x = t(np.random.default_rng(0).standard_normal(7))
        np.testing.assert_array_equal(T.mul_elementwise(x, t(np.zeros(7))).data, np.zeros(7))

    def test_mul_backward_product_rule(self):
        a, b = t([2.0], rg=True), t([5.0], rg=True)
        backward(T.sum_all(T.mul_elementwise(a, b)))
        np.testing.assert_array_equal(a.grad, [5.0])
        np.testing.assert_array_equal(b.grad, [2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(t([1, 2]), t([1, 2, 3]))
        with pytest.raises(ShapeError):
            T.mul_elementwise(t([[1.0]]), t([1.0]))

    def test_no_implicit_broadcast(self):
        with pytest.raises(ShapeError):
            T.add(t(np.ones((2, 3))), t(np.ones((1, 3))))

    def test_scalar_forms_allowed(self):
        x = t([1.0, 2.0], rg=True)
        y = T.scale_by(x, t(3.0, rg=True))
        np.testing.assert_array_equal(y.data, [3.0, 6.0])


class TestMatmul:
    def test_identity(self):
        a = t([[1, 2], [3, 4]])
        np.testing.assert_array_equal(T.matmul(t(np.eye(2)), a).data, a.data)

    def test_orthogonal(self):
        np.testing.assert_array_equal(T.matmul(t([[1, 0]]), t([[0], [1]])).data, [[0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(t(np.ones((3, 4))), t(np.ones((5, 2))))

    def test_fd_random_3x4_4x2(self):
        from hcanet.gradcheck import check_gradients

        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
        res = check_gradients(
            lambda: T.sum_all(T.mul_elementwise(T.matmul(a, b), w)), {"a": a, "b": b}
        )
        assert res.ok, res.worst()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_overflow_stability(self):
        y = T.softmax(t([1000.0, 0.0])).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_fd_length5(self):
        from hcanet.gradcheck import check_gradients

        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal(5), dtype=np.float64)
        res = check_gradients(lambda: T.sum_all(T.mul_elementwise(T.softmax(x), w)), {"x": x})
        assert res.ok, res.worst()

    @given(hnp.arrays(np.float64, (3, 6), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_nonnegative(self, arr):
        y = T.softmax(Tensor(arr, dtype=np.float64), axis=-1).data
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(3), atol=1e-6)


def grid(dtype, lo=-6.0, hi=6.0):
    # GELU's forward tiles hold _CHUNK // 2 elements and its backward tiles
    # _CHUNK, so this is 3.5 or 1.75 tiles and the last one is partial; over
    # [-6, 6] a tile holds only |z| > 1 or mixes it with |z| < 1
    return np.linspace(lo, hi, 7 * T._CHUNK // 4 + 17).astype(dtype)


def gelu_reference(x):
    """x * Phi(x) and its derivative, from the stdlib's double-precision erfc."""
    x = [float(v) for v in x]
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    pdf = np.array([math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in x])
    return np.array(x) * cdf, cdf + np.array(x) * pdf


class TestGelu:
    def test_zero(self):
        assert T.gelu(t([0.0])).data[0] == 0.0

    def test_positive_asymptote(self):
        assert abs(T.gelu(t([10.0])).data[0] - 10.0) < 1e-6

    def test_negative_asymptote(self):
        assert abs(T.gelu(t([-10.0])).data[0]) < 1e-6

    def test_exact_erf_value(self):
        # x * Phi(x) at x=1: Phi(1) = 0.841344746...
        got = T.gelu(t([1.0], dtype=np.float64)).data[0]
        assert abs(got - 0.8413447460685429) < 1e-12

    @pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), (-1.414, 1.414)], ids=["wide", "all_fast_tiles"])
    def test_float32_within_2_ulp_of_float64_reference(self, lo, hi):
        x = grid(np.float32, lo, hi)
        ref, _ = gelu_reference(x)
        got = T.gelu(Tensor(x)).data.astype(np.float64)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref).astype(np.float32)))

    def test_float64_close_to_reference(self):
        x = grid(np.float64, -10.0, 10.0)
        ref, dref = gelu_reference(x)
        y = T.gelu(Tensor(x, requires_grad=True, dtype=np.float64))
        np.testing.assert_allclose(y.data, ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(y.node.vjp(np.ones_like(x))[0], dref, rtol=1e-14, atol=1e-15)

    def test_float32_gradient_close_to_reference(self):
        x = grid(np.float32, -10.0, 10.0)
        _, dref = gelu_reference(x)
        y = T.gelu(Tensor(x, requires_grad=True))
        np.testing.assert_allclose(y.node.vjp(np.ones_like(x))[0], dref, rtol=0, atol=2.5e-7)

    def test_zero_is_exact_inside_a_full_tile(self):
        x = np.zeros(T._CHUNK + 3, dtype=np.float32)
        x[::7] = np.linspace(-4, 4, len(x[::7]))  # large |z| in the same tiles as the zeros
        y = T.gelu(Tensor(x)).data
        assert np.all(y[x == 0] == 0.0)

    def test_float64_asymptotes(self):
        y = T.gelu(t([-10.0, 10.0], dtype=np.float64)).data
        ref, _ = gelu_reference([-10.0, 10.0])
        assert y[1] == 10.0
        assert abs(y[0] - ref[0]) <= 1e-12 * abs(ref[0])  # the left tail keeps its relative accuracy

    def test_tile_with_few_large_values_matches_reference(self):
        # the paper's traffic: almost every |z| < 1, with a few larger values per tile
        rng = np.random.default_rng(3)
        x = (0.3 * rng.standard_normal(2 * T._CHUNK + 5)).astype(np.float32)
        x[rng.integers(0, len(x), 40)] = rng.choice([-2.5, -1.6, 1.7, 3.0], 40)
        ref, _ = gelu_reference(x)
        got = T.gelu(Tensor(x)).data.astype(np.float64)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref).astype(np.float32)))

    def test_nan_propagates_without_spoiling_its_tile(self):
        x = np.array([np.nan, 0.5, 3.0, -3.0], dtype=np.float32)
        y = T.gelu(Tensor(x)).data
        ref, _ = gelu_reference(x[1:])
        assert np.isnan(y[0])
        np.testing.assert_allclose(y[1:], ref, rtol=1e-6)


class TestErf:
    def test_float64_within_1e_15_of_stdlib(self):
        z = grid(np.float64)
        ref = np.array([math.erf(v) for v in z.tolist()])
        assert np.abs(T._erf(z) - ref).max() <= 1e-15

    def test_float32_within_an_ulp_of_stdlib(self):
        z = grid(np.float32)
        ref = np.array([math.erf(v) for v in z.tolist()])
        err = np.abs(T._erf(z).astype(np.float64) - ref)
        assert np.all(err <= np.spacing(np.abs(ref).astype(np.float32)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_and_exact_at_zero(self, dtype):
        z = grid(dtype, 0.0, 6.0)
        np.testing.assert_array_equal(T._erf(-z), -T._erf(z))
        assert T._erf(np.zeros(3, dtype=dtype)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_asymptotes(self, dtype):
        assert T._erf(np.array([-10.0, 10.0], dtype=dtype)).tolist() == [-1.0, 1.0]


class TestRearrange:
    def test_reshape_involution_bits(self):
        x = np.random.default_rng(1).standard_normal((2, 3)).astype(np.float32)
        y = T.reshape(T.reshape(Tensor(x), (3, 2)), (2, 3)).data
        assert np.array_equal(y.view(np.uint32), x.view(np.uint32))

    def test_permute_transpose(self):
        y = T.permute(t([[1, 2], [3, 4]]), (1, 0)).data
        np.testing.assert_array_equal(y, [[1, 3], [2, 4]])

    def test_permute_involution_bits(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 4)).astype(np.float32)
        y = T.permute(T.permute(Tensor(x), (2, 0, 1)), (1, 2, 0)).data
        assert np.array_equal(y.view(np.uint32), x.view(np.uint32))

    def test_concat_extent(self):
        y = T.concat([t(np.ones((2, 3))), t(np.ones((2, 5)))], axis=1)
        assert y.shape == (2, 8)

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(t(np.ones((2, 3))), (4, 2))

    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_permute_roundtrip_property(self, arr, axes):
        axes = tuple(axes)
        inv = tuple(int(i) for i in np.argsort(axes))
        y = T.permute(T.permute(Tensor(arr), axes), inv).data
        assert np.array_equal(y.view(np.uint32), arr.view(np.uint32))


class TestBackward:
    def test_sum_linearity(self):
        w = t([1.0, 1.0, 1.0], rg=True)
        backward(T.sum_all(w))
        np.testing.assert_array_equal(w.grad, [1, 1, 1])

    def test_quadratic(self):
        w = t([1.0, 2.0], rg=True)
        backward(T.sum_all(T.mul_elementwise(w, w)))
        np.testing.assert_array_equal(w.grad, [2, 4])

    def test_fanout_accumulates(self):
        w = t([3.0], rg=True)
        y = T.add(T.scale(w, 2.0), T.mul_elementwise(w, w))  # 2w + w^2
        backward(T.sum_all(y))
        np.testing.assert_array_equal(w.grad, [2 + 2 * 3.0])

    def test_non_scalar_rejected(self):
        w = t([1.0, 2.0], rg=True)
        with pytest.raises(ContractError):
            backward(T.add(w, w))

    def test_non_parameters_hold_no_grad(self):
        w = t([1.0], rg=True)
        mid = T.scale(w, 2.0)
        backward(T.sum_all(mid))
        assert mid.grad is None
        assert w.grad is not None

    def test_grad_accumulates_across_calls(self):
        w = t([1.0], rg=True)
        backward(T.sum_all(w))
        backward(T.sum_all(w))
        np.testing.assert_array_equal(w.grad, [2.0])

    def test_no_grad_suppresses_tape(self):
        w = t([1.0], rg=True)
        with T.no_grad():
            y = T.sum_all(w)
        with pytest.raises(ContractError):
            backward(y)

    def test_no_grad_in_another_thread_leaves_recording_on(self):
        import threading

        entered, release = threading.Event(), threading.Event()

        def worker():
            with T.no_grad():
                entered.set()
                release.wait(10)

        th = threading.Thread(target=worker)
        th.start()
        try:
            assert entered.wait(10)
            y = T.scale(t([1.0], rg=True), 2.0)  # recorded while the worker holds no_grad
        finally:
            release.set()
            th.join(10)
        assert not th.is_alive()
        assert y.requires_grad and y.node is not None


class TestDtypeModes:
    def test_default_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_use_dtype_scopes_float64(self):
        with T.use_dtype(np.float64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_ops_preserve_dtype(self):
        x = Tensor([1.0, 2.0])
        assert T.gelu(x).dtype == np.float32
        assert T.reciprocal(x).dtype == np.float32
        assert T.softmax(x).dtype == np.float32

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_debug_numerics_catches_nan(self):
        from hcanet.errors import NumericsError

        x = Tensor([1.0, 0.0])
        with T.debug_numerics():
            with pytest.raises(NumericsError):
                T.reciprocal(x)  # 1/x at x=0 -> inf


def test_all_primitive_ops_match_finite_differences():
    from hcanet.gradcheck import preset_ops

    res = preset_ops(seed=0)
    assert res.ok, f"worst: {res.worst()}"


def test_ops_cases_draw_from_streams_keyed_by_seed_and_name():
    from hcanet.gradcheck import _case_stream

    def draw(seed, name):
        return _case_stream(seed, name).standard_normal(4)

    np.testing.assert_array_equal(draw(0, "add"), draw(0, "add"))
    assert not np.array_equal(draw(0, "add"), draw(0, "sub"))
    assert not np.array_equal(draw(0, "add"), draw(1, "add"))
