import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet import loss
from hcanet.errors import ShapeError
from hcanet.tensor import Tensor, backward


def cube(arr):
    return np.asarray(arr, dtype=np.float64)


class TestL1Rec:
    def test_identical_zero(self):
        x = cube(np.random.default_rng(0).random((4, 4, 3)))
        assert loss.l1_rec(x, x).item() == 0.0

    def test_constant_offset(self):
        x = cube(np.random.default_rng(1).random((4, 4, 3)))
        assert abs(loss.l1_rec(x + 0.5, x).item() - 0.5) < 1e-7

    def test_2x2x1_oracle(self):
        pred = cube([[0, 1], [1, 0]]).reshape(2, 2, 1)
        target = cube([[1, 1], [0, 0]]).reshape(2, 2, 1)
        assert abs(loss.l1_rec(pred, target).item() - 0.5) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss.l1_rec(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestGradReg:
    def test_identical_zero(self):
        x = cube(np.random.default_rng(2).random((4, 5, 3)))
        assert loss.grad_reg(x, x).item() == 0.0

    def test_constant_shift_zero(self):
        x = cube(np.random.default_rng(3).random((4, 5, 3)))
        assert loss.grad_reg(x + 0.3, x).item() < 1e-14

    @pytest.mark.filterwarnings("ignore:grad_reg")
    def test_spectral_hand_oracle(self):
        pred = cube([0, 1, 3]).reshape(1, 1, 3)
        target = cube([0, 1, 1]).reshape(1, 1, 3)
        # spectral forward diffs: [1,2] vs [1,0] -> mean(0^2, 2^2) = 2
        assert abs(loss.grad_reg(pred, target).item() - 2.0) < 1e-12

    def test_degenerate_axis_warns(self):
        x = cube(np.zeros((1, 4, 3)))
        with pytest.warns(UserWarning, match="vertical"):
            loss.grad_reg(x, x)

    def test_matches_numpy_diff_oracle(self):
        rng = np.random.default_rng(4)
        p, t = cube(rng.random((5, 6, 4))), cube(rng.random((5, 6, 4)))
        want = sum(np.mean((np.diff(p, axis=a) - np.diff(t, axis=a)) ** 2) for a in range(3))
        got = loss.grad_reg(Tensor(p, dtype=np.float64), Tensor(t, dtype=np.float64)).item()
        assert abs(got - want) < 1e-12

    def test_batch_axis_mapping_matches_cube(self):
        rng = np.random.default_rng(5)
        p, t = cube(rng.random((5, 6, 4))), cube(rng.random((5, 6, 4)))
        pb = np.transpose(p, (2, 0, 1))[None]  # (1, B, H, W)
        tb = np.transpose(t, (2, 0, 1))[None]
        a = loss.grad_reg(Tensor(p, dtype=np.float64), Tensor(t, dtype=np.float64)).item()
        b = loss.grad_reg(Tensor(pb, dtype=np.float64), Tensor(tb, dtype=np.float64)).item()
        assert abs(a - b) < 1e-12


class TestTotalLoss:
    def test_lambda_zero_is_l1(self, monkeypatch):
        monkeypatch.setattr(loss, "LAMBDA_GRAD", 0.0)
        rng = np.random.default_rng(6)
        p, t = cube(rng.random((4, 4, 3))), cube(rng.random((4, 4, 3)))
        got = loss.total_loss(p, t).item()
        assert got == loss.l1_rec(p, t).item()

    def test_identical_zero(self):
        x = cube(np.random.default_rng(7).random((4, 4, 3)))
        assert loss.total_loss(x, x).item() == 0.0

    @pytest.mark.filterwarnings("ignore:grad_reg")
    def test_composition_of_oracles(self):
        pred = cube([[0, 1], [1, 0]]).reshape(2, 2, 1)
        target = cube([[1, 1], [0, 0]]).reshape(2, 2, 1)
        dv = np.mean((np.diff(pred, axis=0) - np.diff(target, axis=0)) ** 2)
        dh = np.mean((np.diff(pred, axis=1) - np.diff(target, axis=1)) ** 2)
        want = 0.5 + 0.01 * (dv + dh)  # spectral axis degenerate
        assert abs(loss.total_loss(pred, target).item() - want) < 1e-12

    def test_gradient_matches_finite_differences(self):
        from hcanet.gradcheck import check_gradients

        rng = np.random.default_rng(8)
        p = Tensor(rng.random((3, 4, 3)), requires_grad=True, dtype=np.float64)
        t = Tensor(rng.random((3, 4, 3)), dtype=np.float64)
        res = check_gradients(lambda: loss.total_loss(p, t), {"pred": p})
        assert res.ok, res.worst()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        p, t = cube(rng.random((3, 3, 2))), cube(rng.random((3, 3, 2)))
        v = loss.total_loss(p, t).item()
        assert v >= 0
        if not np.array_equal(p, t):
            assert v > 0
        assert loss.total_loss(p, p).item() == 0.0
