import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet import metrics, records
from hcanet.errors import ConfigError, MetricError, ShapeError


def cube(seed=0, h=16, w=16, b=4):
    return np.random.default_rng(seed).random((h, w, b))


class TestPsnr:
    def test_identical_capped_100(self):
        x = cube()
        assert metrics.psnr(x, x) == 100.0

    def test_uniform_error_closed_form(self):
        x = cube(1)
        assert abs(metrics.psnr(x + 0.1, x) - 20.0) < 1e-9

    def test_half_voxels_offset(self):
        x = cube(2, h=8, w=8, b=3)
        y = x.copy()
        y[:4] += 0.5  # half of each band -> MSE = 0.125 per band
        want = 10 * np.log10(1 / 0.125)
        assert abs(metrics.psnr(y, x) - want) < 1e-9
        assert abs(want - 9.0309) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.psnr(np.zeros((4, 4, 2)), np.zeros((4, 4, 3)))

    def test_monotone_in_sigma(self):
        from hcanet.noise import add_gaussian

        x = cube(3, h=32, w=32, b=6)
        vals = [metrics.psnr(add_gaussian(x, s, seed=11)[0], x) for s in (10, 30, 50)]
        assert vals[0] > vals[1] > vals[2]

    def test_per_band_vector(self):
        x = cube(4)
        pb = metrics.psnr_per_band(x + 0.1, x)
        assert pb.shape == (4,)
        np.testing.assert_allclose(pb, 20.0, atol=1e-9)


def ssim_loop_oracle(p, r):
    """Direct per-window evaluation of the SSIM formula, one band."""
    win = 11
    g = np.exp(-((np.arange(win) - 5.0) ** 2) / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = 0.01**2, 0.03**2
    h, wd = p.shape
    vals = []
    for i in range(h - win + 1):
        for j in range(wd - win + 1):
            pw = p[i : i + win, j : j + win]
            rw = r[i : i + win, j : j + win]
            mp, mr = (w * pw).sum(), (w * rw).sum()
            vp = (w * pw * pw).sum() - mp**2
            vr = (w * rw * rw).sum() - mr**2
            cov = (w * pw * rw).sum() - mp * mr
            vals.append(((2 * mp * mr + c1) * (2 * cov + c2)) / ((mp**2 + mr**2 + c1) * (vp + vr + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_one(self):
        x = cube(5)
        assert abs(metrics.ssim(x, x) - 1.0) < 1e-9

    def test_constant_pair(self):
        x = np.full((16, 16, 2), 0.5)
        assert abs(metrics.ssim(x, x.copy()) - 1.0) < 1e-9

    def test_against_direct_window_loop(self):
        rng = np.random.default_rng(6)
        p, r = rng.random((32, 32, 2)), rng.random((32, 32, 2))
        got = metrics.ssim(p, r)
        want = np.mean([ssim_loop_oracle(p[:, :, b], r[:, :, b]) for b in range(2)])
        assert abs(got - want) < 1e-6

    # the last two are one window tall or wide, with 65 windows along the
    # other axis: three blocks of the banded product, the last one partial
    @pytest.mark.parametrize("shape", [(13, 17, 3), (11, 11, 2), (11, 14, 2), (11, 75, 2), (75, 11, 1)])
    def test_per_band_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(16)
        p, r = rng.random(shape), rng.random(shape)
        want = [ssim_loop_oracle(p[:, :, b], r[:, :, b]) for b in range(shape[2])]
        np.testing.assert_allclose(metrics.ssim_per_band(p, r), want, rtol=0, atol=1e-10)

    def test_float32_inputs_match_loop_oracle(self):
        rng = np.random.default_rng(17)
        p, r = rng.random((16, 12, 2), dtype=np.float32), rng.random((16, 12, 2), dtype=np.float32)
        want = [ssim_loop_oracle(p[:, :, b].astype(np.float64), r[:, :, b].astype(np.float64)) for b in range(2)]
        np.testing.assert_allclose(metrics.ssim_per_band(p, r), want, rtol=0, atol=1e-10)

    def test_per_band_matches_2d_window_formula(self):
        """The separable passes equal the 11x11 window applied as one 2-D sum."""
        rng = np.random.default_rng(18)
        p, r = rng.random((64, 64, 4)), rng.random((64, 64, 4))
        g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2 * 1.5**2))
        win = np.outer(g, g) / np.outer(g, g).sum()

        def mean(img):
            views = np.lib.stride_tricks.sliding_window_view(img, win.shape)
            return np.einsum("ijkl,kl->ij", views, win)

        c1, c2 = 0.01**2, 0.03**2
        want = []
        for b in range(4):
            pb, rb = p[:, :, b], r[:, :, b]
            mp, mr = mean(pb), mean(rb)
            vp, vr, cov = mean(pb * pb) - mp**2, mean(rb * rb) - mr**2, mean(pb * rb) - mp * mr
            want.append(np.mean((2 * mp * mr + c1) * (2 * cov + c2) / ((mp**2 + mr**2 + c1) * (vp + vr + c2))))
        np.testing.assert_allclose(metrics.ssim_per_band(p, r), want, rtol=0, atol=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        p, r = rng.random((16, 16, 3)), rng.random((16, 16, 3))
        assert abs(metrics.ssim(p, r) - metrics.ssim(r, p)) < 1e-9

    def test_too_small_extent(self):
        with pytest.raises(ConfigError):
            metrics.ssim(np.zeros((8, 16, 2)), np.zeros((8, 16, 2)))

    def test_at_most_one(self):
        rng = np.random.default_rng(8)
        p, r = rng.random((16, 16, 3)), rng.random((16, 16, 3))
        assert metrics.ssim(p, r) <= 1.0


class TestSam:
    def test_identical_zero(self):
        x = cube(9) + 0.1
        assert metrics.sam(x, x) < 1e-7

    def test_orthogonal_right_angle(self):
        p = np.zeros((4, 4, 2))
        r = np.zeros((4, 4, 2))
        p[:, :, 0] = 1.0
        r[:, :, 1] = 1.0
        assert abs(metrics.sam(p, r) - np.pi / 2) < 1e-12

    def test_scale_invariance(self):
        x = cube(10) + 0.1
        assert metrics.sam(2.0 * x, x) < 1e-7

    def test_per_pixel_positive_scaling_invariant(self):
        rng = np.random.default_rng(11)
        p, r = rng.random((8, 8, 5)) + 0.1, rng.random((8, 8, 5)) + 0.1
        scale = rng.uniform(0.5, 3.0, (8, 8, 1))
        assert abs(metrics.sam(p * scale, r) - metrics.sam(p, r)) < 1e-9

    def test_zero_pixels_skipped_and_counted(self):
        p = cube(12) + 0.1
        r = p.copy()
        p[0, 0, :] = 0.0  # one zero-norm pred pixel
        rep = metrics.evaluate(p, r)
        assert rep.sam_skipped_pixels == 1
        assert rep.sam_rad < 1e-7

    def test_all_zero_reference_rejected(self):
        with pytest.raises(MetricError):
            metrics.sam(cube(13), np.zeros((16, 16, 4)))

    def test_range(self):
        rng = np.random.default_rng(14)
        p, r = rng.standard_normal((8, 8, 6)), rng.standard_normal((8, 8, 6))
        v = metrics.sam(p, r)
        assert 0.0 <= v <= np.pi


class TestReport:
    def test_json_fields(self):
        import json

        x = cube(15)
        rep = metrics.evaluate(x + 0.1, x)
        d = json.loads(records.dumps(rep))
        assert set(d) == {"psnr_db", "ssim", "sam_rad", "psnr_per_band", "ssim_per_band",
                          "sam_skipped_pixels"}
        assert len(d["psnr_per_band"]) == 4
        assert abs(d["psnr_db"] - 20.0) < 1e-9

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_metrics_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        p, r = rng.random((12, 12, 3)), rng.random((12, 12, 3))
        a, b = metrics.evaluate(p, r), metrics.evaluate(p, r)
        assert records.dumps(a) == records.dumps(b)
