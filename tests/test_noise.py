import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet import noise
from hcanet.errors import ConfigError, ContractError


def clean(h=64, w=64, b=9, seed=0):
    return np.random.default_rng(seed).random((h, w, b)).astype(np.float32)


def bits_equal(a, b):
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestGaussian:
    def test_sigma30_statistics(self):
        x = np.zeros((64, 64, 31), dtype=np.float32)
        y, rep = noise.add_gaussian(x, 30.0, seed=1)
        assert abs(y.std() - 30 / 255) / (30 / 255) < 0.02
        assert abs(y.mean()) < 3 * (30 / 255) / math.sqrt(y.size)
        assert rep.gaussian[0].sigma == 30.0

    def test_determinism(self):
        x = clean()
        y1, _ = noise.add_gaussian(x, 50.0, seed=7)
        y2, _ = noise.add_gaussian(x, 50.0, seed=7)
        assert bits_equal(y1, y2)

    def test_seed_changes_noise(self):
        x = clean()
        y1, _ = noise.add_gaussian(x, 50.0, seed=7)
        y2, _ = noise.add_gaussian(x, 50.0, seed=8)
        assert not np.array_equal(y1, y2)

    def test_input_not_mutated(self):
        x = clean()
        ref = x.copy()
        noise.add_gaussian(x, 50.0, seed=0)
        assert bits_equal(x, ref)

    def test_no_clipping(self):
        x = np.ones((32, 32, 4), dtype=np.float32)
        y, _ = noise.add_gaussian(x, 200.0, seed=3)
        assert y.max() > 1.0 and y.min() < 0.0

    def test_bad_sigma(self):
        with pytest.raises(ConfigError):
            noise.add_gaussian(clean(), 0.0, seed=0)
        with pytest.raises(ConfigError):
            noise.add_gaussian(clean(), 300.0, seed=0)


class TestNonIidGaussian:
    def test_sigmas_in_range(self):
        _, rep = noise.add_noniid_gaussian(clean(), seed=2)
        sigmas = [e.sigma for e in rep.gaussian]
        assert len(sigmas) == 9
        assert all(30 <= s <= 70 for s in sigmas)

    def test_per_band_std_matches_report(self):
        x = np.zeros((64, 64, 9), dtype=np.float32)
        y, rep = noise.add_noniid_gaussian(x, seed=3)
        for e in rep.gaussian:
            got = y[:, :, e.band].std()
            assert abs(got - e.sigma / 255) / (e.sigma / 255) < 0.05

    def test_degenerate_interval(self):
        x = np.zeros((64, 64, 5), dtype=np.float32)
        y, rep = noise.add_noniid_gaussian(x, seed=4, sigma_min=50, sigma_max=50)
        assert all(e.sigma == 50.0 for e in rep.gaussian)
        assert abs(y.std() - 50 / 255) / (50 / 255) < 0.05


class TestStripe:
    def test_fraction_bounds_and_band_count(self):
        x = clean(b=10)
        _, rep = noise.add_stripe(x, seed=5)
        assert len(rep.stripe) == math.ceil(10 / 3)
        for e in rep.stripe:
            assert 0.05 <= e.fraction <= 0.15
            assert len(e.columns) == len(set(e.columns)) == len(e.offsets)

    def test_unaffected_columns_identical(self):
        x = clean()
        y, rep = noise.add_stripe(x, seed=6)
        for e in rep.stripe:
            mask = np.ones(x.shape[1], dtype=bool)
            mask[e.columns] = False
            assert bits_equal(y[:, mask, e.band], x[:, mask, e.band])
        touched = {e.band for e in rep.stripe}
        for b in set(range(x.shape[2])) - touched:
            assert bits_equal(y[:, :, b], x[:, :, b])

    def test_column_mean_shift_equals_offset(self):
        x = clean()
        y, rep = noise.add_stripe(x, seed=7)
        for e in rep.stripe:
            for c, off in zip(e.columns, e.offsets):
                got = (y[:, c, e.band] - x[:, c, e.band]).mean()
                assert abs(got - off) < 1e-6

    def test_narrow_cube_rejected(self):
        with pytest.raises(ContractError):
            noise.add_stripe(clean(w=16), seed=0)

    @given(seed=st.integers(0, 10_000), w=st.sampled_from([20, 33, 64, 100]))
    @settings(max_examples=25, deadline=None)
    def test_fraction_bounds_property(self, seed, w):
        x = np.zeros((8, w, 6), dtype=np.float32)
        _, rep = noise.add_stripe(x, seed=seed)
        for e in rep.stripe:
            assert math.ceil(0.05 * w) <= len(e.columns) <= math.floor(0.15 * w)


class TestDeadline:
    def test_dead_columns_zero_and_local(self):
        x = clean()
        y, rep = noise.add_deadline(x, seed=8)
        assert rep.deadline
        for e in rep.deadline:
            assert np.all(y[:, e.columns, e.band] == 0.0)
            mask = np.ones(x.shape[1], dtype=bool)
            mask[e.columns] = False
            assert bits_equal(y[:, mask, e.band], x[:, mask, e.band])

    def test_fraction_bounds(self):
        _, rep = noise.add_deadline(clean(), seed=9)
        for e in rep.deadline:
            assert 0.05 <= e.fraction <= 0.15
            assert len(e.columns) == round(e.fraction * 64)


class TestImpulse:
    def test_values_binary_and_density(self):
        x = clean()
        y, rep = noise.add_impulse(x, seed=10)
        assert len(rep.impulse) == 3
        for e in rep.impulse:
            assert 0.3 <= e.density <= 0.7
            changed = y[:, :, e.band] != x[:, :, e.band]
            assert np.all(np.isin(y[:, :, e.band][changed], [0.0, 1.0]))
            frac = e.corrupted / (64 * 64)
            assert abs(frac - e.density) < 0.02

    def test_untouched_bands(self):
        x = clean()
        y, rep = noise.add_impulse(x, seed=11)
        touched = {e.band for e in rep.impulse}
        for b in set(range(9)) - touched:
            assert bits_equal(y[:, :, b], x[:, :, b])


class TestCases:
    def test_case1_report_only_gaussian(self):
        _, rep = noise.compose_case(clean(), 1, seed=12)
        assert rep.gaussian and not rep.stripe and not rep.deadline and not rep.impulse

    def test_case2_is_stripe_of_case1(self):
        x = clean()
        y1, _ = noise.compose_case(x, 1, seed=13)
        y2, _ = noise.compose_case(x, 2, seed=13)
        y2b, _ = noise.add_stripe(y1, seed=13)
        assert bits_equal(y2, y2b)

    def test_case2_reconstructs_from_case1_plus_report(self):
        x = clean()
        y1, _ = noise.compose_case(x, 1, seed=14)
        y2, rep = noise.compose_case(x, 2, seed=14)
        rebuilt = y1.copy()
        for e in rep.stripe:
            rebuilt[:, e.columns, e.band] += np.asarray(e.offsets, dtype=np.float32)
        assert bits_equal(rebuilt, y2)

    def test_case3_case4_extras(self):
        _, r3 = noise.compose_case(clean(), 3, seed=15)
        assert r3.deadline and not r3.stripe
        _, r4 = noise.compose_case(clean(), 4, seed=15)
        assert r4.impulse and not r4.deadline

    def test_case5_per_band_subsets(self):
        x = clean(b=30)
        y, rep = noise.compose_case(x, 5, seed=16)
        # coin flips at p=1/2 over 30 bands: all three types should appear
        assert rep.stripe and rep.deadline and rep.impulse
        assert y.shape == x.shape

    def test_case5_narrow_cube_rejected(self):
        with pytest.raises(ContractError, match="needs width >= 20 columns, got 16"):
            noise.compose_case(clean(w=16), 5, seed=0)

    def test_determinism(self):
        x = clean()
        for case in (1, 2, 3, 4, 5):
            a, ra = noise.compose_case(x, case, seed=17)
            b, rb = noise.compose_case(x, case, seed=17)
            assert bits_equal(a, b)
            assert ra.to_json() == rb.to_json()

    def test_bad_case_id(self):
        with pytest.raises(ConfigError):
            noise.compose_case(clean(), 6, seed=0)


class TestSpecAndDispatch:
    def test_spec_json_roundtrip(self):
        spec = noise.NoiseSpec(kind="case2", seed=42, sigma_min=40)
        assert noise.NoiseSpec.from_json(spec.to_json()) == spec

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            noise.NoiseSpec(kind="speckle", seed=0)

    def test_blind_sigma_within_range_and_deterministic(self):
        x = clean()
        spec = noise.NoiseSpec(kind="blind", seed=18)
        y1, rep = noise.apply_noise(x, spec)
        assert len(rep.gaussian) == 1
        assert 30 <= rep.gaussian[0].sigma <= 70
        y2, _ = noise.apply_noise(x, spec)
        assert bits_equal(y1, y2)

    def test_gaussian_dispatch(self):
        x = clean()
        y, rep = noise.apply_noise(x, noise.NoiseSpec(kind="gaussian", seed=19, sigma=30))
        assert rep.kind == "gaussian"
        yd, _ = noise.add_gaussian(x, 30, seed=19)
        assert bits_equal(y, yd)

    def test_case_dispatch(self):
        x = clean()
        y, rep = noise.apply_noise(x, noise.NoiseSpec(kind="case3", seed=20))
        assert rep.kind == "case3"
        yd, _ = noise.compose_case(x, 3, seed=20)
        assert bits_equal(y, yd)

    def test_report_json_is_canonical(self):
        _, rep = noise.compose_case(clean(), 2, seed=21)
        s = rep.to_json()
        assert ": " not in s and ", " not in s
