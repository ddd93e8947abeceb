import hashlib
import json
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

    def test_degenerate_interval(self, monkeypatch):
        monkeypatch.setattr(noise, "SIGMA_MIN", 50.0)
        monkeypatch.setattr(noise, "SIGMA_MAX", 50.0)
        x = np.zeros((64, 64, 5), dtype=np.float32)
        y, rep = noise.add_noniid_gaussian(x, seed=4)
        assert all(e.sigma == 50.0 for e in rep.gaussian)
        assert abs(y.std() - 50 / 255) / (50 / 255) < 0.05


def case(x, kind, seed):
    return noise.apply_noise(x, noise.NoiseSpec(kind=kind, seed=seed))


class TestStripe:
    def test_fraction_bounds_and_band_count(self):
        x = clean(b=10)
        _, rep = case(x, "case2", seed=5)
        assert len(rep.stripe) == math.ceil(10 / 3)
        for e in rep.stripe:
            assert 0.05 <= e.fraction <= 0.15
            assert len(e.columns) == len(set(e.columns)) == len(e.offsets)

    def test_unaffected_columns_identical(self):
        x = clean()
        y1, _ = case(x, "case1", seed=6)
        y, rep = case(x, "case2", seed=6)
        for e in rep.stripe:
            mask = np.ones(x.shape[1], dtype=bool)
            mask[e.columns] = False
            assert bits_equal(y[:, mask, e.band], y1[:, mask, e.band])
        touched = {e.band for e in rep.stripe}
        for b in set(range(x.shape[2])) - touched:
            assert bits_equal(y[:, :, b], y1[:, :, b])

    def test_column_mean_shift_equals_offset(self):
        x = clean()
        y1, _ = case(x, "case1", seed=7)
        y, rep = case(x, "case2", seed=7)
        for e in rep.stripe:
            for c, off in zip(e.columns, e.offsets):
                got = (y[:, c, e.band] - y1[:, c, e.band]).mean()
                assert abs(got - off) < 1e-6

    def test_narrow_cube_rejected(self):
        with pytest.raises(ContractError):
            case(clean(w=16), "case2", seed=0)

    @given(seed=st.integers(0, 10_000), w=st.sampled_from([20, 33, 64, 100]))
    @settings(max_examples=25, deadline=None)
    def test_fraction_bounds_property(self, seed, w):
        x = np.zeros((8, w, 6), dtype=np.float32)
        _, rep = case(x, "case2", seed=seed)
        for e in rep.stripe:
            assert math.ceil(0.05 * w) <= len(e.columns) <= math.floor(0.15 * w)


class TestDeadline:
    def test_dead_columns_zero_and_local(self):
        x = clean()
        y1, _ = case(x, "case1", seed=8)
        y, rep = case(x, "case3", seed=8)
        assert rep.deadline
        for e in rep.deadline:
            assert np.all(y[:, e.columns, e.band] == 0.0)
            mask = np.ones(x.shape[1], dtype=bool)
            mask[e.columns] = False
            assert bits_equal(y[:, mask, e.band], y1[:, mask, e.band])

    def test_fraction_bounds(self):
        _, rep = case(clean(), "case3", seed=9)
        for e in rep.deadline:
            assert 0.05 <= e.fraction <= 0.15
            assert len(e.columns) == round(e.fraction * 64)


class TestImpulse:
    def test_values_binary_and_density(self):
        x = clean()
        y1, _ = case(x, "case1", seed=10)
        y, rep = case(x, "case4", seed=10)
        assert len(rep.impulse) == 3
        for e in rep.impulse:
            assert 0.3 <= e.density <= 0.7
            changed = y[:, :, e.band] != y1[:, :, e.band]
            assert np.all(np.isin(y[:, :, e.band][changed], [0.0, 1.0]))
            frac = e.corrupted / (64 * 64)
            assert abs(frac - e.density) < 0.02

    def test_untouched_bands(self):
        x = clean()
        y1, _ = case(x, "case1", seed=11)
        y, rep = case(x, "case4", seed=11)
        touched = {e.band for e in rep.impulse}
        for b in set(range(9)) - touched:
            assert bits_equal(y[:, :, b], y1[:, :, b])


class TestCases:
    def test_case1_report_only_gaussian(self):
        _, rep = case(clean(), "case1", seed=12)
        assert rep.gaussian and not rep.stripe and not rep.deadline and not rep.impulse

    def test_case2_reconstructs_from_case1_plus_report(self):
        x = clean()
        y1, _ = case(x, "case1", seed=14)
        y2, rep = case(x, "case2", seed=14)
        rebuilt = y1.copy()
        for e in rep.stripe:
            rebuilt[:, e.columns, e.band] += np.asarray(e.offsets, dtype=np.float32)
        assert bits_equal(rebuilt, y2)

    def test_case3_case4_extras(self):
        _, r3 = case(clean(), "case3", seed=15)
        assert r3.deadline and not r3.stripe
        _, r4 = case(clean(), "case4", seed=15)
        assert r4.impulse and not r4.deadline

    def test_case5_per_band_subsets(self):
        x = clean(b=30)
        y, rep = case(x, "case5", seed=16)
        # coin flips at p=1/2 over 30 bands: all three types should appear
        assert rep.stripe and rep.deadline and rep.impulse
        assert y.shape == x.shape

    def test_case5_narrow_cube_rejected(self):
        with pytest.raises(ContractError, match="needs width >= 20 columns, got 16"):
            case(clean(w=16), "case5", seed=0)

    def test_determinism(self):
        x = clean()
        for kind in ("case1", "case2", "case3", "case4", "case5"):
            a, ra = case(x, kind, seed=17)
            b, rb = case(x, kind, seed=17)
            assert bits_equal(a, b)
            assert ra.to_json() == rb.to_json()

    def test_bad_case_id(self):
        with pytest.raises(ConfigError):
            case(clean(), "case6", seed=0)


class TestSpecAndDispatch:
    def test_spec_json_roundtrip(self):
        # a manifest's "noise" section is a valid --config section
        spec = noise.NoiseSpec(kind="case2", seed=42, sigma=40.0)
        assert noise.NoiseSpec(**json.loads(spec.to_json())) == spec

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

    def test_report_json_is_canonical(self):
        _, rep = case(clean(), "case2", seed=21)
        s = rep.to_json()
        assert ": " not in s and ", " not in s


# SHA-256 of the output bytes and of report.to_json(), per shape and kind, for
# apply_noise(clean(*shape, seed=B), NoiseSpec(kind, seed=23)).  Any change to
# a draw, its order or its stream key moves these.
PINNED = {
    (24, 32, 7): {
        "gaussian": ("a09fdda99276d68351c2a85b252e0aec429bca6fb474066cb5fe2aa3a8adc9be",
                     "8e67eb0dc2a5ac8d0a06bb3eb5b90efe0ecd9b7e556cf705d3ca3db63b022ca2"),
        "blind": ("8fce18f6a0791cf7641aa9b55bc47f93849e67717d5074998602ef8ec494d706",
                  "1ed6c0efdb0a2d622511755ca04e0ca72cb131d092502989d2a55b15ff7d5839"),
        "case1": ("546c89789373a52affd8ee6a809fdca26c14c95dace851bb673911ab97908299",
                  "cfe5f2e56c24dda335e76c9ec03f485e6bc8c4dc9235d68e6adedcc9883f1f54"),
        "case2": ("6a99f6e23c9dbc2ba7f0df512a287f8f6bebfc68d8b3e1232e1b07d3584d8b02",
                  "5ce5c646ac6a9631809778eddf7d02338413f413dd17dda74ded5b7f6ecbbc54"),
        "case3": ("7b5c692e74f2af00585db43071ddf8cc85e6c3f0b4388d72bf9c320768b28018",
                  "56e3e9e38bd121a49164bf65e047efdb52c7d26bc753f91f21a74645ea7b88ff"),
        "case4": ("00057921c26c9999254579b67793e8ab5737b852aed67d0142e100f3ddd90049",
                  "74a33e3406509a61aa088e025dfe04e3448f2d3dbf0a097bf6d1dc910e6db854"),
        "case5": ("3697311050a212eeaeb0501bf1067548cd2462b3df32a7e71afbdf7d397c1dc4",
                  "973da8afbce542bc8b7bddd68d0e210da1590183646e8dc0ec73132fdf1233a6"),
    },
    (33, 20, 12): {
        "gaussian": ("07e6d9f6809fe82a3f79a1580bb0304a20cffebb9dfcbc3bfc9794e277226248",
                     "8e67eb0dc2a5ac8d0a06bb3eb5b90efe0ecd9b7e556cf705d3ca3db63b022ca2"),
        "blind": ("8d85b908f53eb0ebefd108b3bd1bcc517230d4abc30223e59a39f0ced1703862",
                  "1ed6c0efdb0a2d622511755ca04e0ca72cb131d092502989d2a55b15ff7d5839"),
        "case1": ("550f2f539f43bd9d08be4e4c5cf653fc9128d3855008121836c2e74d6b4b549b",
                  "bca0d42ebb46bda3b400b17b30db31c53f7399308b2006753899f97557c066f1"),
        "case2": ("41ed88636d4e87a63878609437d8821ed4d226de6d05af4e86f0d066c64546f5",
                  "8e439ee462006c5b44ee235716b1243de2f375e220be3438be59773b5b1547f1"),
        "case3": ("0f06dbd9dc039f48192e757e0bf9d7c5847dccf0891920fe3b04ec00aae90d4d",
                  "3d21a50d90ea250b19217019f8bfe158b08bb6554be8cc730cfe4c946faf378e"),
        "case4": ("22448f000346d3fccb1bdfd97fa3f5c4f803f8dbf74ede382d46e073a3aafc30",
                  "49d2988d06f32bf30ed985208e4b3983aefde530ec4a29bb6fa62f4472a0e168"),
        "case5": ("60e0bf29a14b6374a1f34bc7aa4ba3f1779b712ef7517e0fd53e7b82b09caa47",
                  "5aa60ed342e84a2bf7deb950ecaf436b21f7f83251f3ca6831b70278c691fe76"),
    },
}


@pytest.mark.parametrize("shape", sorted(PINNED), ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("kind", noise.KINDS)
def test_outputs_and_reports_are_pinned(shape, kind):
    y, rep = case(clean(*shape, seed=shape[2]), kind, seed=23)
    got = (hashlib.sha256(y.tobytes()).hexdigest(), hashlib.sha256(rep.to_json().encode()).hexdigest())
    assert got == PINNED[shape][kind]
