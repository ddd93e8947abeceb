import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcanet import data
from hcanet.errors import ConfigError, FormatError


def rand_cube(h=8, w=8, b=4, seed=0):
    return np.random.default_rng(seed).random((h, w, b)).astype(np.float32)


class TestCubeFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        cube = rand_cube()
        p = tmp_path / "c.hsic"
        data.save_cube(cube, p)
        back = data.load_cube(p)
        assert np.array_equal(back.view(np.uint32), cube.view(np.uint32))

    def test_truncated_payload_names_lengths(self, tmp_path):
        cube = rand_cube()
        p = tmp_path / "c.hsic"
        data.save_cube(cube, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-40])
        with pytest.raises(FormatError, match="expected 1024"):
            data.load_cube(p)

    def test_header_extents_checked_before_reading(self, tmp_path):
        import struct
        import tracemalloc

        p = tmp_path / "lying.hsic"  # valid header claiming 65535x65535x31, no payload
        p.write_bytes(data.CUBE_MAGIC + struct.pack("<IIIII", data.CUBE_VERSION, 65535, 65535, 31,
                                                    data.DTYPE_F32LE))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload has 0 bytes .* expected 532559691900"):
                data.load_cube(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "c.hsic"
        data.save_cube(rand_cube(), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="payload has 1025 bytes .* expected 1024"):
            data.load_cube(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.hsic"
        p.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(FormatError, match="HSIC"):
            data.load_cube(p)

    def test_payload_is_band_major(self, tmp_path):
        cube = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2)
        p = tmp_path / "c.hsic"
        data.save_cube(cube, p)
        payload = np.frombuffer(p.read_bytes()[24:], dtype="<f4")
        np.testing.assert_array_equal(payload.reshape(2, 2, 3), np.transpose(cube, (2, 0, 1)))


class TestAugment:
    def test_rot90_four_times_identity(self):
        p = rand_cube()
        out = p
        for _ in range(4):
            out = data.augment(out, "rot90")
        assert np.array_equal(out, p)

    def test_rotation_preserves_voxel_multiset(self):
        p = rand_cube()
        for op in ("rot90", "rot180", "rot270"):
            q = data.augment(p, op)
            for b in range(p.shape[2]):
                assert sorted(q[:, :, b].ravel()) == sorted(p[:, :, b].ravel())

    def test_scale_one_identity(self):
        p = rand_cube()
        assert np.array_equal(data.bilinear_scale(p, 1.0), p)

    def test_scale_half_shape(self):
        p = rand_cube(16, 16, 4)
        assert data.bilinear_scale(p, 0.5).shape == (8, 8, 4)

    def test_scale_stays_in_source_range(self):
        p = rand_cube(16, 16, 4, seed=3)
        q = data.bilinear_scale(p, 0.75)
        assert q.min() >= p.min() - 1e-6 and q.max() <= p.max() + 1e-6

    def test_bilinear_constant_preserved(self):
        p = np.full((16, 16, 2), 0.37, dtype=np.float32)
        np.testing.assert_allclose(data.bilinear_scale(p, 0.75), 0.37, atol=1e-6)

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            data.augment(rand_cube(), "flip")


class TestManifestAndDataset:
    def make_dataset(self, tmp_path, n_cubes=2, samples=20):
        paths = []
        for i in range(n_cubes):
            cube = data.synthetic_cube(32, 32, 4, seed=i)
            p = tmp_path / f"cube{i}.hsic"
            data.save_cube(cube, p)
            paths.append(str(p))
        m = data.DatasetManifest(cubes=tuple(paths), patch_size=(8, 8, 4),
                                 samples=samples, seed=5)
        return data.PatchDataset(m)

    def test_manifest_json_roundtrip(self, tmp_path):
        m = data.DatasetManifest(cubes=("a.hsic",), patch_size=(8, 8, 4), samples=10)
        m.save(tmp_path / "m.json")
        assert data.DatasetManifest.load(tmp_path / "m.json") == m

    def test_manifest_without_augmentation_lists_gets_the_paper_recipe(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"cubes":["a.hsic"],"patch_size":[8,8,4]}', encoding="utf-8")
        m = data.DatasetManifest.load(path)
        assert m.scales == data.SCALES and m.rotations == data.ROTATIONS

    @pytest.mark.parametrize("fields", [
        {"rotations": ()},
        {"scales": ()},
        {"patch_size": (8, 12, 4), "rotations": ("identity", "rot270")},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": 1 << 64},
        {"samples": "8"},
        {"samples": 0},
        {"patch_size": (8, 8)},
        {"patch_size": (8, 8, 0)},
        {"patch_size": (8, 8.0, 4)},
        {"cubes": ()},
        {"cubes": (1,)},
        {"scales": (True,)},
        {"scales": ("0.5",)},
        {"scales": (float("nan"),)},
        {"val_fraction": False},
        {"val_fraction": "0.1"},
    ], ids=["no_rotations", "no_scales", "non_square_turned", "negative_seed", "float_seed", "huge_seed",
            "string_samples", "zero_samples", "two_patch_extents", "zero_patch_bands", "float_patch_width",
            "no_cubes", "int_cube_name", "bool_scale", "string_scale", "nan_scale", "bool_val_fraction",
            "string_val_fraction"])
    def test_manifest_rejects_unusable_augmentation(self, fields):
        with pytest.raises(ConfigError):
            data.DatasetManifest(**{"cubes": ("a.hsic",), "patch_size": (8, 8, 4), **fields})

    def test_non_square_patch_without_quarter_turns_allowed(self):
        m = data.DatasetManifest(cubes=("a.hsic",), patch_size=(8, 12, 4), rotations=("identity", "rot180"))
        assert m.patch_size == (8, 12, 4)

    def test_missing_cube_rejected(self):
        m = data.DatasetManifest(cubes=("nope.hsic",), patch_size=(8, 8, 4))
        with pytest.raises(ConfigError):
            data.PatchDataset(m)

    def test_samples_deterministic(self, tmp_path):
        d1 = self.make_dataset(tmp_path)
        d2 = self.make_dataset(tmp_path)
        assert d1.samples == d2.samples
        assert np.array_equal(d1.patch(3), d2.patch(3))

    def test_epoch_order_pure_function(self, tmp_path):
        d = self.make_dataset(tmp_path)
        train, val = d.split_indices()
        assert sorted(train + val) == list(range(len(d)))
        assert d.epoch_order(2, train) == d.epoch_order(2, train)
        assert d.epoch_order(1, train) != d.epoch_order(2, train)

    def test_patch_shape_and_dtype(self, tmp_path):
        d = self.make_dataset(tmp_path)
        p = d.patch(0)
        assert p.shape == (8, 8, 4) and p.dtype == np.float32

    def test_val_split_fraction(self, tmp_path):
        d = self.make_dataset(tmp_path, samples=100)
        train, val = d.split_indices()
        assert len(val) == 5  # default 5%


class TestSyntheticCube:
    def test_range_and_dtype(self):
        c = data.synthetic_cube(32, 32, 8, seed=0)
        assert c.dtype == np.float32
        assert 0.0 <= c.min() and c.max() <= 1.0
        assert c.max() - c.min() > 0.5  # actually uses the range

    def test_deterministic(self):
        a = data.synthetic_cube(16, 16, 4, seed=7)
        b = data.synthetic_cube(16, 16, 4, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_content(self):
        a = data.synthetic_cube(16, 16, 4, seed=7)
        b = data.synthetic_cube(16, 16, 4, seed=8)
        assert not np.array_equal(a, b)

    @given(st.integers(0, 500))
    @example(189)  # draws a near-Nyquist spectral curve unless its frequency is capped
    @settings(max_examples=10, deadline=None)
    def test_smoothness(self, seed):
        c = data.synthetic_cube(24, 24, 6, seed=seed)
        # low-order Fourier content: neighboring voxels stay close
        assert np.abs(np.diff(c, axis=0)).max() < 0.6
        assert np.abs(np.diff(c, axis=2)).max() < 0.7
