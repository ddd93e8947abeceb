"""Cube files, augmentation, and dataset assembly.

File format "HSIC": magic, u32 version, u32 H, W, B, u32 dtype code
(0 = little-endian float32), then the payload band-major (band, row, column).
In memory a cube is (H, W, B) float32.  save then load is bit-exact.

Dataset assembly mirrors the crop-and-augment recipe: every sample is a
descriptor (cube, scale, rotation, origin) drawn deterministically from the
manifest seed, so iteration order is a pure function of (manifest, epoch).
Bilinear rescaling happens on the whole cube before cropping; rotations are
exact spatial permutations of the cropped patch.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import records
from .errors import ConfigError, FormatError, ShapeError

CUBE_MAGIC = b"HSIC"
CUBE_VERSION = 1
DTYPE_F32LE = 0

ROTATIONS = ("identity", "rot90", "rot180", "rot270")
SCALES = (1.0, 0.75, 0.5)


# -- cube file I/O -----------------------------------------------------------


def save_cube(cube: np.ndarray, path) -> None:
    if cube.ndim != 3:
        raise ShapeError(f"expected (H, W, B) cube, got shape {cube.shape}")
    h, w, b = cube.shape
    payload = np.ascontiguousarray(np.transpose(cube, (2, 0, 1)), dtype="<f4")
    with open(path, "wb") as f:
        f.write(CUBE_MAGIC)
        f.write(struct.pack("<IIIII", CUBE_VERSION, h, w, b, DTYPE_F32LE))
        f.write(payload.tobytes())


def load_cube(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(24)
        if len(head) < 24:
            raise FormatError(f"{path}: header truncated at byte {len(head)} (need 24)")
        if head[:4] != CUBE_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {CUBE_MAGIC!r}")
        version, h, w, b, code = struct.unpack("<IIIII", head[4:])
        if version != CUBE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if code != DTYPE_F32LE:
            raise FormatError(f"{path}: unknown dtype code {code}")
        expected = 4 * h * w * b
        found = os.fstat(f.fileno()).st_size - 24  # checked before reading: headers can lie
        if found == expected:
            payload = f.read(expected)
            found = len(payload)
    if found != expected:
        raise FormatError(f"{path}: payload has {found} bytes at offset 24, expected {expected}")
    cube = np.frombuffer(payload, dtype="<f4").reshape(b, h, w)
    return np.ascontiguousarray(np.transpose(cube, (1, 2, 0)))


# -- augmentation ----------------------------------------------------------------


def bilinear_scale(cube: np.ndarray, s: float) -> np.ndarray:
    """Resize H and W by factor s with half-pixel-centered bilinear sampling."""
    if s == 1.0:
        return cube.copy()
    h, w = cube.shape[:2]
    nh, nw = max(1, round(h * s)), max(1, round(w * s))
    ys = np.clip((np.arange(nh) + 0.5) * (h / nh) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(nw) + 0.5) * (w / nw) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(cube.dtype)[:, None, None]
    fx = (xs - x0).astype(cube.dtype)[None, :, None]
    c00 = cube[np.ix_(y0, x0)]
    c01 = cube[np.ix_(y0, x1)]
    c10 = cube[np.ix_(y1, x0)]
    c11 = cube[np.ix_(y1, x1)]
    top = c00 * (1 - fx) + c01 * fx
    bot = c10 * (1 - fx) + c11 * fx
    return top * (1 - fy) + bot * fy


def augment(patch: np.ndarray, op: str) -> np.ndarray:
    """Rotate the spatial axes by one of ROTATIONS; returns a new C-contiguous array."""
    if op not in ROTATIONS:
        raise ConfigError(f"unknown augmentation {op!r}, expected one of {ROTATIONS}")
    return np.rot90(patch, ROTATIONS.index(op), axes=(0, 1)).copy()


# -- manifest and dataset -----------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    cubes: tuple[str, ...]
    patch_size: tuple[int, int, int]
    scales: tuple[float, ...] = SCALES
    rotations: tuple[str, ...] = ROTATIONS
    samples: int = 20_000
    seed: int = 0
    val_fraction: float = 0.05

    def __post_init__(self):
        # len, not truth, so that a null list is a malformed file (TypeError), not an empty one
        if not len(self.cubes) or any(type(c) is not str for c in self.cubes):
            raise ConfigError(f"cubes must be a non-empty list of file names, got {self.cubes!r}")
        if type(self.val_fraction) not in (int, float) or not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be a number in [0, 1), got {self.val_fraction!r}")
        if not len(self.rotations) or any(r not in ROTATIONS for r in self.rotations):
            raise ConfigError(f"rotations must be a non-empty selection from {ROTATIONS}")
        if not len(self.scales) or not all(type(s) in (int, float) and 0 < s <= 1 for s in self.scales):
            raise ConfigError(f"scales must be a non-empty list of factors in (0, 1], got {self.scales!r}")
        # a manifest is outside input: a mistyped value would crash the dataset build, or a
        # float seed be truncated to a different Philox key than the one recorded
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if type(self.samples) is not int or self.samples < 1:
            raise ConfigError(f"samples must be a positive integer, got {self.samples!r}")
        if len(self.patch_size) != 3 or not all(type(v) is int and v > 0 for v in self.patch_size):
            raise ConfigError(f"patch_size must be three positive integers, got {self.patch_size!r}")
        ph, pw = self.patch_size[:2]
        turned = sorted(set(self.rotations) & {"rot90", "rot270"})
        if ph != pw and turned:
            # a quarter turn swaps the patch's rows and columns, so one batch would mix two shapes
            raise ConfigError(f"rotations {turned} need a square patch, got {ph}x{pw}")

    def save(self, path) -> None:
        records.write(path, self)

    @staticmethod
    def load(path) -> "DatasetManifest":
        with open(path, "rb") as f:
            raw = f.read()
        try:
            return records.build(DatasetManifest, json.loads(raw.decode("utf-8")))
        except (ValueError, TypeError) as e:
            raise FormatError(f"{path}: bad DatasetManifest JSON: {e}") from e


@dataclass(frozen=True)
class SampleDescriptor:
    cube_index: int
    scale: float
    rotation: str
    origin: tuple[int, int, int]


class PatchDataset:
    """Deterministic (crop x augment) enumeration over the manifest's cubes.

    All cubes load into memory; scaled variants are cached.  Samples are
    fixed at construction; epoch_order(epoch) permutes them with a stream
    keyed by (manifest seed, epoch).
    """

    def __init__(self, manifest: DatasetManifest, base_dir: str | None = None):
        self.manifest = manifest
        self.cubes: list[np.ndarray] = []
        for rel in manifest.cubes:
            path = os.path.join(base_dir, rel) if base_dir else rel
            if not os.path.exists(path):
                raise ConfigError(f"manifest references missing cube {path}")
            self.cubes.append(load_cube(path))
        self._scaled: dict[tuple[int, float], np.ndarray] = {}
        self.samples = self._enumerate()

    def _usable(self, cube_idx: int, s: float) -> bool:
        ph, pw, pb = self.manifest.patch_size
        h, w, b = self.cubes[cube_idx].shape
        return round(h * s) >= ph and round(w * s) >= pw and b >= pb

    def _enumerate(self) -> list[SampleDescriptor]:
        m = self.manifest
        ph, pw, pb = m.patch_size
        combos = [
            (ci, s)
            for ci in range(len(self.cubes))
            for s in m.scales
            if self._usable(ci, s)
        ]
        if not combos:
            raise ConfigError(f"no cube admits patch size {m.patch_size} at any scale")
        rng = np.random.Generator(np.random.Philox(key=np.array([m.seed, 0xDA7A], dtype=np.uint64)))
        out = []
        for i in range(m.samples):
            ci, s = combos[int(rng.integers(0, len(combos)))]
            h, w, b = self.cubes[ci].shape
            sh, sw = round(h * s), round(w * s)
            oh = int(rng.integers(0, sh - ph + 1))
            ow = int(rng.integers(0, sw - pw + 1))
            ob = int(rng.integers(0, b - pb + 1))
            rot = m.rotations[int(rng.integers(0, len(m.rotations)))]
            out.append(SampleDescriptor(ci, s, rot, (oh, ow, ob)))
        return out

    def __len__(self) -> int:
        return len(self.samples)

    def _scaled_cube(self, ci: int, s: float) -> np.ndarray:
        key = (ci, s)
        if key not in self._scaled:
            self._scaled[key] = bilinear_scale(self.cubes[ci], s)
        return self._scaled[key]

    def materialize(self, desc: SampleDescriptor) -> np.ndarray:
        ph, pw, pb = self.manifest.patch_size
        src = self._scaled_cube(desc.cube_index, desc.scale)
        oh, ow, ob = desc.origin
        patch = src[oh : oh + ph, ow : ow + pw, ob : ob + pb]
        return augment(patch, desc.rotation)

    def patch(self, index: int) -> np.ndarray:
        return self.materialize(self.samples[index])

    def split_indices(self) -> tuple[list[int], list[int]]:
        """Deterministic train/val split of sample indices."""
        n = len(self.samples)
        n_val = int(round(n * self.manifest.val_fraction))
        rng = np.random.Generator(
            np.random.Philox(key=np.array([self.manifest.seed, 0x5B117], dtype=np.uint64))
        )
        order = rng.permutation(n)
        val = sorted(int(i) for i in order[:n_val])
        train = sorted(int(i) for i in order[n_val:])
        return train, val

    def epoch_order(self, epoch: int, indices: list[int]) -> list[int]:
        rng = np.random.Generator(
            np.random.Philox(key=np.array([self.manifest.seed, 0xE90C << 16 | (epoch & 0xFFFF)],
                                          dtype=np.uint64))
        )
        order = rng.permutation(len(indices))
        return [indices[int(i)] for i in order]


# -- synthetic cubes --------------------------------------------------------------

SYNTHETIC_COMPONENTS = 6  # Fourier components summed into one synthetic cube


def synthetic_cube(h: int, w: int, b: int, seed: int = 0) -> np.ndarray:
    """Smooth random cube in [0, 1] built from low-order Fourier mixtures.

    Each component is a low-frequency spatial wave times a smooth spectral
    curve; the sum is min-max normalized.  Deterministic in (shape, seed).
    The spectral frequency is capped so a curve turns by at most a quarter
    cycle between neighbouring bands; without the cap a few-band cube could
    draw a near-Nyquist "curve" that jumps between adjacent bands.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x57E0], dtype=np.uint64)))
    ys = np.arange(h)[:, None, None] / h
    xs = np.arange(w)[None, :, None] / w
    ls = np.arange(b)[None, None, :] / max(b - 1, 1)
    cube = np.zeros((h, w, b))
    for _ in range(SYNTHETIC_COMPONENTS):
        fy, fx = rng.integers(0, 4, size=2)
        phase = rng.uniform(0, 2 * math.pi)
        amp = rng.uniform(0.3, 1.0)
        spatial = np.cos(2 * math.pi * (fy * ys + fx * xs) + phase)
        k = min(rng.integers(1, 4), max(1, (b - 1) // 2))
        spec_phase = rng.uniform(0, 2 * math.pi)
        spectral = 0.5 + 0.5 * np.cos(math.pi * k * ls + spec_phase)
        cube += amp * spatial * spectral
    lo, hi = cube.min(), cube.max()
    if hi - lo < 1e-9:
        return np.full((h, w, b), 0.5, dtype=np.float32)
    return ((cube - lo) / (hi - lo)).astype(np.float32)
