"""Synthetic degradation of clean cubes: Gaussian, stripe, deadline, impulse.

``apply_noise(x, spec)`` is the one entry point: it builds the Gaussian,
blind and case 1-5 degradations that ``NoiseSpec.kind`` names and returns
the noisy cube with a ``DegradationReport``.

Sigma values are quoted on the 0-255 scale and applied as sigma/255 to data
in [0, 1].  Nothing is clipped: clipping would bias the Gaussian statistics,
and the metrics tolerate out-of-range values.

Determinism: every draw comes from a Philox counter-based generator keyed by
(seed, noise-type tag, band).  Streams are independent per (type, band), so
the cases share their realizations: case2(x) equals case1(x) plus the
reported stripe offsets, bit for bit.  Band-selection draws use the sentinel
band index 0xFFFFFFFF.

Cubes are (H, W, B) float32; stripes, deadlines, and impulse noise afflict
ceil(B/3) randomly chosen bands (cases 2-4) or a per-band coin-flip subset of
the three types (case 5).  The ranges the cases draw from are the fixed
module constants below; a ``NoiseSpec`` chooses only the kind, the seed and
the fixed Gaussian sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, ShapeError

BAND_NONE = 0xFFFFFFFF

_TAG_GAUSSIAN = 1  # whole-cube i.i.d. gaussian
_TAG_SIGMA = 2  # sigma draws (blind: one; non-i.i.d.: one per band)
_TAG_NONIID = 3  # per-band gaussian realizations
_TAG_STRIPE = 4  # band selection (BAND_NONE) and per-band stripe params
_TAG_DEADLINE = 5
_TAG_IMPULSE = 6
_TAG_CASE5 = 7  # per-band subset coin flips

KINDS = ("gaussian", "blind", "case1", "case2", "case3", "case4", "case5")

SIGMA_MIN, SIGMA_MAX = 30.0, 70.0  # blind and non-i.i.d. Gaussian sigma range
STRIPE_FRAC_MIN, STRIPE_FRAC_MAX = 0.05, 0.15  # fraction of a band's columns
STRIPE_AMPLITUDE = 0.25  # stripe offsets ~ U[-amplitude, amplitude]
DEADLINE_FRAC_MIN, DEADLINE_FRAC_MAX = 0.05, 0.15
IMPULSE_MIN, IMPULSE_MAX = 0.3, 0.7  # salt-and-pepper density range
MIN_COLUMNS = 20  # narrowest band that stripe and deadline noise accept
COLUMN_KINDS = ("case2", "case3", "case5")  # kinds that may add stripes or deadlines


def _stream(seed: int, tag: int, band: int = BAND_NONE) -> np.random.Generator:
    seed, tag, band = int(seed), int(tag), int(band)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, ((tag << 32) | band) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    seed: int
    sigma: float = 70.0  # kind == "gaussian" only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}, expected one of {KINDS}")
        # _stream keys Philox with the seed's low 64 bits: a float seed would be truncated, and a
        # seed outside [0, 2**64) alias another, while the manifest records the seed whole
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"noise seed must be an integer in [0, 2**64), got {self.seed!r}")
        if type(self.sigma) is bool or not 0 < self.sigma <= 255:
            raise ConfigError(f"sigma must be in (0, 255], got {self.sigma!r}")


@dataclass
class GaussianEntry:
    sigma: float
    band: int | None = None  # None: applied to every band with this sigma


@dataclass
class StripeEntry:
    band: int
    fraction: float
    columns: list[int]
    offsets: list[float]


@dataclass
class DeadlineEntry:
    band: int
    fraction: float
    columns: list[int]


@dataclass
class ImpulseEntry:
    band: int
    density: float
    corrupted: int


@dataclass
class DegradationReport:
    kind: str
    seed: int
    gaussian: list[GaussianEntry] = field(default_factory=list)
    stripe: list[StripeEntry] = field(default_factory=list)
    deadline: list[DeadlineEntry] = field(default_factory=list)
    impulse: list[ImpulseEntry] = field(default_factory=list)


def _check_cube(x: np.ndarray) -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"expected a (H, W, B) cube, got shape {x.shape}")
    return x.astype(np.float32, copy=True)


def _affected_bands(seed: int, tag: int, b: int) -> np.ndarray:
    count = math.ceil(b / 3)
    return np.sort(_stream(seed, tag).choice(b, size=count, replace=False))


def _column_count(fraction: float, width: int, lo: float, hi: float) -> int:
    return int(np.clip(round(fraction * width), math.ceil(lo * width), math.floor(hi * width)))


# -- gaussian -----------------------------------------------------------------


def add_gaussian(x: np.ndarray, sigma: float, seed: int) -> tuple[np.ndarray, DegradationReport]:
    """y = x + N(0, (sigma/255)^2) i.i.d. per voxel."""
    if not 0 < sigma <= 255:
        raise ConfigError(f"sigma must be in (0, 255], got {sigma}")
    y = _check_cube(x)
    g = _stream(seed, _TAG_GAUSSIAN)
    y += g.standard_normal(y.shape, dtype=np.float32) * np.float32(sigma / 255.0)
    report = DegradationReport(kind="gaussian", seed=seed, gaussian=[GaussianEntry(sigma=float(sigma))])
    return y, report


def add_noniid_gaussian(x: np.ndarray, seed: int) -> tuple[np.ndarray, DegradationReport]:
    """Independent per-band sigma_b ~ U[SIGMA_MIN, SIGMA_MAX]."""
    y = _check_cube(x)
    b = y.shape[2]
    sigmas = _stream(seed, _TAG_SIGMA).uniform(SIGMA_MIN, SIGMA_MAX, size=b)
    entries = []
    for band in range(b):
        g = _stream(seed, _TAG_NONIID, band)
        y[:, :, band] += g.standard_normal(y.shape[:2], dtype=np.float32) * np.float32(sigmas[band] / 255.0)
        entries.append(GaussianEntry(sigma=float(sigmas[band]), band=band))
    return y, DegradationReport(kind="noniid_gaussian", seed=seed, gaussian=entries)


# -- band noises ----------------------------------------------------------------


def _stripe_band(y: np.ndarray, band: int, seed: int) -> StripeEntry:
    """Additive constant-per-column stripes on a fraction of the band's columns."""
    w = y.shape[1]
    if w < MIN_COLUMNS:
        raise ContractError(f"stripe noise needs width >= {MIN_COLUMNS} columns, got {w}")
    lo, hi = STRIPE_FRAC_MIN, STRIPE_FRAC_MAX
    st = _stream(seed, _TAG_STRIPE, band)
    n = _column_count(st.uniform(lo, hi), w, lo, hi)
    cols = np.sort(st.choice(w, size=n, replace=False))
    offsets = st.uniform(-STRIPE_AMPLITUDE, STRIPE_AMPLITUDE, size=n).astype(np.float32)
    y[:, cols, band] += offsets
    return StripeEntry(band=int(band), fraction=n / w,
                       columns=[int(c) for c in cols], offsets=[float(o) for o in offsets])


def _deadline_band(y: np.ndarray, band: int, seed: int) -> DeadlineEntry:
    """Zeroed runs of 1-3 adjacent columns on a fraction of the band's columns."""
    w = y.shape[1]
    if w < MIN_COLUMNS:
        raise ContractError(f"deadline noise needs width >= {MIN_COLUMNS} columns, got {w}")
    lo, hi = DEADLINE_FRAC_MIN, DEADLINE_FRAC_MAX
    st = _stream(seed, _TAG_DEADLINE, band)
    n = _column_count(st.uniform(lo, hi), w, lo, hi)
    # runs placed without overlap, totalling n columns
    free = np.ones(w, dtype=bool)
    dead: list[int] = []
    remaining = n
    while remaining > 0:
        width = min(int(st.integers(1, 4)), remaining)
        while width >= 1:
            starts = np.flatnonzero(sliding_window_view(free, width).all(axis=1))
            if starts.size:
                s = int(starts[int(st.integers(0, starts.size))])
                free[s : s + width] = False
                dead.extend(range(s, s + width))
                remaining -= width
                break
            width -= 1  # fragmented: shorten the run (singles always fit at density <= 15%)
    cols = np.sort(np.asarray(dead, dtype=int))
    y[:, cols, band] = 0.0
    return DeadlineEntry(band=int(band), fraction=n / w, columns=[int(c) for c in cols])


def _impulse_band(y: np.ndarray, band: int, seed: int) -> ImpulseEntry:
    """Salt-and-pepper with density p ~ U[IMPULSE_MIN, IMPULSE_MAX]."""
    st = _stream(seed, _TAG_IMPULSE, band)
    p = st.uniform(IMPULSE_MIN, IMPULSE_MAX)
    mask = st.random(y.shape[:2]) < p
    salt = st.random(y.shape[:2]) < 0.5
    plane = y[:, :, band]
    plane[mask] = salt[mask].astype(np.float32)  # exactly {0.0, 1.0}
    return ImpulseEntry(band=int(band), density=float(p), corrupted=int(mask.sum()))


# (report list, band-selection tag, band function), applied to a band in this order
_BAND_NOISES = (
    ("stripe", _TAG_STRIPE, _stripe_band),
    ("deadline", _TAG_DEADLINE, _deadline_band),
    ("impulse", _TAG_IMPULSE, _impulse_band),
)


# -- entry point ------------------------------------------------------------------


def apply_noise(x: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, DegradationReport]:
    """Degrade a clean cube as spec.kind says; the single entry point used by the pipeline.

    Cases 1-5 start from non-i.i.d. Gaussian noise (case 1).  Cases 2-4 add
    stripe / deadline / impulse noise on ceil(B/3) bands; case 5 adds, per
    band, an independent coin-flip subset of the three.
    """
    if spec.kind == "gaussian":
        return add_gaussian(x, spec.sigma, spec.seed)
    if spec.kind == "blind":
        sigma = float(_stream(spec.seed, _TAG_SIGMA).uniform(SIGMA_MIN, SIGMA_MAX))
        y, report = add_gaussian(x, sigma, spec.seed)
        report.kind = "blind"
        return y, report
    y, report = add_noniid_gaussian(x, spec.seed)
    report.kind = spec.kind
    b = y.shape[2]
    case = int(spec.kind[-1])
    # enabled[band, i]: apply _BAND_NOISES[i] to band
    if case == 5:
        enabled = np.array([_stream(spec.seed, _TAG_CASE5, band).random(3) < 0.5 for band in range(b)])
    else:
        enabled = np.zeros((b, len(_BAND_NOISES)), dtype=bool)
        if case > 1:  # cases 2-4: band noise case-2 on the bands its tag selects
            enabled[_affected_bands(spec.seed, _BAND_NOISES[case - 2][1], b), case - 2] = True
    for band in range(b):
        for (entries, _, band_noise), on in zip(_BAND_NOISES, enabled[band]):
            if on:
                getattr(report, entries).append(band_noise(y, band, spec.seed))
    return y, report
