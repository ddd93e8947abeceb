"""Synthetic degradation of clean cubes: Gaussian, stripe, deadline, impulse.

Sigma values are quoted on the 0-255 scale and applied as sigma/255 to data
in [0, 1].  Nothing is clipped: clipping would bias the Gaussian statistics,
and the metrics tolerate out-of-range values.

Determinism: every draw comes from a Philox counter-based generator keyed by
(seed, noise-type tag, band).  Streams are independent per (type, band), so
composite cases reuse the exact same realizations as their standalone parts:
case2(x) == add_stripe(case1(x)) bit for bit.  Band-selection draws use the
sentinel band index 0xFFFFFFFF.

Cubes are (H, W, B) float32; stripes, deadlines, and impulse noise afflict
ceil(B/3) randomly chosen bands (cases 2-4) or a per-band coin-flip subset of
the three types (case 5).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

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
    sigma_min: float = 30.0
    sigma_max: float = 70.0
    stripe_frac_min: float = 0.05
    stripe_frac_max: float = 0.15
    stripe_amplitude: float = 0.25
    deadline_frac_min: float = 0.05
    deadline_frac_max: float = 0.15
    impulse_min: float = 0.3
    impulse_max: float = 0.7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}, expected one of {KINDS}")
        if not 0 < self.sigma <= 255:
            raise ConfigError(f"sigma must be in (0, 255], got {self.sigma}")
        for lo, hi, what in [
            (self.sigma_min, self.sigma_max, "sigma"),
            (self.stripe_frac_min, self.stripe_frac_max, "stripe fraction"),
            (self.deadline_frac_min, self.deadline_frac_max, "deadline fraction"),
            (self.impulse_min, self.impulse_max, "impulse density"),
        ]:
            if lo > hi or lo < 0:
                raise ConfigError(f"bad {what} range [{lo}, {hi}]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "NoiseSpec":
        return NoiseSpec(**json.loads(text))


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

    def merge(self, other: "DegradationReport") -> None:
        self.gaussian += other.gaussian
        self.stripe += other.stripe
        self.deadline += other.deadline
        self.impulse += other.impulse

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


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


def add_noniid_gaussian(
    x: np.ndarray, seed: int, sigma_min: float = 30.0, sigma_max: float = 70.0
) -> tuple[np.ndarray, DegradationReport]:
    """Independent per-band sigma_b ~ U[sigma_min, sigma_max]."""
    if sigma_min > sigma_max:
        raise ConfigError(f"sigma_min {sigma_min} > sigma_max {sigma_max}")
    y = _check_cube(x)
    b = y.shape[2]
    sigmas = _stream(seed, _TAG_SIGMA).uniform(sigma_min, sigma_max, size=b)
    entries = []
    for band in range(b):
        g = _stream(seed, _TAG_NONIID, band)
        y[:, :, band] += g.standard_normal(y.shape[:2], dtype=np.float32) * np.float32(sigmas[band] / 255.0)
        entries.append(GaussianEntry(sigma=float(sigmas[band]), band=band))
    return y, DegradationReport(kind="noniid_gaussian", seed=seed, gaussian=entries)


# -- stripe -------------------------------------------------------------------


def _stripe_band(y: np.ndarray, band: int, seed: int, frac_min, frac_max, amplitude) -> StripeEntry:
    w = y.shape[1]
    if w < 20:
        raise ContractError(f"stripe noise needs width >= 20 columns, got {w}")
    st = _stream(seed, _TAG_STRIPE, band)
    frac = st.uniform(frac_min, frac_max)
    n = _column_count(frac, w, frac_min, frac_max)
    cols = np.sort(st.choice(w, size=n, replace=False))
    offsets = st.uniform(-amplitude, amplitude, size=n).astype(np.float32)
    y[:, cols, band] += offsets
    return StripeEntry(band=int(band), fraction=n / w,
                       columns=[int(c) for c in cols], offsets=[float(o) for o in offsets])


def add_stripe(
    x: np.ndarray, seed: int, *, frac_min: float = 0.05, frac_max: float = 0.15,
    amplitude: float = 0.25,
) -> tuple[np.ndarray, DegradationReport]:
    """Additive constant-per-column stripes on ceil(B/3) random bands."""
    y = _check_cube(x)
    bands = _affected_bands(seed, _TAG_STRIPE, y.shape[2])
    entries = [_stripe_band(y, band, seed, frac_min, frac_max, amplitude) for band in bands]
    return y, DegradationReport(kind="stripe", seed=seed, stripe=entries)


# -- deadline -----------------------------------------------------------------


def _deadline_band(y: np.ndarray, band: int, seed: int, frac_min, frac_max) -> DeadlineEntry:
    w = y.shape[1]
    if w < 20:
        raise ContractError(f"deadline noise needs width >= 20 columns, got {w}")
    st = _stream(seed, _TAG_DEADLINE, band)
    frac = st.uniform(frac_min, frac_max)
    n = _column_count(frac, w, frac_min, frac_max)
    # runs of 1-3 adjacent columns, placed without overlap, totalling n columns
    free = np.ones(w, dtype=bool)
    dead: list[int] = []
    remaining = n
    while remaining > 0:
        width = min(int(st.integers(1, 4)), remaining)
        while width >= 1:
            starts = [s for s in range(w - width + 1) if free[s : s + width].all()]
            if starts:
                s = starts[int(st.integers(0, len(starts)))]
                free[s : s + width] = False
                dead.extend(range(s, s + width))
                remaining -= width
                break
            width -= 1  # fragmented: shorten the run (singles always fit at density <= 15%)
    cols = np.sort(np.asarray(dead, dtype=int))
    y[:, cols, band] = 0.0
    return DeadlineEntry(band=int(band), fraction=n / w, columns=[int(c) for c in cols])


def add_deadline(
    x: np.ndarray, seed: int, *, frac_min: float = 0.05, frac_max: float = 0.15,
) -> tuple[np.ndarray, DegradationReport]:
    """Zeroed column runs (width 1-3) on ceil(B/3) random bands."""
    y = _check_cube(x)
    bands = _affected_bands(seed, _TAG_DEADLINE, y.shape[2])
    entries = [_deadline_band(y, band, seed, frac_min, frac_max) for band in bands]
    return y, DegradationReport(kind="deadline", seed=seed, deadline=entries)


# -- impulse ------------------------------------------------------------------


def _impulse_band(y: np.ndarray, band: int, seed: int, p_min, p_max) -> ImpulseEntry:
    st = _stream(seed, _TAG_IMPULSE, band)
    p = st.uniform(p_min, p_max)
    mask = st.random(y.shape[:2]) < p
    salt = st.random(y.shape[:2]) < 0.5
    plane = y[:, :, band]
    plane[mask] = salt[mask].astype(np.float32)  # exactly {0.0, 1.0}
    return ImpulseEntry(band=int(band), density=float(p), corrupted=int(mask.sum()))


def add_impulse(
    x: np.ndarray, seed: int, *, p_min: float = 0.3, p_max: float = 0.7,
) -> tuple[np.ndarray, DegradationReport]:
    """Salt-and-pepper with density p ~ U[p_min, p_max] on ceil(B/3) random bands."""
    y = _check_cube(x)
    bands = _affected_bands(seed, _TAG_IMPULSE, y.shape[2])
    entries = [_impulse_band(y, band, seed, p_min, p_max) for band in bands]
    return y, DegradationReport(kind="impulse", seed=seed, impulse=entries)


# -- composite cases -------------------------------------------------------------


def compose_case(x: np.ndarray, case_id: int, seed: int, spec: NoiseSpec | None = None):
    """Case 1: non-i.i.d. Gaussian.  Cases 2-4 add stripe / deadline / impulse.

    Case 5 adds, per band, an independent coin-flip subset of the three
    structured types on top of case 1.
    """
    if case_id not in (1, 2, 3, 4, 5):
        raise ConfigError(f"case_id must be 1..5, got {case_id}")
    if spec is None:
        spec = NoiseSpec(kind=f"case{case_id}", seed=seed)
    y, report = add_noniid_gaussian(x, seed, spec.sigma_min, spec.sigma_max)
    report.kind = f"case{case_id}"
    if case_id == 2:
        y, extra = add_stripe(y, seed, frac_min=spec.stripe_frac_min,
                              frac_max=spec.stripe_frac_max, amplitude=spec.stripe_amplitude)
        report.merge(extra)
    elif case_id == 3:
        y, extra = add_deadline(y, seed, frac_min=spec.deadline_frac_min,
                                frac_max=spec.deadline_frac_max)
        report.merge(extra)
    elif case_id == 4:
        y, extra = add_impulse(y, seed, p_min=spec.impulse_min, p_max=spec.impulse_max)
        report.merge(extra)
    elif case_id == 5:
        for band in range(y.shape[2]):
            flags = _stream(seed, _TAG_CASE5, band).random(3) < 0.5
            if flags[0]:
                report.stripe.append(_stripe_band(y, band, seed, spec.stripe_frac_min,
                                                  spec.stripe_frac_max, spec.stripe_amplitude))
            if flags[1]:
                report.deadline.append(_deadline_band(y, band, seed, spec.deadline_frac_min,
                                                      spec.deadline_frac_max))
            if flags[2]:
                report.impulse.append(_impulse_band(y, band, seed, spec.impulse_min, spec.impulse_max))
    return y, report


def apply_noise(x: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, DegradationReport]:
    """Dispatch on spec.kind; the single entry point used by the pipeline."""
    if spec.kind == "gaussian":
        return add_gaussian(x, spec.sigma, spec.seed)
    if spec.kind == "blind":
        sigma = float(_stream(spec.seed, _TAG_SIGMA).uniform(spec.sigma_min, spec.sigma_max))
        y, report = add_gaussian(x, sigma, spec.seed)
        report.kind = "blind"
        return y, report
    return compose_case(x, int(spec.kind[-1]), spec.seed, spec)
