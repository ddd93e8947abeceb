"""Quality metrics for (H, W, B) cubes: PSNR, SSIM, SAM.

PSNR is computed per band against a data range of 1.0 and averaged over
bands (the MPSNR convention); a zero-MSE band contributes the documented cap
of 100 dB.  SSIM uses the standard 11x11 Gaussian window (sigma 1.5,
K1=0.01, K2=0.03, L=1) per band over valid windows only, then averages.  The
window is separable, so each windowed mean is two 1-D passes of the
normalized 11-tap Gaussian (along H, then along W), each cropped to the valid
windows; this equals the 2-D windowed sum up to float64 rounding.
SAM is the mean per-pixel spectral angle in radians; zero-norm pixels are
skipped and counted.  All computation is float64.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, MetricError, ShapeError

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass
class MetricReport:
    psnr_db: float
    ssim: float
    sam_rad: float
    psnr_per_band: list[float]
    ssim_per_band: list[float]
    sam_skipped_pixels: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _check_cubes(pred: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred, ref = np.asarray(pred, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if pred.shape != ref.shape:
        raise ShapeError(f"metric shapes differ: {pred.shape} vs {ref.shape}")
    if pred.ndim != 3:
        raise ShapeError(f"metrics expect (H, W, B) cubes, got {pred.shape}")
    return pred, ref


def psnr_per_band(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    pred, ref = _check_cubes(pred, ref)
    mse = np.mean((pred - ref) ** 2, axis=(0, 1))
    out = np.full(mse.shape, PSNR_CAP_DB)
    nz = mse > 0
    out[nz] = np.minimum(10.0 * np.log10(1.0 / mse[nz]), PSNR_CAP_DB)
    return out


def psnr(pred: np.ndarray, ref: np.ndarray) -> float:
    """Mean over bands of 10*log10(1/MSE_band), capped at 100 dB."""
    return float(psnr_per_band(pred, ref).mean())


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """The 1-D factor of the 2-D window: outer(g, g) is the normalized 2-D Gaussian."""
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    return g / g.sum()


def _windowed_mean(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Weighted mean over every valid len(g) x len(g) window of a 2-D image."""
    # imported on first use, so that importing the package does not pay for scipy.ndimage
    from scipy.ndimage import correlate1d

    r = len(g) // 2  # odd window: crop r outputs at each end to keep windows wholly inside
    rows = correlate1d(img, g, axis=0, mode="constant")[r:-r]
    return correlate1d(rows, g, axis=1, mode="constant")[:, r:-r]


def ssim_per_band(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    pred, ref = _check_cubes(pred, ref)
    h, w, b = pred.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigError(f"ssim needs spatial extents >= {SSIM_WINDOW}, got {h}x{w}")
    win = _gaussian_window()
    c1, c2 = SSIM_K1**2, SSIM_K2**2  # L = 1
    out = np.empty(b)
    for band in range(b):
        p, r = pred[:, :, band], ref[:, :, band]
        mu_p = _windowed_mean(p, win)
        mu_r = _windowed_mean(r, win)
        var_p = _windowed_mean(p * p, win) - mu_p**2
        var_r = _windowed_mean(r * r, win) - mu_r**2
        cov = _windowed_mean(p * r, win) - mu_p * mu_r
        num = (2 * mu_p * mu_r + c1) * (2 * cov + c2)
        den = (mu_p**2 + mu_r**2 + c1) * (var_p + var_r + c2)
        out[band] = np.mean(num / den)
    return out


def ssim(pred: np.ndarray, ref: np.ndarray) -> float:
    """Mean over bands of windowed SSIM (valid windows only)."""
    return float(ssim_per_band(pred, ref).mean())


def sam(pred: np.ndarray, ref: np.ndarray) -> float:
    return _sam(pred, ref)[0]


def _sam(pred: np.ndarray, ref: np.ndarray) -> tuple[float, int]:
    pred, ref = _check_cubes(pred, ref)
    norm_p = np.linalg.norm(pred, axis=2)
    norm_r = np.linalg.norm(ref, axis=2)
    if not norm_r.any():
        raise MetricError("SAM undefined: reference cube is identically zero")
    valid = (norm_p > 0) & (norm_r > 0)
    skipped = int(valid.size - valid.sum())
    if not valid.any():
        raise MetricError("SAM undefined: no pixel has nonzero spectra in both cubes")
    dots = np.sum(pred * ref, axis=2)
    cos = np.clip(dots[valid] / (norm_p[valid] * norm_r[valid]), -1.0, 1.0)
    return float(np.mean(np.arccos(cos))), skipped


def evaluate(pred: np.ndarray, ref: np.ndarray) -> MetricReport:
    """All three metrics in one report (the JSON the CLI emits)."""
    pb = psnr_per_band(pred, ref)
    sb = ssim_per_band(pred, ref)
    angle, skipped = _sam(pred, ref)
    return MetricReport(
        psnr_db=float(pb.mean()),
        ssim=float(sb.mean()),
        sam_rad=angle,
        psnr_per_band=[float(v) for v in pb],
        ssim_per_band=[float(v) for v in sb],
        sam_skipped_pixels=skipped,
    )
