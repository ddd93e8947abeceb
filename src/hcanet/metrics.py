"""Quality metrics for (H, W, B) cubes: PSNR, SSIM, SAM.

PSNR is computed per band against a data range of 1.0 and averaged over
bands (the MPSNR convention); a zero-MSE band contributes the documented cap
of 100 dB.  SSIM uses the standard 11x11 Gaussian window (sigma 1.5,
K1=0.01, K2=0.03, L=1) per band over valid windows only, then averages.  The
window is separable, so the windowed means are two matrix products with
banded matrices that hold the normalized 11-tap Gaussian at every valid
offset, Gh @ map @ Gw^T, taken in blocks of rows so that little of the work
multiplies the band's zeros; this equals the 2-D windowed sum up to float64
rounding.
SAM is the mean per-pixel spectral angle in radians; zero-norm pixels are
skipped and counted.  All computation is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError, ShapeError

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# outputs per block of a banded GEMM: a block multiplies a (32, 42) slice of
# the band, so 42/11 of its flops are needed ones instead of n/11 for the
# whole (n - 10, n) band
_BAND_BLOCK = 32


@dataclass
class MetricReport:
    psnr_db: float
    ssim: float
    sam_rad: float
    psnr_per_band: list[float]
    ssim_per_band: list[float]
    sam_skipped_pixels: int


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


def _gaussian_window() -> np.ndarray:
    """The 1-D factor of the 2-D window: outer(g, g) is the normalized 2-D Gaussian."""
    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def _band_matrix(n: int, g: np.ndarray) -> np.ndarray:
    """(n - len(g) + 1, n) matrix whose row i holds g at columns i .. i + len(g) - 1."""
    rows = np.arange(n - len(g) + 1)[:, None]
    m = np.zeros((len(rows), n))
    m[rows, rows + np.arange(len(g))] = g
    return m


def _band_pass(x: np.ndarray, band: np.ndarray, out: np.ndarray) -> None:
    """out = G @ x for the banded G of the window in ``band``, block by block.

    ``band`` is ``_band_matrix(_BAND_BLOCK + len(g) - 1, g)``; block i of
    the output rows needs only x's rows under its slice of the band.
    """
    k = band.shape[1] - band.shape[0]  # len(g) - 1
    for lo in range(0, len(out), _BAND_BLOCK):
        n = min(_BAND_BLOCK, len(out) - lo)
        np.matmul(band[:n, : n + k], x[lo : lo + n + k], out=out[lo : lo + n])


def _windowed_mean(maps: np.ndarray, band: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Weighted mean over every valid window of a stack of 2-D maps, written to ``out``.

    maps: (H, M, W), M maps side by side; ``band`` is the window's
    ``_band_matrix(_BAND_BLOCK + len(g) - 1, g)``.  Gh @ map @ Gw^T for all M
    maps at once: the pass along H goes into ``rows`` (H', M*W), the pass
    along W, the same on the transposed views, into ``out`` (H', M, W').  The
    caller keeps both buffers from band to band.
    """
    h, m, w = maps.shape
    _band_pass(maps.reshape(h, m * w), band, rows)
    _band_pass(rows.reshape(-1, w).T, band, out.reshape(-1, out.shape[2]).T)
    return out


def ssim_per_band(pred: np.ndarray, ref: np.ndarray) -> np.ndarray:
    pred, ref = _check_cubes(pred, ref)
    h, w, b = pred.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigError(f"ssim needs spatial extents >= {SSIM_WINDOW}, got {h}x{w}")
    band_matrix = _band_matrix(_BAND_BLOCK + SSIM_WINDOW - 1, _gaussian_window())
    c1, c2 = SSIM_K1**2, SSIM_K2**2  # L = 1
    hv, wv = h - SSIM_WINDOW + 1, w - SSIM_WINDOW + 1  # valid windows
    maps, rows, means = np.empty((h, 5, w)), np.empty((hv, 5 * w)), np.empty((hv, 5, wv))
    out = np.empty(b)
    p, r = maps[:, 0], maps[:, 1]
    for band in range(b):
        p[...], r[...] = pred[:, :, band], ref[:, :, band]  # the strided reads, once
        np.multiply(p, p, out=maps[:, 2])
        np.multiply(r, r, out=maps[:, 3])
        np.multiply(p, r, out=maps[:, 4])
        mu_p, mu_r, e_pp, e_rr, e_pr = np.moveaxis(_windowed_mean(maps, band_matrix, rows, means), 1, 0)
        var_p = e_pp - mu_p**2
        var_r = e_rr - mu_r**2
        cov = e_pr - mu_p * mu_r
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
    pred, ref = _check_cubes(pred, ref)  # float64 once; each metric's own check then copies nothing
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
