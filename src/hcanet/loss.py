"""Training objective: mean-L1 reconstruction plus a gradient-domain term.

The regularizer compares forward differences of prediction and target along
the horizontal, vertical, and spectral axes and averages the squared
mismatch per axis (mean, not sum, so the paper's fixed weight
``LAMBDA_GRAD`` = 0.01 is comparable across patch sizes).  Forward
differences drop the last slice; no padding.

Axis convention: a 3-D array is a cube (H, W, B) with vertical=0,
horizontal=1, spectral=2; a 4-D array is a batch (N, C, H, W) with
spectral=1, vertical=2, horizontal=3.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, abs_, add, mean_all, mul_elementwise, scale, slice_, sub, sum_all

LAMBDA_GRAD = 0.01  # weight of the gradient-domain term


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    keep = arr.dtype in (np.float32, np.float64)
    return Tensor(arr, dtype=arr.dtype if keep else None)


def _check_pair(pred: Tensor, target: Tensor) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    if pred.ndim not in (3, 4):
        raise ShapeError(f"loss expects a cube (H,W,B) or batch (N,C,H,W), got {pred.shape}")


def _gradient_axes(ndim: int) -> tuple[int, ...]:
    # (vertical, horizontal, spectral)
    return (0, 1, 2) if ndim == 3 else (2, 3, 1)


def l1_rec(pred, target) -> Tensor:
    """Mean absolute difference over all voxels."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    _check_pair(pred, target)
    return mean_all(abs_(sub(pred, target)))


def _forward_diff(x: Tensor, axis: int) -> Tensor:
    hi = [slice(None)] * x.ndim
    lo = [slice(None)] * x.ndim
    hi[axis] = slice(1, None)
    lo[axis] = slice(None, -1)
    return sub(slice_(x, tuple(hi)), slice_(x, tuple(lo)))


def grad_reg(pred, target) -> Tensor:
    """Sum over the three axes of mean squared forward-difference mismatch."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    _check_pair(pred, target)
    total = None
    for label, axis in zip(("vertical", "horizontal", "spectral"), _gradient_axes(pred.ndim)):
        if pred.shape[axis] < 2:
            warnings.warn(f"grad_reg: {label} axis has extent 1, term is 0", stacklevel=2)
            continue
        err = sub(_forward_diff(pred, axis), _forward_diff(target, axis))
        term = mean_all(mul_elementwise(err, err))
        total = term if total is None else add(total, term)
    if total is None:  # every axis degenerate: a single voxel
        return scale(sum_all(pred), 0.0)
    return total


def total_loss(pred, target) -> Tensor:
    """L = l1_rec + LAMBDA_GRAD * grad_reg, differentiable end to end."""
    return add(l1_rec(pred, target), scale(grad_reg(pred, target), LAMBDA_GRAD))
