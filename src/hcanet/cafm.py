"""Convolution and attention fusion: parallel local and global branches.

The local branch is a 1x1 convolution, a channel shuffle, and a 3x3x3
convolution over the (channel, height, width) volume.  The global branch is
channel attention: Q/K/V come from a 1x1 convolution tripling the channels
followed by a 3x3 depthwise convolution; attention is a C x C map (never
HW x HW), temperature-scaled by a learnable alpha; the attended values pass
through a 1x1 convolution and add back onto the input.  The module output is
the sum of the two branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .nn import (
    Conv2dWeights,
    Conv3dWeights,
    channel_shuffle,
    conv2d,
    conv3d_on_features,
    init_conv2d,
    init_conv3d,
)
from .tensor import (
    Tensor,
    add,
    matmul,
    permute,
    reciprocal,
    reshape,
    scale_by,
    slice_,
    softmax,
)

SHUFFLE_GROUPS = 4  # channel-shuffle groups of the local branch


@dataclass
class CafmWeights:
    """Fields in checkpoint order; ``nn.named_params`` names them (``cafm.local_pw.kernel``, ...)."""

    # local branch (F_conv); None in both disables it (ablation)
    local_pw: Conv2dWeights | None  # 1x1, C -> C, before the channel shuffle
    local_3d: Conv3dWeights | None  # 3x3x3 (1x3x3 without spectral mixing) over (channel, H, W)
    # global branch (F_att)
    qkv_pw: Conv2dWeights  # 1x1, C -> 3C
    qkv_dw: Conv2dWeights  # 3x3 depthwise over the 3C channels
    out_pw: Conv2dWeights  # 1x1, C -> C
    alpha: Tensor  # 0-d temperature, init 1.0


def init_cafm(rng: np.random.Generator, c: int, *, local_branch: bool = True, spectral_3d: bool = True) -> CafmWeights:
    """Build CAFM weights for block width c.

    spectral_3d=False degrades the local 3x3x3 kernel to depth extent 1,
    which is a weight-tied per-channel 2-D 3x3 convolution (the 3-D-conv
    ablation keeps the channel contract but loses spectral mixing).
    """
    if c % SHUFFLE_GROUPS:
        raise ShapeError(f"block width {c} not divisible by shuffle groups {SHUFFLE_GROUPS}")
    local_pw = local_3d = None
    if local_branch:
        local_pw = init_conv2d(rng, c, c, 1)
        local_3d = init_conv3d(rng, 1, 1, (3, 3, 3) if spectral_3d else (1, 3, 3))
    return CafmWeights(
        local_pw,
        local_3d,
        qkv_pw=init_conv2d(rng, c, 3 * c, 1),
        qkv_dw=init_conv2d(rng, 3 * c, 3 * c, 3, groups=3 * c),
        out_pw=init_conv2d(rng, c, c, 1),
        alpha=Tensor(np.asarray(1.0), requires_grad=True),
    )


def local_branch(y: Tensor, w: CafmWeights) -> Tensor:
    """F_conv: 1x1 conv, channel shuffle, 3x3x3 conv.  No residual here."""
    if w.local_pw is None or w.local_3d is None:
        raise ContractError("local branch is disabled in these weights")
    z = conv2d(y, w.local_pw)
    z = channel_shuffle(z, SHUFFLE_GROUPS)
    return conv3d_on_features(z, w.local_3d)


def attention_map(q_hat: Tensor, k_hat: Tensor, alpha) -> Tensor:
    """A = softmax((K_hat Q_hat) / alpha) over the last axis.

    q_hat: (..., HW, C), k_hat: (..., C, HW) -> (..., C, C); each row of A
    sums to 1, so V_hat @ A mixes value channels convexly.
    """
    logits = matmul(k_hat, q_hat)
    if not isinstance(alpha, Tensor):
        alpha = Tensor(alpha, dtype=logits.dtype)
    if alpha.item() <= 0:
        raise ContractError(f"attention temperature must be positive, got {alpha.item()}")
    return softmax(scale_by(logits, reciprocal(alpha)), axis=-1)


def global_branch(y: Tensor, w: CafmWeights) -> Tensor:
    """F_att: channel attention over Q/K/V plus the residual input."""
    n, c, h, wd = y.shape
    qkv = conv2d(conv2d(y, w.qkv_pw), w.qkv_dw)  # (N, 3C, H, W)
    q = reshape(slice_(qkv, (slice(None), slice(0, c))), (n, c, h * wd))
    k = reshape(slice_(qkv, (slice(None), slice(c, 2 * c))), (n, c, h * wd))
    v = reshape(slice_(qkv, (slice(None), slice(2 * c, 3 * c))), (n, c, h * wd))
    # Q_hat is a transposed view; V_hat A is computed transposed, as A^T V in
    # the (C, HW) layout, so no HW x C copy is made
    a = attention_map(permute(q, (0, 2, 1)), k, w.alpha)  # (N, C, C)
    att = matmul(permute(a, (0, 2, 1)), v)  # (N, C, HW)
    return add(conv2d(reshape(att, (n, c, h, wd)), w.out_pw), y)


def cafm_forward(y: Tensor, w: CafmWeights) -> Tensor:
    """F_out = F_att + F_conv (global branch alone when local is disabled)."""
    out = global_branch(y, w)
    if w.local_pw is not None:
        out = add(out, local_branch(y, w))
    return out
